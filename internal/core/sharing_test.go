package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/pb"
)

// stubSharer is a deterministic in-process Sharer: a fixed foreign incumbent
// plus a queue of clauses to deliver, recording everything the solver
// publishes.
type stubSharer struct {
	ubCost int64
	ubVals []bool
	hasUB  bool

	deliver [][]pb.Lit // drained once, in order
	// beforeDrain, when set, runs at the start of the next drain: another
	// member's move landing between the solver's last board poll and its
	// drain.
	beforeDrain func(*stubSharer)

	pubIncumbents []int64
	pubClauses    [][]pb.Lit
}

func (s *stubSharer) PublishIncumbent(cost int64, values []bool) bool {
	s.pubIncumbents = append(s.pubIncumbents, cost)
	if !s.hasUB || cost < s.ubCost {
		s.ubCost = cost
		s.ubVals = append([]bool(nil), values...)
		s.hasUB = true
		return true
	}
	return false
}

func (s *stubSharer) BestUB() (int64, bool) { return s.ubCost, s.hasUB }

func (s *stubSharer) BestIncumbent(below int64) (int64, []bool, bool) {
	if !s.hasUB || s.ubCost >= below {
		return 0, nil, false
	}
	return s.ubCost, append([]bool(nil), s.ubVals...), true
}

func (s *stubSharer) PublishClause(lits []pb.Lit, lbd int) bool {
	s.pubClauses = append(s.pubClauses, append([]pb.Lit(nil), lits...))
	return true
}

func (s *stubSharer) DrainClauses(fn func(lits []pb.Lit)) {
	if f := s.beforeDrain; f != nil {
		s.beforeDrain = nil
		f(s)
	}
	for _, c := range s.deliver {
		fn(c)
	}
	s.deliver = nil
}

// TestSharerAdoptForeignIncumbent: a board already holding the optimum lets
// the solver adopt it and still prove optimality.
func TestSharerAdoptForeignIncumbent(t *testing.T) {
	// minimize 3a+2b subject to a+b >= 1: optimum 2 at b.
	p := pb.NewProblem(2)
	p.SetCost(0, 3)
	p.SetCost(1, 2)
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
	sh := &stubSharer{ubCost: 2, ubVals: []bool{false, true}, hasUB: true}
	res := Solve(p, Options{LowerBound: LBMIS, Share: sh})
	if res.Status != StatusOptimal || res.Best != 2 {
		t.Fatalf("status=%v best=%d", res.Status, res.Best)
	}
	if res.Stats.Sharing.ForeignIncumbents == 0 {
		t.Fatal("foreign incumbent was not adopted")
	}
	if !reflect.DeepEqual(res.Values, []bool{false, true}) {
		t.Fatalf("values=%v", res.Values)
	}
}

// TestSharerPublishesIncumbentsAndClauses: the solver offers every local
// improvement and its learned clauses to the board.
func TestSharerPublishesIncumbentsAndClauses(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sh := &stubSharer{}
	total := 0
	for iter := 0; iter < 20; iter++ {
		p := randomPBO(rng, 6, 10)
		res := Solve(p, Options{LowerBound: LBMIS, Share: sh})
		if res.HasSolution {
			total++
		}
	}
	if len(sh.pubIncumbents) == 0 {
		t.Fatal("no incumbents were published")
	}
	if total > 0 && len(sh.pubClauses) == 0 {
		t.Fatal("no clauses were published over 20 random solves")
	}
	for _, c := range sh.pubClauses {
		if len(c) == 0 || len(c) > shareMaxPublishLen {
			t.Fatalf("published clause of length %d", len(c))
		}
	}
	if res := sh.pubIncumbents; res[len(res)-1] < 0 {
		t.Fatalf("negative incumbent cost published: %v", res)
	}
}

// TestSharerImportedUnitsRestrictSearch: delivered unit clauses are imported
// at the root; when they exhaust the feasible space below the board's upper
// bound, the final board poll still yields the exact optimum.
func TestSharerImportedUnitsRestrictSearch(t *testing.T) {
	// minimize a+b subject to a+b >= 1: optimum 1.
	p := pb.NewProblem(2)
	p.SetCost(0, 1)
	p.SetCost(1, 1)
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
	// The board holds the optimum and delivers the clauses implied by
	// cost <= 0 (i.e. "neither variable is set") — importing both conflicts
	// at the root, proving exhaustion; adoptFinal must then surface the
	// board incumbent rather than reporting unsat.
	sh := &stubSharer{
		ubCost: 1, ubVals: []bool{true, false}, hasUB: true,
		deliver: [][]pb.Lit{{pb.NegLit(0)}, {pb.NegLit(1)}},
	}
	res := Solve(p, Options{LowerBound: LBNone, Share: sh})
	if res.Status != StatusOptimal || res.Best != 1 {
		t.Fatalf("status=%v best=%d (imports must not fake unsat)", res.Status, res.Best)
	}
	if res.Stats.Sharing.ImportedUnits == 0 && res.Stats.Sharing.ImportConflicts == 0 {
		t.Fatalf("no imports recorded: %+v", res.Stats.Sharing)
	}
}

// TestImportAuditUsesBoardBoundAfterDrain: another member publishes a better
// incumbent, then a clause learned under it, after the importer's last look
// at the board and before its drain. The import audit must replay the clause
// under the board's bound after the drain; under the stale bound the clause
// looks like it eliminates a feasible assignment.
func TestImportAuditUsesBoardBoundAfterDrain(t *testing.T) {
	// minimize x0 + 72 x1 + 31 x3 subject to x0+x1+x2 = 2, 2 x0 − x1 ≥ 0.
	// The optimum is {x0,x2} at cost 1; {x0,x1} costs 73.
	p := pb.NewProblem(4)
	p.SetCost(0, 1)
	p.SetCost(1, 72)
	p.SetCost(3, 31)
	if err := p.AddConstraint([]pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.PosLit(1)},
		{Coef: 1, Lit: pb.PosLit(2)}}, pb.EQ, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]pb.Term{{Coef: 2, Lit: pb.PosLit(0)}, {Coef: -1, Lit: pb.PosLit(1)}},
		pb.GE, 0); err != nil {
		t.Fatal(err)
	}
	sh := &stubSharer{beforeDrain: func(b *stubSharer) {
		// (¬x1) is implied by cost < 1, the other member's new bound.
		b.PublishIncumbent(1, []bool{true, false, true, false})
		b.deliver = [][]pb.Lit{{pb.NegLit(1)}}
	}}
	a := audit.New(p)
	res := Solve(p, Options{LowerBound: LBMIS, Share: sh, Audit: a})
	rep := a.Snapshot()
	if !rep.Ok() {
		t.Fatalf("audit violations:\n%s", rep.String())
	}
	if rep.Counts.ImportedClauses == 0 {
		t.Fatal("the drained clause was not audited")
	}
	if res.Status != StatusOptimal || res.Best != 1 {
		t.Fatalf("status=%v best=%d, want optimal 1", res.Status, res.Best)
	}
}

// TestSharerNilIsInert: Share=nil must leave every sharing counter zero.
func TestSharerNilIsInert(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomPBO(rng, 6, 8)
	res := Solve(p, Options{LowerBound: LBLPR})
	if res.Stats.Sharing.Active() || res.Stats.ImportedClauses != 0 {
		t.Fatalf("sharing counters nonzero without a Sharer: %+v", res.Stats.Sharing)
	}
}

// TestSolveDeterministicLPR: two identical LPR solves must replay the exact
// same search — this pins the order-independence of the LP-guided branching
// tie-break (Go map iteration is randomized per run) and the absence of any
// unseeded randomness. The cooperative portfolio's deterministic mode
// (sequential members, no sharing) rests on this.
func TestSolveDeterministicLPR(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 25; iter++ {
		p := randomPBO(rng, 8, 12)
		opt := Options{LowerBound: LBLPR, CardinalityInference: true}
		a := Solve(p, opt)
		b := Solve(p, opt)
		if a.Status != b.Status || a.Best != b.Best {
			t.Fatalf("iter %d: verdicts diverged: %v/%d vs %v/%d",
				iter, a.Status, a.Best, b.Status, b.Best)
		}
		if a.Stats.Decisions != b.Stats.Decisions ||
			a.Stats.Conflicts != b.Stats.Conflicts ||
			a.Stats.BoundConflicts != b.Stats.BoundConflicts ||
			a.Stats.BoundCalls != b.Stats.BoundCalls {
			t.Fatalf("iter %d: search diverged: %+v vs %+v", iter,
				statsTuple(a.Stats), statsTuple(b.Stats))
		}
	}
}

// TestSolveDeterministicSeededRandom: the explicit RNG is reproducible for a
// fixed seed and diverges across seeds.
func TestSolveDeterministicSeededRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	p := randomPBO(rng, 10, 14)
	opt := Options{LowerBound: LBMIS, Seed: 5, RandomBranchFreq: 0.5}
	a := Solve(p, opt)
	b := Solve(p, opt)
	if statsTuple(a.Stats) != statsTuple(b.Stats) || a.Best != b.Best {
		t.Fatalf("same seed diverged: %+v vs %+v", statsTuple(a.Stats), statsTuple(b.Stats))
	}
	if a.Stats.RandomDecisions == 0 && a.Stats.Decisions > 0 {
		t.Fatal("RandomBranchFreq=0.5 made no random decisions")
	}
}

type searchTuple struct {
	Decisions, Conflicts, BoundConflicts, BoundCalls, Random int64
}

func statsTuple(s Stats) searchTuple {
	return searchTuple{s.Decisions, s.Conflicts, s.BoundConflicts, s.BoundCalls, s.RandomDecisions}
}
