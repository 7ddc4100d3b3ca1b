package wbo

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pb"
)

func softClause(w int64, lits ...pb.Lit) SoftCons {
	terms := make([]pb.Term, len(lits))
	for i, l := range lits {
		terms[i] = pb.Term{Coef: 1, Lit: l}
	}
	return SoftCons{Weight: w, Terms: terms, Cmp: pb.GE, Rhs: 1}
}

func hardClause(lits ...pb.Lit) HardCons {
	terms := make([]pb.Term, len(lits))
	for i, l := range lits {
		terms[i] = pb.Term{Coef: 1, Lit: l}
	}
	return HardCons{Terms: terms, Cmp: pb.GE, Rhs: 1}
}

func TestCoreGuidedBasics(t *testing.T) {
	// Hard: x0 ∨ x1. Softs: ¬x0 (3), ¬x1 (5). Optimum pays 3.
	in := &Instance{
		NumVars: 2,
		Hard:    []HardCons{hardClause(pb.PosLit(0), pb.PosLit(1))},
		Soft:    []SoftCons{softClause(3, pb.NegLit(0)), softClause(5, pb.NegLit(1))},
	}
	res := Solve(in, Options{})
	if res.Status != core.StatusOptimal || res.Best != 3 {
		t.Fatalf("status=%v best=%d err=%v want optimal/3", res.Status, res.Best, res.Err)
	}
	if res.LowerBound != 3 {
		t.Fatalf("lb=%d want 3", res.LowerBound)
	}
	if len(res.Violated) != 1 || res.Violated[0] != 0 {
		t.Fatalf("violated=%v want [0]", res.Violated)
	}
	if res.Cores == 0 {
		t.Fatal("expected at least one extracted core")
	}
}

func TestCoreGuidedWeightSplit(t *testing.T) {
	// Both softs conflict pairwise with weight asymmetry: the WPM1 split
	// must leave residual weight behind. x0 forced; softs ¬x0 (7) and ¬x0
	// (2) — two cores or one, either way optimum = 9.
	in := &Instance{
		NumVars: 1,
		Hard:    []HardCons{hardClause(pb.PosLit(0))},
		Soft:    []SoftCons{softClause(7, pb.NegLit(0)), softClause(2, pb.NegLit(0))},
	}
	res := Solve(in, Options{})
	if res.Status != core.StatusOptimal || res.Best != 9 {
		t.Fatalf("status=%v best=%d err=%v want optimal/9", res.Status, res.Best, res.Err)
	}
}

func TestCoreGuidedHardUnsat(t *testing.T) {
	in := &Instance{
		NumVars: 1,
		Hard:    []HardCons{hardClause(pb.PosLit(0)), hardClause(pb.NegLit(0))},
		Soft:    []SoftCons{softClause(4, pb.PosLit(0))},
	}
	res := Solve(in, Options{})
	if res.Status != core.StatusUnsat || !res.HardUnsat {
		t.Fatalf("status=%v hardUnsat=%v want unsat/true", res.Status, res.HardUnsat)
	}
	if res.HasSolution {
		t.Fatal("hard-UNSAT must carry no witness")
	}
}

func TestCoreGuidedAllSoftsViolated(t *testing.T) {
	// Hards feasible but every soft violated: optimum with full penalty,
	// NOT HardUnsat — the distinction satellite.
	in := &Instance{
		NumVars: 2,
		Hard:    []HardCons{hardClause(pb.PosLit(0)), hardClause(pb.PosLit(1))},
		Soft:    []SoftCons{softClause(3, pb.NegLit(0)), softClause(5, pb.NegLit(1))},
	}
	res := Solve(in, Options{})
	if res.Status != core.StatusOptimal || res.Best != 8 || res.HardUnsat {
		t.Fatalf("status=%v best=%d hardUnsat=%v want optimal/8/false", res.Status, res.Best, res.HardUnsat)
	}
}

func TestCoreGuidedEqualityAndPBSofts(t *testing.T) {
	// Soft equality x0 + x1 = 1 (weight 4) with hards forcing x0 = x1:
	// unavoidable penalty 4. Exercises EQ selector rows in the assumption
	// loop and the blocker-frees-both-rows clone shape.
	in := &Instance{
		NumVars: 2,
		Hard: []HardCons{
			hardClause(pb.NegLit(0), pb.PosLit(1)),
			hardClause(pb.PosLit(0), pb.NegLit(1)),
		},
		Soft: []SoftCons{{Weight: 4,
			Terms: []pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.PosLit(1)}},
			Cmp:   pb.EQ, Rhs: 1}},
	}
	res := Solve(in, Options{})
	if res.Status != core.StatusOptimal || res.Best != 4 {
		t.Fatalf("status=%v best=%d err=%v want optimal/4", res.Status, res.Best, res.Err)
	}
}

func TestCoreGuidedOffset(t *testing.T) {
	in := &Instance{
		NumVars: 1,
		Offset:  10,
		Hard:    []HardCons{hardClause(pb.PosLit(0))},
		Soft:    []SoftCons{softClause(2, pb.NegLit(0))},
	}
	res := Solve(in, Options{})
	if res.Status != core.StatusOptimal || res.Best != 12 || res.LowerBound != 12 {
		t.Fatalf("status=%v best=%d lb=%d want optimal/12/12", res.Status, res.Best, res.LowerBound)
	}
}

func TestCoreGuidedRejectsBadInstances(t *testing.T) {
	if res := Solve(&Instance{NumVars: 1, Soft: []SoftCons{softClause(0, pb.PosLit(0))}}, Options{}); res.Status != core.StatusError {
		t.Fatalf("zero weight accepted: %v", res.Status)
	}
	if res := Solve(&Instance{NumVars: 1, Soft: []SoftCons{softClause(1, pb.PosLit(3))}}, Options{}); res.Status != core.StatusError {
		t.Fatalf("out-of-range literal accepted: %v", res.Status)
	}
}

// randInstance builds a small random WBO instance with mixed clause / PB /
// equality softs.
func randInstance(rng *rand.Rand) *Instance {
	n := 2 + rng.Intn(4)
	in := &Instance{NumVars: n}
	nh := rng.Intn(3)
	for i := 0; i < nh; i++ {
		var lits []pb.Lit
		nl := 1 + rng.Intn(3)
		for k := 0; k < nl; k++ {
			lits = append(lits, pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0))
		}
		in.Hard = append(in.Hard, hardClause(lits...))
	}
	ns := 1 + rng.Intn(4)
	for i := 0; i < ns; i++ {
		nt := 1 + rng.Intn(3)
		terms := make([]pb.Term, nt)
		for k := range terms {
			c := int64(rng.Intn(5) - 2)
			if c == 0 {
				c = 1
			}
			terms[k] = pb.Term{Coef: c, Lit: pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0)}
		}
		in.Soft = append(in.Soft, SoftCons{
			Weight: int64(1 + rng.Intn(6)),
			Terms:  terms,
			Cmp:    pb.Cmp(rng.Intn(3)),
			Rhs:    int64(rng.Intn(4) - 1),
		})
	}
	return in
}

// TestCoreGuidedAgainstBruteForce is the package's own differential gate:
// the core-guided optimum must equal the brute-force minimum penalty over
// all hard-feasible assignments, on instances mixing clause, PB and
// equality softs (the fuzz matrix repeats this against B&B at scale).
func TestCoreGuidedAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(929))
	for iter := 0; iter < 200; iter++ {
		in := randInstance(rng)
		res := Solve(in, Options{MaxConflicts: 200000})
		if res.Status == core.StatusLimit {
			t.Fatalf("iter %d: budget blown on a tiny instance (err=%v)", iter, res.Err)
		}

		best := int64(-1)
		n := in.NumVars
		for mask := 0; mask < 1<<n; mask++ {
			vals := make([]bool, n)
			for v := 0; v < n; v++ {
				vals[v] = mask&(1<<v) != 0
			}
			feasible := true
			for hi := range in.Hard {
				h := HardCons(in.Hard[hi])
				sc := SoftCons{Weight: 1, Terms: h.Terms, Cmp: h.Cmp, Rhs: h.Rhs}
				if !sc.eval(vals) {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			p, _ := in.Penalty(vals)
			if best < 0 || p < best {
				best = p
			}
		}

		if best < 0 {
			if res.Status != core.StatusUnsat || !res.HardUnsat {
				t.Fatalf("iter %d: hard-infeasible but status=%v hardUnsat=%v", iter, res.Status, res.HardUnsat)
			}
			continue
		}
		if res.Status != core.StatusOptimal {
			t.Fatalf("iter %d: status=%v err=%v want optimal", iter, res.Status, res.Err)
		}
		if res.Best != best {
			t.Fatalf("iter %d: best=%d want %d", iter, res.Best, best)
		}
		// The witness must achieve the claimed cost.
		p, _ := in.Penalty(res.Values)
		if p != best {
			t.Fatalf("iter %d: witness penalty %d != claimed %d", iter, p, best)
		}
		// And the extended witness must be feasible for the compiled
		// (B&B-path) problem at the same cost.
		b, err := in.Builder()
		if err != nil {
			t.Fatal(err)
		}
		cp, _ := b.Problem()
		ext := in.ExtendedWitness(res.Values)
		if !cp.Feasible(ext) {
			t.Fatalf("iter %d: extended witness infeasible in compiled space", iter)
		}
		if got := cp.ObjectiveValue(ext); got != best {
			t.Fatalf("iter %d: extended witness cost %d want %d", iter, got, best)
		}
	}
}

func TestCoreGuidedMatchesBranchAndBound(t *testing.T) {
	// The portfolio-facing property: core-guided and B&B (over the compiled
	// relaxation) prove the same optimum.
	rng := rand.New(rand.NewSource(1213))
	for iter := 0; iter < 60; iter++ {
		in := randInstance(rng)
		cg := Solve(in, Options{MaxConflicts: 200000})
		b, err := in.Builder()
		if err != nil {
			t.Fatal(err)
		}
		sol, err := b.Solve(core.Options{LowerBound: core.LBMIS, MaxConflicts: 200000})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case sol.HardUnsat:
			if cg.Status != core.StatusUnsat || !cg.HardUnsat {
				t.Fatalf("iter %d: B&B hard-unsat, core-guided %v", iter, cg.Status)
			}
		case sol.Status == core.StatusOptimal:
			if cg.Status != core.StatusOptimal || cg.Best != sol.Best {
				t.Fatalf("iter %d: core-guided %v/%d, B&B optimal/%d", iter, cg.Status, cg.Best, sol.Best)
			}
		}
	}
}

func TestCoreGuidedIterationLimit(t *testing.T) {
	// Three pigeons, two holes: the hard rows keep each hole to one pigeon,
	// the softs put every pigeon in a hole. The first sub-solve needs
	// conflicts to refute all three softs, and the optimum (1) needs a
	// second sub-solve, so a one-conflict budget must stop the loop with
	// StatusLimit and a sound lower bound.
	at := func(i, j int) pb.Var { return pb.Var(2*i + j) }
	in := &Instance{NumVars: 6}
	for j := 0; j < 2; j++ {
		for a := 0; a < 3; a++ {
			for b := a + 1; b < 3; b++ {
				in.Hard = append(in.Hard, hardClause(pb.NegLit(at(a, j)), pb.NegLit(at(b, j))))
			}
		}
	}
	for i := 0; i < 3; i++ {
		in.Soft = append(in.Soft, softClause(1, pb.PosLit(at(i, 0)), pb.PosLit(at(i, 1))))
	}
	if full := Solve(in, Options{}); full.Status != core.StatusOptimal || full.Best != 1 || full.Iterations < 2 {
		t.Fatalf("unbudgeted: %v/%d after %d sub-solves, want optimal/1 after at least 2",
			full.Status, full.Best, full.Iterations)
	}
	res := Solve(in, Options{MaxConflicts: 1})
	if res.Status != core.StatusLimit {
		t.Fatalf("status=%v want limit", res.Status)
	}
	if res.LowerBound > 1 {
		t.Fatalf("lb=%d exceeds optimum 1", res.LowerBound)
	}
}

func TestCoreGuidedCardRewrite(t *testing.T) {
	// A hard constraint that is a semantic cardinality constraint
	// (3x0 + 3x1 + 2x2 ≥ 5 ⟺ at least 2 of {x0,x1,x2}) must be rewritten
	// to unit coefficients by the normalization pass without changing the
	// answer. (Clause softs
	// need no rewrite: coefficient clipping already normalizes their big-M
	// rows to uniform form.)
	in := &Instance{
		NumVars: 3,
		Hard: []HardCons{{Terms: []pb.Term{
			{Coef: 3, Lit: pb.PosLit(0)},
			{Coef: 3, Lit: pb.PosLit(1)},
			{Coef: 2, Lit: pb.PosLit(2)},
		}, Cmp: pb.GE, Rhs: 5}},
		Soft: []SoftCons{softClause(3, pb.NegLit(0), pb.NegLit(1))},
	}
	res := Solve(in, Options{})
	// x0 and x2 meet the hard row and keep the soft clause.
	if res.Status != core.StatusOptimal || res.Best != 0 {
		t.Fatalf("%v/%d, want optimal/0", res.Status, res.Best)
	}
	if res.CardRewrites == 0 {
		t.Fatal("expected cardinality rewrites on clause softs")
	}
}

// TestSubSolvesStopAtTheDeadline: the hard part places ten pigeons into
// nine holes (pairwise clauses per hole), which no sub-solve refutes within
// seconds, so the first sub-solve is still searching when the caller's
// deadline passes and must stop there.
func TestSubSolvesStopAtTheDeadline(t *testing.T) {
	const pigeons, holes = 10, 9
	at := func(i, j int) pb.Lit { return pb.PosLit(pb.Var(i*holes + j)) }
	in := &Instance{NumVars: pigeons * holes}
	for i := 0; i < pigeons; i++ {
		var lits []pb.Lit
		for j := 0; j < holes; j++ {
			lits = append(lits, at(i, j))
		}
		in.Hard = append(in.Hard, hardClause(lits...))
	}
	for j := 0; j < holes; j++ {
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				in.Hard = append(in.Hard, hardClause(at(i, j).Neg(), at(k, j).Neg()))
			}
		}
		in.Soft = append(in.Soft, softClause(int64(j+1), at(0, j).Neg()))
	}
	const limit = 200 * time.Millisecond
	start := time.Now()
	res := Solve(in, Options{Deadline: start.Add(limit)})
	if el := time.Since(start); el > limit+limit/2 {
		t.Fatalf("a solve under a %v deadline ran %v", limit, el)
	}
	if res.Status != core.StatusLimit || res.Iterations == 0 {
		t.Fatalf("status=%v iterations=%d, want limit after at least one sub-solve", res.Status, res.Iterations)
	}
}
