package ls

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/opb"
	"repro/internal/pb"
	"repro/internal/share"
)

func randomPBO(rng *rand.Rand, n, m int) *pb.Problem {
	p := pb.NewProblem(n)
	for v := 0; v < n; v++ {
		p.SetCost(pb.Var(v), int64(rng.Intn(7)))
	}
	for i := 0; i < m; i++ {
		nt := 1 + rng.Intn(4)
		terms := make([]pb.Term, nt)
		for k := range terms {
			terms[k] = pb.Term{
				Coef: int64(1 + rng.Intn(4)),
				Lit:  pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(3) == 0),
			}
		}
		_ = p.AddConstraint(terms, pb.GE, int64(rng.Intn(6)))
	}
	return p
}

func parse(t *testing.T, text string) *pb.Problem {
	t.Helper()
	p, err := opb.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkSolution verifies a result's certificate against the original problem.
func checkSolution(t *testing.T, p *pb.Problem, res Result) {
	t.Helper()
	if !res.HasSolution {
		return
	}
	if len(res.Values) != p.NumVars {
		t.Fatalf("values length %d, want %d", len(res.Values), p.NumVars)
	}
	if !p.Feasible(res.Values) {
		t.Fatal("reported solution is infeasible")
	}
	if got := p.ObjectiveValue(res.Values); got != res.Best {
		t.Fatalf("reported Best=%d but values cost %d", res.Best, got)
	}
}

// TestFindsOptimumOnSmallInstances: with a generous flip budget, restarts and
// tiny instances, local search lands on the brute-force optimum. The run is
// fully deterministic (fixed seeds, no board), so this is a stable assertion,
// not a probabilistic one.
func TestFindsOptimumOnSmallInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	found, feasible := 0, 0
	for iter := 0; iter < 40; iter++ {
		p := randomPBO(rng, 2+rng.Intn(8), 1+rng.Intn(8))
		want := pb.BruteForce(p)
		aud := audit.New(p)
		res := Solve(p, Options{Seed: int64(iter + 1), MaxFlips: 60_000, Audit: aud})
		if rep := aud.Snapshot(); !rep.Ok() {
			t.Fatalf("iter %d: audit: %v", iter, rep.Violations)
		}
		checkSolution(t, p, res)
		if !want.Feasible {
			if res.HasSolution || res.Satisfiable {
				t.Fatalf("iter %d: solution claimed on an UNSAT instance", iter)
			}
			continue
		}
		feasible++
		if !res.HasSolution {
			t.Fatalf("iter %d: no solution on a feasible %d-var instance after %d flips",
				iter, p.NumVars, res.Stats.Flips)
		}
		if res.Best < want.Optimum {
			t.Fatalf("iter %d: Best=%d undercuts brute-force optimum %d", iter, res.Best, want.Optimum)
		}
		if res.Best == want.Optimum {
			found++
		}
	}
	// Tiny instances + 60k flips: local search hits the exact optimum on
	// every feasible instance of this fixed, deterministic batch — a
	// regression in the scoring/flip logic shows up as a hard drop here.
	if feasible == 0 {
		t.Fatal("generator produced no feasible instances")
	}
	if found < feasible {
		t.Fatalf("optimum found on only %d/%d feasible instances", found, feasible)
	}
}

// TestDeterministicUnderFixedSeed: the explicit-randomness rule — two runs
// with the same seed and no board are identical, a different seed diverges.
func TestDeterministicUnderFixedSeed(t *testing.T) {
	p := randomPBO(rand.New(rand.NewSource(7)), 8, 7)
	a := Solve(p, Options{Seed: 3, MaxFlips: 20_000})
	b := Solve(p, Options{Seed: 3, MaxFlips: 20_000})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestSatisfiableWitnessOnObjectiveFree: an objective-free instance ends with
// a verified SAT witness — the one conclusive verdict a UB-only member may
// produce.
func TestSatisfiableWitnessOnObjectiveFree(t *testing.T) {
	p := parse(t, "+1 a +1 b >= 1 ;\n+2 a +1 c >= 2 ;")
	aud := audit.New(p)
	res := Solve(p, Options{Seed: 1, MaxFlips: 10_000, Audit: aud})
	if !res.Satisfiable || !res.HasSolution {
		t.Fatalf("satisfiable instance: %+v", res)
	}
	checkSolution(t, p, res)
	if rep := aud.Snapshot(); !rep.Ok() {
		t.Fatalf("audit: %v", rep.Violations)
	}
}

// TestUnsatMakesNoClaim: on infeasible instances the worker finds nothing and
// claims nothing — Result has no UNSAT verdict to fake, and the auditor sees
// no termination claim at all.
func TestUnsatMakesNoClaim(t *testing.T) {
	p := parse(t, "min: +1 a ;\n+1 a >= 1 ;\n+1 ~a >= 1 ;")
	aud := audit.New(p)
	res := Solve(p, Options{Seed: 1, MaxFlips: 5_000, Audit: aud})
	if res.HasSolution || res.Satisfiable {
		t.Fatalf("claimed a solution on an UNSAT instance: %+v", res)
	}
	if rep := aud.Snapshot(); !rep.Ok() {
		t.Fatalf("audit: %v", rep.Violations)
	}
}

// recPool is a fake board recording everything the worker publishes.
type recPool struct {
	mu    sync.Mutex
	costs []int64
	vals  [][]bool
	// imp, when non-nil, is served by BestIncumbent with impCost.
	imp     []bool
	impCost int64
}

func (r *recPool) PublishIncumbent(cost int64, values []bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.costs = append(r.costs, cost)
	r.vals = append(r.vals, append([]bool(nil), values...))
	return true
}

func (r *recPool) BestUB() (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.imp == nil {
		return 0, false
	}
	return r.impCost, true
}

func (r *recPool) BestIncumbent(below int64) (int64, []bool, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.imp == nil || r.impCost >= below {
		return 0, nil, false
	}
	return r.impCost, append([]bool(nil), r.imp...), true
}

// TestRestartImportsBoardIncumbent drives the restart path directly: a
// board incumbent strictly better than the solver's best is adopted and the
// incremental state stays exact; a malformed entry falls back to
// perturbation without tearing.
func TestRestartImportsBoardIncumbent(t *testing.T) {
	p := parse(t, "min: +2 a +1 b +1 c ;\n+1 a >= 1 ;\n+1 a +1 b +1 c >= 2 ;")
	// Optimum: a=1, one of b/c=1 → internal cost 3.
	pool := &recPool{imp: []bool{true, true, false}, impCost: 3}
	s := newSolver(p, Options{Seed: 2, Share: pool})
	s.restart()
	if s.stats.BoardImports != 1 {
		t.Fatalf("imports=%d want 1", s.stats.BoardImports)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("state torn after import: %v", err)
	}
	if !reflect.DeepEqual(s.values, pool.imp) {
		t.Fatalf("assignment %v not adopted from the board's %v", s.values, pool.imp)
	}

	// Malformed (wrong-length) board entry: no tear, perturb fallback.
	bad := &recPool{imp: []bool{true}, impCost: 1}
	s2 := newSolver(p, Options{Seed: 3, Share: bad})
	s2.restart()
	if err := s2.CheckInvariants(); err != nil {
		t.Fatalf("malformed import tore the state: %v", err)
	}
}

// TestBoardScrambleDuringRestarts is the -race pin for the restart-import
// path (mirrors TestImportClauseInternsLiterals for clause imports): a
// scrambler goroutine floods a real share.Board with ever-better garbage
// incumbents while the worker restarts every 64 flips. The worker may adopt
// any of them as restart points, but every incumbent it records (the
// auditor replays each one) and its final result must stay verified, and
// its incremental state exact.
func TestBoardScrambleDuringRestarts(t *testing.T) {
	// A cycle of ten pairwise covers: optimum 5, so the search never
	// reaches the cost-0 floor and stops on its own.
	p := pb.NewProblem(10)
	for v := 0; v < 10; v++ {
		p.SetCost(pb.Var(v), int64(1+v%3))
		_ = p.AddClause(pb.PosLit(pb.Var(v)), pb.PosLit(pb.Var((v+1)%10)))
	}
	board := share.NewBoard()
	worker := board.JoinNoClauses("ls")
	scrambler := board.Join("scrambler")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		cost := int64(1 << 40) // descending garbage: each accepted, then beaten
		for {
			select {
			case <-stop:
				return
			default:
			}
			vals := make([]bool, p.NumVars)
			for v := range vals {
				vals[v] = rng.Intn(2) == 0
			}
			scrambler.PublishIncumbent(cost, vals)
			cost--
		}
	}()

	aud := audit.New(p)
	s := newSolver(p, Options{Seed: 4, Share: worker, Audit: aud})
	for s.stats.Flips < 200_000 {
		flips := s.stats.Flips
		s.opt.MaxFlips = flips + 64
		s.run()
		if s.stats.Flips == flips {
			break // nothing left to improve on
		}
		s.restart()
	}
	close(stop)
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("state torn under board scramble: %v", err)
	}
	res := s.finish()
	checkSolution(t, p, res)
	if s.stats.Restarts < 1000 {
		t.Fatalf("%d restarts in %d flips; the check needs the restart path", s.stats.Restarts, s.stats.Flips)
	}
	if rep := aud.Snapshot(); !rep.Ok() {
		t.Fatalf("audit under board scramble: %v", rep.Violations)
	}
}

// TestCancelStopsTheRun: Options.Cancel ends an unbounded run promptly.
func TestCancelStopsTheRun(t *testing.T) {
	p := randomPBO(rand.New(rand.NewSource(3)), 10, 8)
	cancel := make(chan struct{})
	done := make(chan Result, 1)
	go func() { done <- Solve(p, Options{Seed: 1, Cancel: cancel}) }()
	close(cancel)
	select {
	case res := <-done:
		checkSolution(t, p, res)
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not stop the run")
	}
}
