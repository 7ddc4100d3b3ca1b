package bounds

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/opb"
	"repro/internal/pb"
)

// requireReducedEqual asserts that the incrementally-maintained reduction is
// bit-identical to a fresh Extract on the same engine state: same rows in the
// same order, same residual degrees, same clipped coefficients, same
// infeasibility verdict.
func requireReducedEqual(t *testing.T, step string, got, want *Reduced) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: row count mismatch: reducer=%d extract=%d", step, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		g, w := &got.Rows[i], &want.Rows[i]
		if g.EngIdx != w.EngIdx || g.Degree != w.Degree {
			t.Fatalf("%s: row %d header mismatch: reducer={idx=%d deg=%d} extract={idx=%d deg=%d}",
				step, i, g.EngIdx, g.Degree, w.EngIdx, w.Degree)
		}
		if len(g.Terms) != len(w.Terms) {
			t.Fatalf("%s: row %d (cons %d) term count mismatch: reducer=%d extract=%d",
				step, i, w.EngIdx, len(g.Terms), len(w.Terms))
		}
		if (g.Terms == nil) != (w.Terms == nil) {
			t.Fatalf("%s: row %d (cons %d) nil-vs-empty Terms mismatch", step, i, w.EngIdx)
		}
		for k := range w.Terms {
			if g.Terms[k] != w.Terms[k] {
				t.Fatalf("%s: row %d (cons %d) term %d mismatch: reducer=%+v extract=%+v",
					step, i, w.EngIdx, k, g.Terms[k], w.Terms[k])
			}
		}
	}
	if got.Infeasible != want.Infeasible || (want.Infeasible && got.InfeasibleRow != want.InfeasibleRow) {
		t.Fatalf("%s: infeasibility mismatch: reducer={%v row=%d} extract={%v row=%d}",
			step, got.Infeasible, got.InfeasibleRow, want.Infeasible, want.InfeasibleRow)
	}
}

// checkNode compares the Reducer against Extract at the current engine state
// and verifies the active-set size invariant.
func checkNode(t *testing.T, step string, e *engine.Engine, r *Reducer) {
	t.Helper()
	if r.ActiveCount() != e.NumUnsatisfied() {
		t.Fatalf("%s: active-set drift: reducer=%d engine=%d", step, r.ActiveCount(), e.NumUnsatisfied())
	}
	requireReducedEqual(t, step, r.Reduce(), Extract(e))
}

// TestReducerMatchesExtractDifferential drives a real engine through a
// simulated CDCL-style search — decisions, propagation, conflict analysis
// with clause learning, non-trivial backjumps, full restarts, and learned-DB
// reduction — and asserts after every transition that Reducer.Reduce() is
// bit-identical to a fresh Extract and that the tracked active set agrees
// with the engine's own unsatisfied count. The inputs are random problems
// and the committed fuzz reproducers (testdata/fuzz-corpus/*.opb): the
// search reduces only through the Reducer, so this is where Extract, the
// reference, still checks it.
func TestReducerMatchesExtractDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9001))
	for iter := 0; iter < 120; iter++ {
		walkReducer(t, randomProblem(rng, 8+rng.Intn(18)), rng)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "fuzz-corpus", "*.opb"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus found: %v", err)
	}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := opb.ParseString(string(text))
		if err != nil {
			continue // a reproducer of a rejected input: nothing to search
		}
		for walk := 0; walk < 4; walk++ {
			walkReducer(t, p, rng)
		}
	}
}

// walkReducer runs one simulated search on p, comparing the Reducer with
// Extract after every transition.
func walkReducer(t *testing.T, p *pb.Problem, rng *rand.Rand) {
	t.Helper()
	e := engine.New(p)
	r := NewReducer(e)
	defer r.Detach()

	if e.SeedUnits() < 0 {
		return // root infeasible before any propagation
	}
	if ci := e.Propagate(); ci >= 0 {
		checkNode(t, "root conflict", e, r)
		return
	}
	checkNode(t, "root", e, r)

	for step := 0; step < 60; step++ {
		switch op := rng.Intn(10); {
		case op < 6: // decide + propagate (possibly learning on conflict)
			v := e.PickBranchVar()
			if v < 0 {
				// fully assigned: restart to keep exercising transitions
				e.BacktrackTo(0)
				checkNode(t, "restart-after-full", e, r)
				continue
			}
			e.Decide(pb.MkLit(v, rng.Intn(2) == 0))
			ci := e.Propagate()
			checkNode(t, "decide", e, r)
			for ci >= 0 {
				if e.DecisionLevel() == 0 {
					break
				}
				res := e.AnalyzeConstraint(ci)
				if res.Unsat {
					break
				}
				if e.LearnAndBackjump(res) < 0 {
					break
				}
				ci = e.Propagate()
				checkNode(t, "learn+backjump", e, r)
			}
			if ci >= 0 && e.DecisionLevel() == 0 {
				return // proven infeasible
			}
		case op < 8: // random backjump
			if lvl := e.DecisionLevel(); lvl > 0 {
				e.BacktrackTo(rng.Intn(lvl))
				checkNode(t, "backjump", e, r)
			}
		case op < 9: // full restart
			e.BacktrackTo(0)
			checkNode(t, "restart", e, r)
		default: // learned-DB reduction
			e.ReduceDB()
			checkNode(t, "reducedb", e, r)
		}
	}
}

// TestReducerSurvivesDirectLearnedAdds checks constraints appended outside
// conflict analysis (the incumbent-cut / cardinality-cut route in core):
// learned constraints must never enter the reduced problem.
func TestReducerSurvivesDirectLearnedAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for iter := 0; iter < 40; iter++ {
		n := 6 + rng.Intn(10)
		p := randomProblem(rng, n)
		e := engine.New(p)
		r := NewReducer(e)
		if !decideRandom(e, rng, 1+rng.Intn(3)) {
			continue
		}
		// Learned add (like an incumbent cut): must not appear in the rows.
		terms := []pb.Term{
			{Coef: 1, Lit: pb.MkLit(pb.Var(rng.Intn(n)), false)},
			{Coef: 1, Lit: pb.MkLit(pb.Var(rng.Intn(n)), true)},
		}
		learnedIdx := e.AddCons(terms, 1)
		checkNode(t, "learned add", e, r)
		for _, row := range r.Reduce().Rows {
			if row.EngIdx == learnedIdx {
				t.Fatalf("iter %d: learned constraint %d leaked into reduction", iter, learnedIdx)
			}
		}
		e.BacktrackTo(0)
		checkNode(t, "post-add restart", e, r)
		r.Detach()
	}
}
