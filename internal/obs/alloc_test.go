// Allocation-regression tests for the data-oriented engine core. The
// struct-of-arrays refactor's contract is that steady-state search does not
// allocate: one propagation wave (decide, CSR counter propagation, batched
// delta flush, backtrack, flush again) and an incremental Reducer.Reduce
// both run entirely out of reusable buffers once warm. These tests pin that
// contract with testing.AllocsPerRun so a stray closure, interface boxing,
// or buffer regrowth on the hot path fails CI rather than silently taxing
// every search node. The escape-check Makefile target is the compile-time
// twin of this runtime guarantee.
//
// They live in obs (as package obs_test) with the rest of the perf-
// observability surface: bench snapshots watch wall-clock trajectories,
// these watch the allocation trajectory.
package obs_test

import (
	"testing"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/pb"
)

// waveProblem builds a small implication chain overlaid with clauses and
// cardinality windows, so one decision cascades through every variable and
// touches several occurrence rows per assignment (the same shape as the
// engine's PropagateWave benchmarks, scaled down for test time).
func waveProblem(n int) *pb.Problem {
	p := pb.NewProblem(n)
	for v := 0; v < n-1; v++ {
		_ = p.AddConstraint([]pb.Term{
			{Coef: 2, Lit: pb.NegLit(pb.Var(v))},
			{Coef: 3, Lit: pb.PosLit(pb.Var(v + 1))},
		}, pb.GE, 3)
	}
	for v := 0; v+5 < n; v++ {
		_ = p.AddClause(pb.PosLit(pb.Var(v)), pb.NegLit(pb.Var(v+2)), pb.PosLit(pb.Var(v+5)))
	}
	for v := 0; v+8 <= n; v += 2 {
		terms := make([]pb.Term, 8)
		for k := range terms {
			terms[k] = pb.Term{Coef: 1, Lit: pb.PosLit(pb.Var(v + k))}
		}
		_ = p.AddConstraint(terms, pb.GE, 1)
	}
	return p
}

// countWatcher is the cheapest possible ConsWatcher: the test measures the
// engine's side of the batched-delta contract, not a consumer's.
type countWatcher struct{ sat, unsat int }

func (w *countWatcher) ConsWave(satisfied, unsatisfied []int32) {
	w.sat += len(satisfied)
	w.unsat += len(unsatisfied)
}

// TestPropagationWaveAllocFree pins 0 allocs/op on the full wave path with a
// watcher attached: Decide → Propagate → FlushConsDeltas → BacktrackTo →
// FlushConsDeltas. The trail, dirty list, scratch buffers and VSIDS heap all
// reach steady-state capacity during warm-up; after that, a search node must
// not touch the allocator.
func TestPropagationWaveAllocFree(t *testing.T) {
	const n = 200
	e := engine.New(waveProblem(n))
	w := &countWatcher{}
	e.SetConsWatcher(w)

	wave := func() {
		e.Decide(pb.PosLit(0))
		if confl := e.Propagate(); confl >= 0 {
			t.Fatal("unexpected conflict in wave workload")
		}
		e.FlushConsDeltas()
		e.BacktrackTo(0)
		e.FlushConsDeltas()
	}
	for i := 0; i < 3; i++ { // grow every reusable buffer to capacity
		wave()
	}
	if allocs := testing.AllocsPerRun(50, wave); allocs != 0 {
		t.Fatalf("propagation wave allocated %.1f times per op; want 0 (hot-path regression)", allocs)
	}
	if w.sat == 0 || w.unsat == 0 {
		t.Fatalf("watcher saw no transitions (sat=%d unsat=%d); wave workload is not exercising the delta path", w.sat, w.unsat)
	}
}

// TestReducerReduceAllocFree pins 0 allocs/op on the incremental reduced-
// problem build: once the Reducer's term arena and row spans have grown to
// the problem's size, Reduce at alternating trail states (root and one
// propagated decision deep) must be allocation-free — that is the payoff of
// maintaining the active set from batched trail deltas instead of
// re-extracting per node.
func TestReducerReduceAllocFree(t *testing.T) {
	const n = 200
	e := engine.New(waveProblem(n))
	r := bounds.NewReducer(e)

	cycle := func() {
		if red := r.Reduce(); red == nil {
			t.Fatal("nil reduction at root")
		}
		e.Decide(pb.PosLit(0))
		if confl := e.Propagate(); confl >= 0 {
			t.Fatal("unexpected conflict in wave workload")
		}
		if red := r.Reduce(); red == nil {
			t.Fatal("nil reduction after propagation")
		}
		e.BacktrackTo(0)
	}
	for i := 0; i < 3; i++ { // grow arena, row spans, active set, scratch
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("Reducer.Reduce allocated %.1f times per op; want 0 (arena regression)", allocs)
	}
}
