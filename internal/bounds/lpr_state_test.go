package bounds

import (
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/pb"
)

// lprNode decides a few literals on a mid-size covering instance so the
// reduced problem at the node has both assigned and free variables.
func lprNode(t *testing.T) (*engine.Engine, *pb.Problem) {
	t.Helper()
	p := benchProblem(60, 120, 5)
	e := engine.New(p)
	if e.SeedUnits() < 0 || e.Propagate() >= 0 {
		t.Fatal("instance conflicts at the root")
	}
	for _, v := range []pb.Var{3, 11, 17} {
		e.Decide(pb.MkLit(v, false))
		if e.Propagate() >= 0 {
			t.Fatal("instance conflicts on the test path")
		}
	}
	return e, p
}

// TestLPREstimateSteadyStateAllocs pins the buffer ownership of LPRState: a
// warm estimation at an unchanged node allocates only what its Result
// returns — the LP solution block it reads the bound from, the Responsible
// slice and the FracX slice — and nothing for the x-space problem, the dual
// LP, the warm keys or the simplex.
func TestLPREstimateSteadyStateAllocs(t *testing.T) {
	e, p := lprNode(t)
	red := Extract(e)
	l := LPR{State: &LPRState{}}
	first := l.Estimate(e, red, p.Cost, InfBound, Budget{})
	if first.Failed || first.FracX == nil || len(first.Responsible) == 0 {
		t.Fatalf("node estimate unusable: %+v", first)
	}
	l.Estimate(e, red, p.Cost, InfBound, Budget{})
	if l.State.WarmSolves() == 0 {
		t.Fatal("re-estimation at the same node did not solve warm")
	}
	const lpBlock, responsible, frac = 1, 1, 1
	got := testing.AllocsPerRun(10, func() {
		l.Estimate(e, red, p.Cost, InfBound, Budget{})
	})
	if want := float64(lpBlock + responsible + frac); got > want {
		t.Fatalf("steady-state LPR estimate allocates %.0f times, want at most %.0f (LP solution %d + Responsible %d + FracX %d)",
			got, want, lpBlock, responsible, frac)
	}
}

// TestLPRResultOutlivesNextEstimate checks that nothing in a Result aliases
// the buffers LPRState reuses: an estimate taken at one node must read the
// same after the state has served an estimate at another node.
func TestLPRResultOutlivesNextEstimate(t *testing.T) {
	e, p := lprNode(t)
	l := LPR{State: &LPRState{}}
	res := l.Estimate(e, Extract(e), p.Cost, InfBound, Budget{})
	resp := slices.Clone(res.Responsible)
	frac := slices.Clone(res.FracX)

	e.BacktrackTo(1)
	e.Decide(pb.MkLit(29, true))
	if e.Propagate() >= 0 {
		t.Fatal("instance conflicts on the second path")
	}
	other := l.Estimate(e, Extract(e), p.Cost, InfBound, Budget{})
	if other.Failed {
		t.Fatal("second estimate failed")
	}
	if !slices.Equal(res.Responsible, resp) || !slices.Equal(res.FracX, frac) {
		t.Fatal("a Result changed when the state served the next estimate")
	}
}

// TestLPRReleasedBuffersAreReused pins the buffer pool: after one state has
// solved a node and released its buffers, a new state's first estimation —
// a cold solve, as the root of the next search is — takes its tableau rows,
// x-space problem and dual LP from the pool, and allocates only the state
// itself and what its Result returns.
func TestLPRReleasedBuffersAreReused(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	e, p := lprNode(t)
	red := Extract(e)
	solve := func() Result {
		st := &LPRState{}
		res := LPR{State: st}.Estimate(e, red, p.Cost, InfBound, Budget{})
		st.Release()
		if st.ColdSolves() != 1 {
			t.Fatalf("a new state's first estimation solved %d times cold, want once", st.ColdSolves())
		}
		return res
	}
	if res := solve(); res.Failed || res.FracX == nil || len(res.Responsible) == 0 {
		t.Fatalf("node estimate unusable: %+v", res)
	}
	const state, lpBlock, responsible, frac = 1, 1, 1, 1
	got := testing.AllocsPerRun(10, func() { solve() })
	if want := float64(state + lpBlock + responsible + frac); got > want {
		t.Fatalf("an estimation in released buffers allocates %.0f times, want at most %.0f (state %d + LP solution %d + Responsible %d + FracX %d): fresh buffers cost a tableau row per LP row",
			got, want, state, lpBlock, responsible, frac)
	}
}
