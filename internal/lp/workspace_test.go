package lp

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/fault"
)

// solveStep is one call of the reuse test's walk: the problem and keys plus
// the fault (if any) armed for that call alone.
type solveStep struct {
	p        *Problem
	vk, rk   []int64
	faultAt  string
	wantKind string // the outcome the step exists to force, for the coverage check
}

// reuseWalk extends the lprNodeSequence chain with calls that end in every
// outcome a re-solve can have: a pivot corrupted to NaN (Numerical), a
// corrupted crash, renumbered keys (cold fallback), an iteration cap
// (IterLimit) and an unsatisfiable row (Infeasible through phase 1).
func reuseWalk() []solveStep {
	probs, vks, rks := lprNodeSequence(5, 12, 18, 40)
	var steps []solveStep
	for k, p := range probs {
		st := solveStep{p: p, vk: vks[k], rk: rks[k]}
		// Same problem under keys no basis has seen: the crash declines.
		alien := make([]int64, len(rks[k]))
		for i := range alien {
			alien[i] = rks[k][i] + 1<<40
		}
		switch k % 8 {
		case 2:
			// A cold solve always pivots, so the corrupted pivot surfaces.
			st.rk, st.faultAt, st.wantKind = alien, "lp.pivot", "numerical"
		case 4:
			st.faultAt = "lp.warmcrash"
		case 5:
			st.rk, st.wantKind = alien, "cold"
		case 6:
			q := *p
			q.MaxIter = 1
			st.p, st.wantKind = &q, "iterlimit"
		case 7:
			// −y_0 ≥ 1 has no solution with y_0 ≥ 0.
			q := *p
			q.Rows = append(append([]Row(nil), p.Rows...), Row{Entries: []Entry{{Var: 0, Coef: -1}}, RHS: 1})
			st.rk = append(append([]int64(nil), rks[k]...), 1<<41)
			st.p, st.wantKind = &q, "infeasible"
		}
		steps = append(steps, st)
	}
	return steps
}

func runStep(st solveStep, solve func() Solution) Solution {
	if st.faultAt != "" {
		fault.Arm(st.faultAt, fault.Spec{Kind: fault.KindCorrupt, Every: 1})
		defer fault.Reset()
	}
	return solve()
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestWorkspaceReuseEqualsFresh walks the same chain twice — once through
// one reused Workspace, once through a fresh Workspace per call with the
// basis handed along — and requires bitwise-equal results at every call,
// including after calls that failed (Numerical, cold fallback, IterLimit,
// Infeasible): nothing a call leaves in the buffers may reach the next.
func TestWorkspaceReuseEqualsFresh(t *testing.T) {
	defer fault.Reset()
	steps := reuseWalk()

	var w Workspace
	reused := make([]Solution, len(steps))
	for k, st := range steps {
		reused[k] = runStep(st, func() Solution {
			sol, err := w.SolveWarm(st.p, st.vk, st.rk)
			if err != nil {
				t.Fatal(err)
			}
			return sol
		})
	}

	var bas *basis
	seen := map[string]bool{}
	for k, st := range steps {
		hadBasis := bas != nil
		fresh := runStep(st, func() Solution {
			sol, next, err := solveWarmFrom(st.p, st.vk, st.rk, bas)
			if err != nil {
				t.Fatal(err)
			}
			bas = next
			return sol
		})
		got := reused[k]
		if got.Status != fresh.Status || got.Iterations != fresh.Iterations || got.Warm != fresh.Warm ||
			math.Float64bits(got.Objective) != math.Float64bits(fresh.Objective) ||
			!sameBits(got.X, fresh.X) || !sameBits(got.Dual, fresh.Dual) || !sameBits(got.Slack, fresh.Slack) {
			t.Fatalf("call %d: reused workspace %+v, fresh %+v", k, got, fresh)
		}
		switch {
		case fresh.Status == Numerical:
			seen["numerical"] = true
		case fresh.Status == IterLimit:
			seen["iterlimit"] = true
		case fresh.Status == Infeasible:
			seen["infeasible"] = true
		case hadBasis && !fresh.Warm:
			seen["cold"] = true
		}
	}
	for _, st := range steps {
		if st.wantKind != "" && !seen[st.wantKind] {
			t.Errorf("the walk never produced a %s call", st.wantKind)
		}
	}
}

// TestWorkspaceAfterPanicEqualsFresh interrupts solves mid-pivot: each LP
// of a chain is first solved through one Workspace with a panic armed at
// its 5th pivot, then, the basis dropped as the callers do after a failure,
// solved again through the same Workspace. Every second solve must match a
// solve in fresh buffers bitwise: a panic leaves nothing in the buffers that
// the next reset does not clear.
func TestWorkspaceAfterPanicEqualsFresh(t *testing.T) {
	defer fault.Reset()
	probs := append(fixedCoveringLPs(7, 40, 60, 8), unsortedCoveringLPs(9, 8)...)
	var w Workspace
	panics := 0
	for k, p := range probs {
		fault.Arm("lp.pivot", fault.Spec{Kind: fault.KindPanic, Every: 5})
		func() {
			defer func() {
				if r := recover(); r != nil {
					if !fault.IsInjected(r) {
						panic(r)
					}
					panics++
				}
			}()
			w.Solve(p)
		}()
		fault.Reset()
		w.Invalidate()
		got, err := w.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Solve(p)
		if got.Status != want.Status || got.Iterations != want.Iterations ||
			math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
			!sameBits(got.X, want.X) || !sameBits(got.Dual, want.Dual) || !sameBits(got.Slack, want.Slack) {
			t.Fatalf("LP %d: after a panicked solve %+v, fresh %+v", k, got, want)
		}
	}
	if panics != len(probs) {
		t.Fatalf("%d of %d solves panicked, want every one", panics, len(probs))
	}
}

// TestWorkspaceWarmResolveAllocs pins the steady state of the warm path:
// once a Workspace's buffers have grown to the chain's largest problem, a
// re-solve allocates only the one block its Solution's X, Slack and Dual
// are carved from.
func TestWorkspaceWarmResolveAllocs(t *testing.T) {
	probs, vks, rks := lprNodeSequence(21, 40, 60, 30)
	var w Workspace
	walk := func() {
		for k, p := range probs {
			sol, err := w.SolveWarm(p, vks[k], rks[k])
			if err != nil || sol.Status != Optimal {
				t.Fatalf("step %d: status=%v err=%v", k, sol.Status, err)
			}
		}
	}
	walk()
	if !w.HasBasis() {
		t.Fatal("no basis stored after the walk")
	}
	allocs := testing.AllocsPerRun(5, walk)
	if allocs > float64(len(probs)) {
		t.Fatalf("warm re-solve walk allocated %.0f times for %d solves; want at most one per solve", allocs, len(probs))
	}

	// The widening chain: 100 calls that each add a column, as cut
	// installation does. Buffers regrow with headroom, so past the first
	// solve the walk allocates one block per solve plus O(log) regrowths
	// per buffer — not a new tableau on every call.
	gp, gvk, grk := lprGrowingSequence(11, 20, 30, 100)
	var g Workspace
	if _, err := g.SolveWarm(gp[0], gvk[0], grk[0]); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 1; k < len(gp); k++ {
		sol, err := g.SolveWarm(gp[k], gvk[k], grk[k])
		if err != nil || sol.Status != Optimal {
			t.Fatalf("widening step %d: status=%v err=%v", k, sol.Status, err)
		}
	}
	runtime.ReadMemStats(&after)
	calls := len(gp) - 1
	regrowths := int(after.Mallocs-before.Mallocs) - calls
	// Each tableau row and its pattern, plus a generous count of the other
	// per-solve buffers, may regrow once per factor 1.5 of width.
	first := gp[0].NumVars + 2*len(gp[0].Rows)
	last := gp[calls].NumVars + 2*len(gp[calls].Rows)
	perBuffer := int(math.Ceil(math.Log(float64(last)/float64(first))/math.Log(1.5))) + 1
	if limit := (2*len(gp[0].Rows) + 32) * perBuffer; regrowths > limit {
		t.Fatalf("widening chain: %d allocations beyond one per solve over %d calls; want at most %d (O(log) regrowths per buffer)",
			regrowths, calls, limit)
	}
}

// TestWorkspaceRowCountChanges walks one Workspace through problems whose
// row and column counts rise and fall — the tableau's row buffers are
// regrown, parked beyond the current row count and reused — and requires
// every result to be bitwise what a fresh Workspace returns.
func TestWorkspaceRowCountChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var w Workspace
	for k, m := range []int{3, 9, 2, 30, 31, 64, 5, 70, 12, 141, 1, 90} {
		p := coveringLP(rng, 10+m%17, m)
		got, err := w.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || got.Iterations != want.Iterations ||
			math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
			!sameBits(got.X, want.X) || !sameBits(got.Dual, want.Dual) || !sameBits(got.Slack, want.Slack) {
			t.Fatalf("problem %d (%d rows): reused workspace %+v, fresh %+v", k, m, got, want)
		}
	}
}
