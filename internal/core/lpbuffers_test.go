package core_test

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
)

// rowOutcome is what a solve must reproduce whichever LP buffers it ran in.
type rowOutcome struct {
	status                             core.Status
	best                               int64
	decisions, conflicts, propagations int64
}

func outcome(res core.Result) rowOutcome {
	return rowOutcome{res.Status, res.Best, res.Stats.Decisions, res.Stats.Conflicts, res.Stats.Propagations}
}

// table1Rows returns the 40 Table 1 rows and the default bsolo-LPR options
// BenchmarkRootClose solves them with.
func table1Rows(t *testing.T) ([]harness.Instance, core.Options) {
	t.Helper()
	insts, err := harness.Instances(harness.Families(), harness.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	return insts, core.Options{LowerBound: core.LBLPR, CardinalityInference: true, MaxConflicts: 300}
}

// TestPooledLPBuffersKeepResults solves the Table 1 rows forward, then in
// reverse order: every LPR solve borrows the LP buffers the previous solve
// (a row of another size) released, and each row must come out the same
// both times.
func TestPooledLPBuffersKeepResults(t *testing.T) {
	insts, opt := table1Rows(t)
	forward := make([]rowOutcome, len(insts))
	for i, inst := range insts {
		forward[i] = outcome(core.Solve(inst.Prob, opt))
	}
	for i := len(insts) - 1; i >= 0; i-- {
		if got := outcome(core.Solve(insts[i].Prob, opt)); got != forward[i] {
			t.Errorf("%s: reverse pass %+v, forward pass %+v", insts[i].Name, got, forward[i])
		}
	}
}

// TestLPPanicLeavesLaterSolvesUnchanged stops LP solves mid-pivot: with a
// panic armed at every 7th simplex pivot, the estimations of a pass over the
// Table 1 rows fail part-way through, the state solves again in the buffers
// the panics left behind, and every solve gives them back to the pool. A
// pass without the fault must then reproduce every row of the pass before
// it.
func TestLPPanicLeavesLaterSolvesUnchanged(t *testing.T) {
	defer fault.Reset()
	insts, opt := table1Rows(t)
	want := make([]rowOutcome, len(insts))
	for i, inst := range insts {
		want[i] = outcome(core.Solve(inst.Prob, opt))
	}
	fault.Arm("lp.pivot", fault.Spec{Kind: fault.KindPanic, Every: 7})
	var panics int64
	for _, inst := range insts {
		panics += core.Solve(inst.Prob, opt).Stats.BoundPanics
	}
	fault.Reset()
	if panics == 0 {
		t.Fatal("no LP solve panicked: the test exercised nothing")
	}
	for i, inst := range insts {
		if got := outcome(core.Solve(inst.Prob, opt)); got != want[i] {
			t.Errorf("%s: after the panics %+v, before %+v", inst.Name, got, want[i])
		}
	}
}

// TestConcurrentSolvesShareTheLPPool runs LPR solves in two goroutines at
// once, each taking LP buffers from the shared pool and releasing them at
// the end of every solve, and requires every row to reproduce its
// sequential outcome. Run under -race (make race-pkgs), it also checks that
// a released buffer is never touched by the solve that gave it back.
func TestConcurrentSolvesShareTheLPPool(t *testing.T) {
	insts, opt := table1Rows(t)
	insts = insts[:len(insts)/2]
	want := make([]rowOutcome, len(insts))
	for i, inst := range insts {
		want[i] = outcome(core.Solve(inst.Prob, opt))
	}
	order := make([]int, len(insts))
	for i := range order {
		order[i] = i
	}
	var wg sync.WaitGroup
	got := [2][]rowOutcome{make([]rowOutcome, len(insts)), make([]rowOutcome, len(insts))}
	for g := range got {
		seq := slices.Clone(order)
		if g == 1 {
			slices.Reverse(seq)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range seq {
				got[g][i] = outcome(core.Solve(insts[i].Prob, opt))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i := range insts {
			if got[g][i] != want[i] {
				t.Errorf("goroutine %d, %s: %+v, sequential %+v", g, insts[i].Name, got[g][i], want[i])
			}
		}
	}
}
