package bounds

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestBudgetInterruptDetectionLag pins the worst-case detection lag of the
// Budget's Interrupt signal at zero calls: the amortized poll stride used to
// delay a foreign-incumbent interrupt by up to stride−1 Expired calls (the
// signal was only consulted on every 8th call), so a member could keep
// grinding a bound estimation for 7 more subgradient iterations after the
// target it was chasing had already dropped. Interrupt must now be observed
// on the very next Expired call after it starts firing.
func TestBudgetInterruptDetectionLag(t *testing.T) {
	for _, armAfter := range []int{0, 1, 2, 7, 8, 9, 100} {
		calls := 0
		fired := false
		bud := Budget{Interrupt: func() bool {
			fired = calls >= armAfter
			return fired
		}}
		detected := -1
		for i := 0; i < armAfter+2; i++ {
			calls = i
			if bud.Expired() {
				detected = i
				break
			}
		}
		if detected != armAfter {
			t.Fatalf("armAfter=%d: interrupt detected at call %d, want %d (zero lag)",
				armAfter, detected, armAfter)
		}
		// Sticky after detection, without re-consulting the signal.
		fired = false
		if !bud.Expired() {
			t.Fatalf("armAfter=%d: expired verdict not sticky", armAfter)
		}
	}
}

// TestBudgetCancelDetectionLag pins the same zero-call lag for the Cancel
// channel: the first Expired call after the channel closes must report
// expiry, regardless of how many calls the amortized clock stride already
// consumed.
func TestBudgetCancelDetectionLag(t *testing.T) {
	cancel := make(chan struct{})
	bud := Budget{Cancel: cancel, Deadline: time.Now().Add(time.Hour)}
	// Burn an arbitrary, non-stride-aligned number of calls first.
	for i := 0; i < 13; i++ {
		if bud.Expired() {
			t.Fatalf("call %d: expired before cancellation", i)
		}
	}
	close(cancel)
	if !bud.Expired() {
		t.Fatal("first Expired call after close(cancel) must report expiry")
	}
	if !bud.Expired() {
		t.Fatal("expired verdict must be sticky")
	}
}

// TestBudgetDeadlineStillAmortized documents the surviving amortization: a
// passed deadline (with no Interrupt/Cancel armed) is detected within one
// full poll stride, and the verdict latches.
func TestBudgetDeadlineStillAmortized(t *testing.T) {
	bud := Budget{Deadline: time.Now().Add(-time.Second)}
	detected := -1
	for i := 0; i < budgetPollStride+1; i++ {
		if bud.Expired() {
			detected = i
			break
		}
	}
	if detected < 0 {
		t.Fatalf("passed deadline not detected within %d calls", budgetPollStride+1)
	}
	if !bud.Expired() {
		t.Fatal("deadline expiry must be sticky")
	}
}

// TestBudgetZeroValueNeverExpires guards the zero-cost default: a Budget
// with no deadline, no cancel channel and no interrupt never expires and
// never consults the clock.
func TestBudgetZeroValueNeverExpires(t *testing.T) {
	var bud Budget
	for i := 0; i < 64; i++ {
		if bud.Expired() {
			t.Fatal("zero-value budget expired")
		}
	}
}

func TestStatsClone(t *testing.T) {
	var s obs.BoundsStats
	s.Reduces = 3
	Record(&s, "lpr", Result{Bound: 5}, time.Millisecond, false)
	cl := s.Clone()
	Record(&s, "lpr", Result{Bound: 7}, time.Millisecond, false)
	Record(&s, "mis", Result{Bound: 1}, time.Millisecond, false)
	if got := cl.Per["lpr"].Calls; got != 1 {
		t.Fatalf("clone shares ProcStats with original: calls=%d want 1", got)
	}
	if _, ok := cl.Per["mis"]; ok {
		t.Fatal("clone shares Per map with original")
	}
	if cl.Reduces != 3 {
		t.Fatal("scalar fields not copied")
	}
}
