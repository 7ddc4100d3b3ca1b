package core

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/pb"
)

// TestTracingIsBehaviorNeutral is the tracer on/off differential: the same
// instances solved with and without a tracer attached must produce the
// identical verdict and optimum (tracing is pure observation and must never
// perturb the search), and the traced runs must record a well-formed
// lifecycle (solve_start first, solve_end last, bound events between).
func TestTracingIsBehaviorNeutral(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 40; iter++ {
		p := randomPBO(rng, 2+rng.Intn(8), 1+rng.Intn(9))
		for _, lb := range []Method{LBNone, LBMIS, LBLGR, LBLPR} {
			base := Solve(p, Options{LowerBound: lb})

			tr := obs.NewTracer(1 << 12)
			traced := Solve(p, Options{LowerBound: lb, Trace: tr.Named("t")})

			if base.Status != traced.Status || base.HasSolution != traced.HasSolution {
				t.Fatalf("iter %d lb=%v: tracing changed verdict: %v/%v vs %v/%v",
					iter, lb, base.Status, base.HasSolution, traced.Status, traced.HasSolution)
			}
			if base.HasSolution && base.Best != traced.Best {
				t.Fatalf("iter %d lb=%v: tracing changed optimum: %d vs %d",
					iter, lb, base.Best, traced.Best)
			}
			if base.Stats.Decisions != traced.Stats.Decisions ||
				base.Stats.Conflicts != traced.Stats.Conflicts ||
				base.Stats.BoundConflicts != traced.Stats.BoundConflicts {
				t.Fatalf("iter %d lb=%v: tracing perturbed the search: %+v vs %+v",
					iter, lb, base.Stats, traced.Stats)
			}

			events := tr.Snapshot()
			if len(events) < 2 {
				t.Fatalf("iter %d lb=%v: only %d events traced", iter, lb, len(events))
			}
			if events[0].Kind != obs.EvSolveStart {
				t.Fatalf("iter %d lb=%v: first event %v, want solve_start", iter, lb, events[0].Kind)
			}
			if last := events[len(events)-1]; last.Kind != obs.EvSolveEnd {
				t.Fatalf("iter %d lb=%v: last event %v, want solve_end", iter, lb, last.Kind)
			}
			if lb != LBNone {
				bounds := 0
				for _, ev := range events {
					if ev.Kind == obs.EvBound {
						bounds++
					}
				}
				if int64(bounds) != traced.Stats.BoundCalls {
					t.Fatalf("iter %d lb=%v: %d bound events, stats say %d calls",
						iter, lb, bounds, traced.Stats.BoundCalls)
				}
			}
		}
	}
}

// TestDisabledObservabilityAllocatesNothing pins the zero-cost-when-disabled
// contract on the solver's own hot-path hooks: with a nil tracer every Emit
// the solver issues is one nil check, and with a nil Live handle publishLive
// is a nil check too — neither may allocate.
func TestDisabledObservabilityAllocatesNothing(t *testing.T) {
	var tr *obs.Tracer
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(obs.EvBound, "lpr", 7, 3, "ok")
	}); n != 0 {
		t.Fatalf("nil tracer Emit allocates %.1f/op", n)
	}
	var live *obs.Live
	if n := testing.AllocsPerRun(1000, func() {
		live.Publish(obs.SolverMetrics{})
	}); n != 0 {
		t.Fatalf("nil Live Publish allocates %.1f/op", n)
	}
}

// TestLiveMetricsDuringSolve scrapes the live handle while a single solve
// runs and checks the final publish: the terminal snapshot must carry the
// Result's status, incumbent and counters exactly (satellite 2: stats are
// assembled at one point, so the published block can never disagree with
// the returned Result).
func TestLiveMetricsDuringSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for iter := 0; iter < 20; iter++ {
		p := randomPBO(rng, 3+rng.Intn(8), 2+rng.Intn(8))
		live := &obs.Live{}
		res := Solve(p, Options{LowerBound: LBLPR, Live: live})

		m, ok := live.Load()
		if !ok {
			t.Fatalf("iter %d: no terminal publish", iter)
		}
		if m.Status != res.Status.String() {
			t.Fatalf("iter %d: published status %q, result %q", iter, m.Status, res.Status)
		}
		if res.HasSolution != (m.Best != nil) {
			t.Fatalf("iter %d: incumbent mismatch: hasSolution=%v best=%v", iter, res.HasSolution, m.Best)
		}
		if res.HasSolution && *m.Best != res.Best {
			t.Fatalf("iter %d: published best %d, result %d", iter, *m.Best, res.Best)
		}
		if m.Decisions != res.Stats.Decisions || m.Conflicts != res.Stats.Conflicts ||
			m.BoundCalls != res.Stats.BoundCalls {
			t.Fatalf("iter %d: published counters disagree with Result:\n pub %+v\n res %+v",
				iter, m, res.Stats)
		}
	}
}

// TestCancelStatsConsistency pins the interruption path of satellite 2: a
// solve stopped by Cancel (the CLI's SIGINT route) must still return a
// complete Stats block — the engine counters and the bound-pipeline block
// assembled at the same single point as a clean exit, with the per-estimator
// totals matching the recorded calls.
func TestCancelStatsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	checked := 0
	for iter := 0; iter < 50 && checked < 5; iter++ {
		p := coverPBO(rng, 20+rng.Intn(6), 26+rng.Intn(10))
		cancel := make(chan struct{})
		cancelled := false
		onInc := func(int64) {
			// Cancel as soon as the first incumbent lands: the solve is
			// mid-search with live counters when it unwinds.
			if !cancelled {
				cancelled = true
				close(cancel)
			}
		}
		res := Solve(p, Options{LowerBound: LBMIS, Cancel: cancel, OnIncumbent: onInc})
		if !cancelled || res.Status != StatusLimit {
			continue // root-infeasible or solved before the first incumbent
		}
		checked++
		st := res.Stats
		if st.Decisions == 0 || !res.HasSolution {
			t.Fatalf("iter %d: interrupted solve returned torn stats: decisions=%d hasSolution=%v",
				iter, st.Decisions, res.HasSolution)
		}
		perCalls := st.Bounds.TotalCalls()
		if st.BoundCalls > 0 && perCalls != st.BoundCalls {
			t.Fatalf("iter %d: bound pipeline block inconsistent on the cancel path: calls=%d per-sum=%d",
				iter, st.BoundCalls, perCalls)
		}
	}
	if checked == 0 {
		t.Fatal("no instance exercised the cancel path; enlarge the generator")
	}
}

var _ = pb.Var(0) // keep the import when build tags trim tests
