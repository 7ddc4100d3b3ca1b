package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/pb"
)

// coverPBO builds a feasible min-cost covering instance: every constraint
// demands one or two of a handful of positive literals, so setting all
// variables true satisfies everything and the optimizer has real
// branch-and-bound work to do. randomPBO's uniform instances are mostly
// root-level UNSAT, which never exercises the bound machinery.
func coverPBO(rng *rand.Rand, n, m int) *pb.Problem {
	p := pb.NewProblem(n)
	for v := 0; v < n; v++ {
		p.SetCost(pb.Var(v), int64(1+rng.Intn(9)))
	}
	for i := 0; i < m; i++ {
		nt := 2 + rng.Intn(3)
		seen := make(map[int]bool, nt)
		var terms []pb.Term
		for len(terms) < nt {
			v := rng.Intn(n)
			if seen[v] {
				continue
			}
			seen[v] = true
			terms = append(terms, pb.Term{Coef: 1, Lit: pb.MkLit(pb.Var(v), false)})
		}
		rhs := int64(1)
		if nt > 2 && rng.Intn(3) == 0 {
			rhs = 2
		}
		_ = p.AddConstraint(terms, pb.GE, rhs)
	}
	return p
}

// TestLPRFaultFallbackMatchesUnfaulted is the headline resilience property:
// with the LPR path panicking on roughly 1-in-10 bound calls, the solver
// must return exactly the same answer as the unfaulted run — the MIS
// fallback keeps every node's pruning sound — and the stats must account
// for the recovered panics and fallbacks.
func TestLPRFaultFallbackMatchesUnfaulted(t *testing.T) {
	defer fault.Reset()
	rng := rand.New(rand.NewSource(4242))
	var totalPanics, totalFallbacks int64
	for iter := 0; iter < 40; iter++ {
		var p *pb.Problem
		if iter%2 == 0 {
			p = coverPBO(rng, 10+rng.Intn(6), 12+rng.Intn(10))
		} else {
			p = randomPBO(rng, 4+rng.Intn(9), 3+rng.Intn(12))
		}
		want := pb.BruteForce(p)

		fault.Reset()
		clean := Solve(p, Options{LowerBound: LBLPR})

		fault.Arm("lpr.solve", fault.Spec{Kind: fault.KindPanic, Prob: 0.1, Seed: int64(iter + 1)})
		faulted := Solve(p, Options{LowerBound: LBLPR})
		fault.Reset()

		if faulted.Status != clean.Status {
			t.Fatalf("iter %d: faulted status=%v clean=%v", iter, faulted.Status, clean.Status)
		}
		if want.Feasible {
			if faulted.Status != StatusOptimal {
				t.Fatalf("iter %d: faulted status=%v want optimal", iter, faulted.Status)
			}
			if faulted.Best != want.Optimum || clean.Best != want.Optimum {
				t.Fatalf("iter %d: best faulted=%d clean=%d brute=%d",
					iter, faulted.Best, clean.Best, want.Optimum)
			}
			if !p.Feasible(faulted.Values) {
				t.Fatalf("iter %d: faulted run returned infeasible values", iter)
			}
		} else if faulted.Status != StatusUnsat {
			t.Fatalf("iter %d: faulted status=%v want unsat", iter, faulted.Status)
		}
		if faulted.Stats.BoundPanics != faulted.Stats.BoundFailures {
			t.Fatalf("iter %d: panics=%d failures=%d (all failures here are panics)",
				iter, faulted.Stats.BoundPanics, faulted.Stats.BoundFailures)
		}
		totalPanics += faulted.Stats.BoundPanics
		totalFallbacks += faulted.Stats.BoundFallbacks
	}
	if totalPanics == 0 {
		t.Fatal("fault never fired: the test exercised nothing")
	}
	if totalFallbacks == 0 {
		t.Fatal("no MIS fallbacks recorded despite LPR panics")
	}
}

// TestCircuitBreakerDemotesToMIS arms the LPR path to panic on every call:
// after fallbackAfter consecutive failures the solver must demote to MIS
// outright (BoundDemotions=1), stop paying for the panicking procedure, and
// still prove the same optimum.
func TestCircuitBreakerDemotesToMIS(t *testing.T) {
	defer fault.Reset()
	defer func(old int) { fallbackAfter = old }(fallbackAfter)
	fallbackAfter = 4
	rng := rand.New(rand.NewSource(777))
	demoted := false
	for iter := 0; iter < 30 && !demoted; iter++ {
		p := coverPBO(rng, 12+rng.Intn(5), 14+rng.Intn(10))
		want := pb.BruteForce(p)

		fault.Reset()
		fault.Arm("lpr.solve", fault.Spec{Kind: fault.KindPanic, Every: 1})
		res := Solve(p, Options{LowerBound: LBLPR})
		fault.Reset()

		if want.Feasible {
			if res.Status != StatusOptimal || res.Best != want.Optimum {
				t.Fatalf("iter %d: status=%v best=%d want optimal %d",
					iter, res.Status, res.Best, want.Optimum)
			}
		} else if res.Status != StatusUnsat {
			t.Fatalf("iter %d: status=%v want unsat", iter, res.Status)
		}
		if res.Stats.BoundDemotions > 0 {
			demoted = true
			if res.Stats.BoundPanics < 4 {
				t.Fatalf("demoted after only %d panics (threshold 4)", res.Stats.BoundPanics)
			}
			// After demotion the primary *is* MIS: no further failures
			// should accumulate beyond the breaker window.
			if res.Stats.BoundFailures > res.Stats.BoundPanics {
				t.Fatalf("failures=%d > panics=%d", res.Stats.BoundFailures, res.Stats.BoundPanics)
			}
		}
	}
	if !demoted {
		t.Fatal("no run performed enough bound calls to trip the circuit breaker")
	}
}

// TestNumericCorruptionFallsBack corrupts the simplex pivot with NaN on
// every call: LPR must report a numerical failure (not garbage bounds), and
// the search must still reach the brute-force optimum via the fallback.
func TestNumericCorruptionFallsBack(t *testing.T) {
	defer fault.Reset()
	rng := rand.New(rand.NewSource(909))
	var failures int64
	for iter := 0; iter < 25; iter++ {
		p := randomPBO(rng, 5+rng.Intn(8), 4+rng.Intn(10))
		want := pb.BruteForce(p)

		fault.Reset()
		fault.Arm("lp.pivot", fault.Spec{Kind: fault.KindCorrupt, Every: 1})
		res := Solve(p, Options{LowerBound: LBLPR})
		fault.Reset()

		if want.Feasible {
			if res.Status != StatusOptimal || res.Best != want.Optimum {
				t.Fatalf("iter %d: status=%v best=%d want optimal %d",
					iter, res.Status, res.Best, want.Optimum)
			}
		} else if res.Status != StatusUnsat {
			t.Fatalf("iter %d: status=%v want unsat", iter, res.Status)
		}
		failures += res.Stats.BoundFailures
		if res.Stats.BoundPanics != 0 {
			t.Fatalf("iter %d: corruption should fail soft, got %d panics", iter, res.Stats.BoundPanics)
		}
	}
	if failures == 0 {
		t.Fatal("pivot corruption never surfaced as a bound failure")
	}
}

// TestCancelMidSearchKeepsIncumbent closes Cancel from the OnIncumbent
// callback: the search must unwind with StatusLimit and the incumbent
// intact (feasible, objective matching the reported value).
func TestCancelMidSearchKeepsIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	sawLimit := false
	for iter := 0; iter < 40; iter++ {
		p := coverPBO(rng, 20+rng.Intn(6), 26+rng.Intn(10))
		cancel := make(chan struct{})
		closed := false
		var reported int64
		opt := Options{
			LowerBound: LBMIS,
			Cancel:     cancel,
			OnIncumbent: func(best int64) {
				reported = best
				if !closed {
					closed = true
					close(cancel)
				}
			},
		}
		res := Solve(p, opt)
		switch res.Status {
		case StatusLimit:
			sawLimit = true
			if !res.HasSolution {
				t.Fatalf("iter %d: cancelled after an incumbent but HasSolution=false", iter)
			}
			if !p.Feasible(res.Values) {
				t.Fatalf("iter %d: cancelled incumbent infeasible", iter)
			}
			if got := p.ObjectiveValue(res.Values); got != res.Best {
				t.Fatalf("iter %d: Values objective %d != Best %d", iter, got, res.Best)
			}
			if res.Best > reported {
				t.Fatalf("iter %d: Best %d worse than last reported incumbent %d",
					iter, res.Best, reported)
			}
		case StatusOptimal, StatusUnsat:
			// The search finished before the next budget check — legal.
		default:
			t.Fatalf("iter %d: unexpected status %v", iter, res.Status)
		}
	}
	if !sawLimit {
		t.Fatal("cancellation never interrupted a search; instances too easy")
	}
}

// TestCancelBeforeSolveReturnsQuickly: a Cancel channel closed up front
// stops the search within the first granularity window even with no
// Deadline set.
func TestCancelBeforeSolveReturnsQuickly(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	p := randomPBO(rng, 18, 24)
	cancel := make(chan struct{})
	close(cancel)
	start := time.Now()
	res := Solve(p, Options{LowerBound: LBLPR, Cancel: cancel})
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("pre-cancelled solve ran %v", el)
	}
	if res.Status != StatusLimit && res.Status != StatusOptimal &&
		res.Status != StatusUnsat && res.Status != StatusSatisfiable {
		t.Fatalf("unexpected status %v", res.Status)
	}
}

// TestSafeSolveConvertsPanicToStatusError: a panic escaping the search
// becomes a StatusError result with the stack attached, instead of killing
// the caller.
func TestSafeSolveConvertsPanicToStatusError(t *testing.T) {
	defer fault.Reset()
	rng := rand.New(rand.NewSource(12))
	p := randomPBO(rng, 8, 8)
	fault.Arm("core.solve", fault.Spec{Kind: fault.KindPanic, Every: 1})
	res := SafeSolve(p, Options{LowerBound: LBLPR})
	fault.Reset()
	if res.Status != StatusError {
		t.Fatalf("status=%v want error", res.Status)
	}
	if res.Err == nil {
		t.Fatal("StatusError without Err")
	}
	// And the unfaulted SafeSolve still behaves like Solve.
	res = SafeSolve(p, Options{LowerBound: LBLPR})
	if res.Status == StatusError {
		t.Fatalf("unfaulted SafeSolve errored: %v", res.Err)
	}
}

// TestDeadlineRespectedOnPropagationHeavyRuns: the deadline must hold
// within a small grace window even when individual nodes are expensive
// (bound calls are slowed with an injected delay).
func TestDeadlineRespectedOnPropagationHeavyRuns(t *testing.T) {
	defer fault.Reset()
	rng := rand.New(rand.NewSource(3333))
	p := randomPBO(rng, 20, 30)
	fault.Arm("lgr.solve", fault.Spec{Kind: fault.KindDelay, Every: 1, Delay: 2 * time.Millisecond})
	start := time.Now()
	res := Solve(p, Options{LowerBound: LBLGR, Deadline: start.Add(150 * time.Millisecond), Tuning: Tuning{LGRIterations: 10000}})
	fault.Reset()
	el := time.Since(start)
	if el > 2*time.Second {
		t.Fatalf("deadline 150ms but the solve ran %v", el)
	}
	_ = res
}

// TestWarmStartCorruptionStaysSound is the chaos property for the
// incremental bound pipeline: with the warm-start crash pivots randomly
// corrupted (NaN injection at "lp.warmcrash"), the solver must still prove
// the exact brute-force optimum — a poisoned basis may only cost pivots
// (per-column fallback, cold re-solves), never soundness, because the LPR
// bound is recomputed from the returned duals via weak duality. The second
// arm corrupts every crash pivot, degenerating every warm attempt.
func TestWarmStartCorruptionStaysSound(t *testing.T) {
	defer fault.Reset()
	rng := rand.New(rand.NewSource(8888))
	specs := []fault.Spec{
		{Kind: fault.KindCorrupt, Prob: 0.4},
		{Kind: fault.KindCorrupt, Every: 1},
	}
	var totalWarm, totalCold, fires int64
	for iter := 0; iter < 24; iter++ {
		p := coverPBO(rng, 12+rng.Intn(6), 14+rng.Intn(10))
		want := pb.BruteForce(p)

		fault.Reset()
		clean := Solve(p, Options{LowerBound: LBLPR})

		spec := specs[iter%len(specs)]
		spec.Seed = int64(iter + 1)
		fault.Arm("lp.warmcrash", spec)
		faulted := Solve(p, Options{LowerBound: LBLPR})
		_, f := fault.Counts("lp.warmcrash")
		fires += f
		fault.Reset()

		if faulted.Status != clean.Status {
			t.Fatalf("iter %d: faulted status=%v clean=%v", iter, faulted.Status, clean.Status)
		}
		if want.Feasible {
			if faulted.Status != StatusOptimal || faulted.Best != want.Optimum {
				t.Fatalf("iter %d: faulted status=%v best=%d, brute optimum=%d",
					iter, faulted.Status, faulted.Best, want.Optimum)
			}
			if !p.Feasible(faulted.Values) {
				t.Fatalf("iter %d: faulted run returned infeasible values", iter)
			}
		} else if faulted.Status != StatusUnsat {
			t.Fatalf("iter %d: faulted status=%v want unsat", iter, faulted.Status)
		}
		totalWarm += faulted.Stats.Bounds.WarmSolves
		totalCold += faulted.Stats.Bounds.ColdSolves
	}
	if fires == 0 {
		t.Fatal("corruption never fired: the test exercised nothing")
	}
	if totalWarm+totalCold == 0 {
		t.Fatal("no LP solves with persistent state recorded: warm pipeline not engaged")
	}
	if totalCold == 0 {
		t.Fatal("no cold solves despite injected crash corruption")
	}
}
