// Fault-driven variant of the chaos stress test. It lives in package
// engine_test so it can layer the bounds estimators (which import engine)
// and the fault framework on top of the same feature-interleaving loop.
package engine_test

import (
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/pb"
)

// TestChaosWithInjectedLPRFailures interleaves injected LPR failures with
// the engine feature stress loop: at every propagation fixpoint the LPR
// estimator runs against the live engine state with its fault points armed
// (panics on ~1-in-3 calls, pivot corruption on ~1-in-4). The injected
// failures must never corrupt the engine — counter invariants hold after
// every recovery — and the final classification must still match
// pb.BruteForce exactly as in the unfaulted chaos test. Bounds that do come
// back are cross-checked against the brute-force optimum for soundness.
func TestChaosWithInjectedLPRFailures(t *testing.T) {
	defer fault.Reset()
	rng := rand.New(rand.NewSource(27182))
	var panics, boundsSeen int
	for iter := 0; iter < 80; iter++ {
		n := 5 + rng.Intn(6)
		p := pb.NewProblem(n)
		for v := 0; v < n; v++ {
			p.SetCost(pb.Var(v), int64(rng.Intn(6)))
		}
		m := 3 + rng.Intn(10)
		for i := 0; i < m; i++ {
			nt := 1 + rng.Intn(4)
			terms := make([]pb.Term, nt)
			for k := range terms {
				terms[k] = pb.Term{
					Coef: int64(1 + rng.Intn(4)),
					Lit:  pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0),
				}
			}
			_ = p.AddConstraint(terms, pb.GE, int64(1+rng.Intn(5)))
		}
		want := pb.BruteForce(p)

		fault.Reset()
		fault.Arm("lpr.solve", fault.Spec{Kind: fault.KindPanic, Prob: 0.34, Seed: int64(iter + 1)})
		fault.Arm("lp.pivot", fault.Spec{Kind: fault.KindCorrupt, Prob: 0.25, Seed: int64(iter + 7)})

		e := engine.New(p)
		if e.SeedUnits() < 0 {
			if want.Feasible {
				t.Fatalf("iter %d: seed claims conflict on feasible instance", iter)
			}
			continue
		}
		est := bounds.LPR{State: &bounds.LPRState{}}
		sat, done := false, false
		for conflicts := 0; conflicts < 20000; {
			confl := e.Propagate()
			if confl >= 0 {
				conflicts++
				if rng.Intn(2) == 0 {
					if terms, deg := e.AnalyzeCuttingPlane(confl); terms != nil {
						ci := e.AddCons(terms, deg)
						e.ScheduleCheck(ci)
					}
				}
				res := e.AnalyzeConstraint(confl)
				if res.Unsat {
					done = true
					break
				}
				if e.LearnAndBackjump(res) < 0 {
					done = true
					break
				}
				switch rng.Intn(8) {
				case 0:
					e.BacktrackTo(0)
				case 1:
					e.BacktrackTo(0)
					e.ReduceDB()
				}
				continue
			}

			// Propagation fixpoint: run the faulted LPR bound against the
			// live engine state. A panic here is the injected fault — it
			// must leave the engine untouched.
			func() {
				defer func() {
					if r := recover(); r != nil {
						if !fault.IsInjected(r) {
							panic(r)
						}
						panics++
					}
				}()
				red := bounds.Extract(e)
				bres := est.Estimate(e, red, p.Cost, 1<<30, bounds.Budget{})
				if !bres.Failed && bres.Bound > 0 && want.Feasible {
					boundsSeen++
					// Soundness cross-check, valid at decision level 0 only:
					// level-0 assignments hold in every model, so the bound
					// plus the cost of the forced-true literals can never
					// exceed the global optimum. (Deeper in the tree the
					// subtree optimum may exceed the global one, so the
					// check would be meaningless there.)
					if e.DecisionLevel() == 0 {
						path := int64(0)
						for v := 0; v < n; v++ {
							if e.Value(pb.Var(v)) == engine.True {
								path += p.Cost[v]
							}
						}
						if path+bres.Bound > want.Optimum {
							t.Fatalf("iter %d: unsound root bound %d + forced %d > optimum %d",
								iter, bres.Bound, path, want.Optimum)
						}
					}
				}
			}()
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("iter %d: invariants broken after faulted bound: %v", iter, err)
			}

			if e.NumUnsatisfied() == 0 {
				sat, done = true, true
				break
			}
			v := e.PickBranchVar()
			if v < 0 {
				break
			}
			e.Decide(pb.MkLit(v, e.PreferredPhase(v) == engine.False))
		}
		fault.Reset()
		if !done {
			t.Fatalf("iter %d: conflict budget exhausted", iter)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if sat != want.Feasible {
			t.Fatalf("iter %d: sat=%v brute=%v", iter, sat, want.Feasible)
		}
	}
	if panics == 0 {
		t.Fatal("LPR fault never fired inside the chaos loop")
	}
	if boundsSeen == 0 {
		t.Fatal("no successful bounds between faults: nothing cross-checked")
	}
}

// TestChaosWarmStartCorruption layers the full incremental bound pipeline —
// a persistent bounds.Reducer fed by engine trail deltas plus an LPR
// estimator with warm-start state — into the chaos loop, with the
// warm-start crash pivots NaN-corrupted on ~1-in-3 solves and the simplex
// pivots on ~1-in-6. A poisoned basis must only ever trigger the per-column
// or cold-solve fallback: the engine invariants, the Reducer/Extract
// equivalence, the root-bound soundness check, and the final brute-force
// classification must all survive, and warm solves must still happen
// between the injected corruptions.
func TestChaosWarmStartCorruption(t *testing.T) {
	defer fault.Reset()
	rng := rand.New(rand.NewSource(16180))
	var warmSolves, coldSolves, boundsSeen int64
	for iter := 0; iter < 60; iter++ {
		n := 6 + rng.Intn(8)
		p := pb.NewProblem(n)
		for v := 0; v < n; v++ {
			p.SetCost(pb.Var(v), int64(1+rng.Intn(6)))
		}
		m := 5 + rng.Intn(10)
		for i := 0; i < m; i++ {
			nt := 2 + rng.Intn(3)
			terms := make([]pb.Term, nt)
			for k := range terms {
				terms[k] = pb.Term{
					Coef: int64(1 + rng.Intn(3)),
					Lit:  pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(4) == 0),
				}
			}
			_ = p.AddConstraint(terms, pb.GE, int64(1+rng.Intn(4)))
		}
		want := pb.BruteForce(p)

		fault.Reset()
		fault.Arm("lp.warmcrash", fault.Spec{Kind: fault.KindCorrupt, Prob: 0.34, Seed: int64(iter + 1)})
		fault.Arm("lp.pivot", fault.Spec{Kind: fault.KindCorrupt, Prob: 0.17, Seed: int64(iter + 5)})

		e := engine.New(p)
		if e.SeedUnits() < 0 {
			if want.Feasible {
				t.Fatalf("iter %d: seed claims conflict on feasible instance", iter)
			}
			continue
		}
		red := bounds.NewReducer(e)
		st := &bounds.LPRState{}
		est := bounds.LPR{State: st}
		sat, done := false, false
		for conflicts := 0; conflicts < 20000; {
			confl := e.Propagate()
			if confl >= 0 {
				conflicts++
				res := e.AnalyzeConstraint(confl)
				if res.Unsat {
					done = true
					break
				}
				if e.LearnAndBackjump(res) < 0 {
					done = true
					break
				}
				switch rng.Intn(8) {
				case 0:
					e.BacktrackTo(0)
					st.Invalidate() // what core does on restarts
				case 1:
					e.BacktrackTo(0)
					e.ReduceDB()
					st.Invalidate()
				}
				continue
			}

			// Fixpoint: incremental reduction + warm-started LPR under
			// corruption. The reduction must stay Extract-identical even
			// with faults firing inside the LP layer.
			r := red.Reduce()
			fresh := bounds.Extract(e)
			if len(r.Rows) != len(fresh.Rows) || r.Infeasible != fresh.Infeasible {
				t.Fatalf("iter %d: reducer diverged from Extract under faults (rows %d vs %d)",
					iter, len(r.Rows), len(fresh.Rows))
			}
			bres := est.Estimate(e, r, p.Cost, 1<<30, bounds.Budget{})
			if !bres.Failed && bres.Bound > 0 && want.Feasible && e.DecisionLevel() == 0 {
				boundsSeen++
				path := int64(0)
				for v := 0; v < n; v++ {
					if e.Value(pb.Var(v)) == engine.True {
						path += p.Cost[v]
					}
				}
				if path+bres.Bound > want.Optimum {
					t.Fatalf("iter %d: unsound root bound %d + forced %d > optimum %d under warm corruption",
						iter, bres.Bound, path, want.Optimum)
				}
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("iter %d: invariants broken after corrupted warm bound: %v", iter, err)
			}

			if e.NumUnsatisfied() == 0 {
				sat, done = true, true
				break
			}
			v := e.PickBranchVar()
			if v < 0 {
				break
			}
			e.Decide(pb.MkLit(v, e.PreferredPhase(v) == engine.False))
		}
		warmSolves += st.WarmSolves()
		coldSolves += st.ColdSolves()
		red.Detach()
		fault.Reset()
		if !done {
			t.Fatalf("iter %d: conflict budget exhausted", iter)
		}
		if sat != want.Feasible {
			t.Fatalf("iter %d: sat=%v brute=%v", iter, sat, want.Feasible)
		}
	}
	if warmSolves == 0 {
		t.Fatal("no warm LP solves despite the persistent state: warm path never exercised")
	}
	if coldSolves == 0 {
		t.Fatal("no cold LP solves despite injected corruption: fallback never exercised")
	}
}
