package engine

import (
	"math/rand"
	"testing"

	"repro/internal/pb"
)

// TestChaosAllFeaturesInterleaved stresses every engine feature at once —
// counter propagation, watched learned clauses, cutting-plane derivation,
// in-place degree tightening with the pending queue, restarts, and DB
// reduction — against the ground truth of a brute-force model count. After
// every step the counter invariants must hold, and the search must still
// classify the instance correctly.
func TestChaosAllFeaturesInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(31415))
	for iter := 0; iter < 120; iter++ {
		n := 5 + rng.Intn(6)
		p := pb.NewProblem(n)
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

		e := New(p)
		if e.SeedUnits() < 0 {
			if want.Feasible {
				t.Fatalf("iter %d: seed claims conflict on feasible instance", iter)
			}
			continue
		}
		// A monotone cost cut we tighten in place as the search runs — like
		// the eq. 10 incumbent constraint, but driven by a scripted schedule
		// that stays below the coefficient sum so feasibility is preserved
		// whenever the instance has a model with few true variables.
		var cutTerms []pb.Term
		for v := 0; v < n; v++ {
			cutTerms = append(cutTerms, pb.Term{Coef: 1, Lit: pb.NegLit(pb.Var(v))})
		}
		// Degree d requires ≥ d variables false, i.e. ≤ n−d true. Keep the
		// schedule at most the brute-force solution's false count so a model
		// survives (when feasible).
		maxFalse := 0
		if want.Feasible {
			for _, b := range want.Values {
				if !b {
					maxFalse++
				}
			}
		}
		cut := e.AddProtected(cutTerms, 0)
		cutDegree := int64(0)

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
				case 0: // restart
					e.BacktrackTo(0)
				case 1: // restart + garbage collect
					e.BacktrackTo(0)
					e.ReduceDB()
				case 2: // tighten the cost cut within the safe schedule
					if int(cutDegree) < maxFalse {
						cutDegree++
						e.UpdateDegree(cut, cutDegree)
					}
				}
				continue
			}
			if e.NumUnsatisfied() == 0 {
				// Check that the learned/protected cut is honoured too.
				sat, done = true, true
				break
			}
			v := e.PickBranchVar()
			if v < 0 {
				break
			}
			e.Decide(pb.MkLit(v, e.PreferredPhase(v) == False))
		}
		if !done {
			t.Fatalf("iter %d: conflict budget exhausted", iter)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		// The tightened cut only forbids assignments with fewer than
		// cutDegree false variables; by the schedule a model survives, so
		// satisfiability classification must match brute force.
		if sat != want.Feasible {
			t.Fatalf("iter %d: sat=%v brute=%v (cutDegree=%d maxFalse=%d)",
				iter, sat, want.Feasible, cutDegree, maxFalse)
		}
		if sat {
			vals := e.Values()
			if !p.Feasible(vals) {
				t.Fatalf("iter %d: infeasible model returned", iter)
			}
			falseCount := 0
			for _, b := range vals {
				if !b {
					falseCount++
				}
			}
			if int64(falseCount) < cutDegree {
				t.Fatalf("iter %d: model violates the protected cut", iter)
			}
		}
	}
}
