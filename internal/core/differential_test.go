package core

import (
	"math/rand"
	"testing"

	"repro/internal/milp"
	"repro/internal/pb"
)

// Differential testing beyond brute-force reach: on mid-size instances
// (up to ~40 variables) the PBO solver, the MILP solver and the
// linear-search solver are three essentially independent implementations;
// any disagreement on optimum or feasibility indicates a bug in one of
// them. Sizes are chosen so all three finish comfortably.
func TestDifferentialMidSize(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for iter := 0; iter < 60; iter++ {
		n := 15 + rng.Intn(25)
		p := pb.NewProblem(n)
		for v := 0; v < n; v++ {
			p.SetCost(pb.Var(v), int64(rng.Intn(12)))
		}
		m := n/2 + rng.Intn(n)
		for i := 0; i < m; i++ {
			nt := 2 + rng.Intn(4)
			terms := make([]pb.Term, nt)
			for k := range terms {
				terms[k] = pb.Term{
					Coef: int64(1 + rng.Intn(5)),
					Lit:  pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(3) == 0),
				}
			}
			cmp := pb.GE
			if rng.Intn(5) == 0 {
				cmp = pb.LE
			}
			_ = p.AddConstraint(terms, cmp, int64(1+rng.Intn(7)))
		}

		lpr := Solve(p, Options{LowerBound: LBLPR, MaxConflicts: 500000})
		lin := Solve(p, Options{Strategy: StrategyLinearSearch, MaxConflicts: 500000, Tuning: Tuning{PBLearning: true}})
		mi := milp.Solve(p, milp.Options{MaxNodes: 2000000})

		if lpr.Status == StatusLimit || lin.Status == StatusLimit || mi.Status == milp.StatusLimit {
			continue // budget-bound: no verdict
		}
		lprFeas := lpr.Status == StatusOptimal
		linFeas := lin.Status == StatusOptimal
		miFeas := mi.Status == milp.StatusOptimal
		if lprFeas != linFeas || lprFeas != miFeas {
			t.Fatalf("iter %d: feasibility disagreement lpr=%v lin=%v milp=%v",
				iter, lpr.Status, lin.Status, mi.Status)
		}
		if !lprFeas {
			continue
		}
		if lpr.Best != lin.Best || lpr.Best != mi.Best {
			t.Fatalf("iter %d: optimum disagreement lpr=%d lin=%d milp=%d",
				iter, lpr.Best, lin.Best, mi.Best)
		}
		if !p.Feasible(lpr.Values) || p.ObjectiveValue(lpr.Values) != lpr.Best {
			t.Fatalf("iter %d: lpr solution inconsistent", iter)
		}
	}
}
