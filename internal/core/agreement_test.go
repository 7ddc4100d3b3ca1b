package core

import (
	"math/rand"
	"testing"

	"repro/internal/pb"
)

// Branch-and-bound and linear search must agree on the optimum for every
// lower-bound method — the two search organizations of §3 explore the same
// solution space.
func TestStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for iter := 0; iter < 100; iter++ {
		p := randomPBO(rng, 3+rng.Intn(6), 2+rng.Intn(7))
		bb := Solve(p, Options{Strategy: StrategyBranchBound, LowerBound: LBMIS, MaxConflicts: 100000})
		lin := Solve(p, Options{Strategy: StrategyLinearSearch, MaxConflicts: 100000})
		if bb.Status != lin.Status {
			t.Fatalf("iter %d: status %v vs %v", iter, bb.Status, lin.Status)
		}
		if bb.Status == StatusOptimal && bb.Best != lin.Best {
			t.Fatalf("iter %d: best %d vs %d", iter, bb.Best, lin.Best)
		}
	}
}

// Non-chronological backtracking on bound conflicts must actually save
// levels on instances with independent blocks (the §4 motivation): zero
// saved levels across a structured batch would mean the mechanism never
// engages.
func TestNCBEngagesOnBlockStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var saved int64
	for iter := 0; iter < 30; iter++ {
		// Two independent covering blocks: decisions interleave, so bound
		// conflicts in one block can jump over the other block's levels.
		const blockVars = 8
		p := pb.NewProblem(2 * blockVars)
		for b := 0; b < 2; b++ {
			base := b * blockVars
			for i := 0; i < 6; i++ {
				var lits []pb.Lit
				for v := 0; v < blockVars; v++ {
					if rng.Intn(3) == 0 {
						lits = append(lits, pb.PosLit(pb.Var(base+v)))
					}
				}
				if len(lits) == 0 {
					lits = append(lits, pb.PosLit(pb.Var(base+rng.Intn(blockVars))))
				}
				_ = p.AddClause(lits...)
			}
			for v := 0; v < blockVars; v++ {
				p.SetCost(pb.Var(base+v), int64(1+rng.Intn(9)))
			}
		}
		res := Solve(p, Options{LowerBound: LBMIS, MaxConflicts: 100000})
		if res.Status != StatusOptimal {
			t.Fatalf("iter %d: %v", iter, res.Status)
		}
		saved += res.Stats.NCBSavedLevels
	}
	if saved == 0 {
		t.Fatal("non-chronological bound backjumps never saved a level on block-structured instances")
	}
}

// The chronological ablation must also stay exact (it only weakens
// explanations, never soundness).
func TestChronologicalAblationExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 100; iter++ {
		p := randomPBO(rng, 3+rng.Intn(5), 2+rng.Intn(6))
		want := pb.BruteForce(p)
		res := Solve(p, Options{LowerBound: LBMIS, MaxConflicts: 200000, Tuning: Tuning{ChronologicalBounds: true}})
		if want.Feasible {
			if res.Status != StatusOptimal || res.Best != want.Optimum {
				t.Fatalf("iter %d: got %v/%d want optimal/%d", iter, res.Status, res.Best, want.Optimum)
			}
		} else if res.Status != StatusUnsat {
			t.Fatalf("iter %d: got %v want unsat", iter, res.Status)
		}
	}
}
