package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/pb"
)

// TestCutsOptimaUnchanged asserts cutting-plane separation is a pure
// strengthening: for every lower-bound method, solving with cuts enabled and
// disabled must agree on feasibility and on the optimum. (Only core.LBLPR actually
// separates — the other methods are included to pin that the flag is inert
// for them.)
func TestCutsOptimaUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	methods := []core.Method{core.LBNone, core.LBMIS, core.LBLGR, core.LBLPR}
	names := []string{"plain", "mis", "lgr", "lpr"}
	var totalSeparated int64
	for iter := 0; iter < 8; iter++ {
		var p *pb.Problem
		if iter < 4 {
			var err error
			p, err = gen.Grout(gen.GroutConfig{
				Width: 5, Height: 5, Nets: 8 + iter, PathsPerNet: 4,
				Capacity: 2, Seed: int64(900 + iter),
			})
			if err != nil {
				t.Fatalf("iter %d: grout: %v", iter, err)
			}
		} else {
			// Odd-cycle (triangle) clauses have half-integral LP optima, so
			// clique separation genuinely fires; the coefficient-heavy rows
			// feed cover separation.
			nTri := 3 + iter - 4
			n := 3 * nTri
			p = pb.NewProblem(n)
			for v := 0; v < n; v++ {
				p.SetCost(pb.Var(v), int64(1+rng.Intn(3)))
			}
			for tri := 0; tri < nTri; tri++ {
				a, b, c := pb.Var(3*tri), pb.Var(3*tri+1), pb.Var(3*tri+2)
				for _, pr := range [][2]pb.Var{{a, b}, {b, c}, {a, c}} {
					_ = p.AddConstraint([]pb.Term{
						{Coef: 1, Lit: pb.PosLit(pr[0])},
						{Coef: 1, Lit: pb.PosLit(pr[1])},
					}, pb.GE, 1)
				}
			}
			for i := 0; i < nTri; i++ {
				terms := []pb.Term{
					{Coef: 3, Lit: pb.PosLit(pb.Var(rng.Intn(n)))},
					{Coef: 3, Lit: pb.PosLit(pb.Var(rng.Intn(n)))},
					{Coef: 2, Lit: pb.PosLit(pb.Var(rng.Intn(n)))},
				}
				_ = p.AddConstraint(terms, pb.GE, 5)
			}
		}
		for mi, method := range methods {
			on := core.Solve(p, core.Options{LowerBound: method, MaxConflicts: 500000})
			off := core.Solve(p, core.Options{
				LowerBound:   method,
				MaxConflicts: 500000,
				Tuning:       core.Tuning{NoCuts: true},
			})
			if on.Status == core.StatusLimit || off.Status == core.StatusLimit {
				continue
			}
			if on.Status != off.Status {
				t.Fatalf("iter %d %s: status disagreement cuts=%v nocuts=%v",
					iter, names[mi], on.Status, off.Status)
			}
			if on.Status != core.StatusOptimal {
				continue
			}
			if on.Best != off.Best {
				t.Fatalf("iter %d %s: optimum disagreement cuts=%d nocuts=%d",
					iter, names[mi], on.Best, off.Best)
			}
			if !p.Feasible(on.Values) || p.ObjectiveValue(on.Values) != on.Best {
				t.Fatalf("iter %d %s: cuts-on solution inconsistent", iter, names[mi])
			}
			if off.Stats.Bounds.Cuts.Separated != 0 {
				t.Fatalf("iter %d %s: cuts separated with NoCuts set", iter, names[mi])
			}
			if method != core.LBLPR && on.Stats.Bounds.Cuts.Separated != 0 {
				t.Fatalf("iter %d %s: non-LPR method separated cuts", iter, names[mi])
			}
			totalSeparated += on.Stats.Bounds.Cuts.Separated
		}
	}
	if totalSeparated == 0 {
		t.Fatalf("no cuts separated across the whole run; separation is not engaging")
	}
}

// TestCardinalityNormalizationEngages pins the learned-constraint
// cardinality rewrite: with PB learning on, runs over coefficient-heavy
// instances must both normalize some learned constraints and keep the
// optimum identical to a plain run.
func TestCardinalityNormalizationEngages(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	var normalized int64
	for iter := 0; iter < 12; iter++ {
		n := 10 + rng.Intn(8)
		p := pb.NewProblem(n)
		for v := 0; v < n; v++ {
			p.SetCost(pb.Var(v), int64(1+rng.Intn(4)))
		}
		m := n + rng.Intn(n)
		for i := 0; i < m; i++ {
			nt := 3 + rng.Intn(3)
			terms := make([]pb.Term, nt)
			// Equal coefficients > 1 with a degree that is a multiple: the
			// cutting-plane derivations over these rows frequently land on
			// semantic cardinality constraints in disguise.
			c := int64(1 + rng.Intn(3))
			for k := range terms {
				terms[k] = pb.Term{
					Coef: c,
					Lit:  pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(3) == 0),
				}
			}
			_ = p.AddConstraint(terms, pb.GE, c*int64(1+rng.Intn(2)))
		}
		pbRes := core.Solve(p, core.Options{LowerBound: core.LBMIS, MaxConflicts: 500000, Tuning: core.Tuning{PBLearning: true}})
		plain := core.Solve(p, core.Options{LowerBound: core.LBMIS, MaxConflicts: 500000})
		if pbRes.Status == core.StatusLimit || plain.Status == core.StatusLimit {
			continue
		}
		if pbRes.Status != plain.Status {
			t.Fatalf("iter %d: status disagreement pb=%v plain=%v", iter, pbRes.Status, plain.Status)
		}
		if pbRes.Status == core.StatusOptimal && pbRes.Best != plain.Best {
			t.Fatalf("iter %d: optimum disagreement pb=%d plain=%d", iter, pbRes.Best, plain.Best)
		}
		normalized += pbRes.Stats.PBCardNormalized
	}
	if normalized == 0 {
		t.Fatalf("no learned constraints were cardinality-normalized; detection is not engaging")
	}
}
