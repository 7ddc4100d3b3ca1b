package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/pb"
)

// TestIncrementalPipelineOptimaUnchanged asserts the incremental bound
// pipeline (persistent Reducer + LP warm starting) is a pure optimization:
// for every lower-bound method, solving with the pipeline enabled and
// disabled must agree on feasibility and on the optimum. LPR also runs
// without LP incumbents: with them most of these roots close before any
// warm re-solve, and the warm-start assertion needs a real search.
func TestIncrementalPipelineOptimaUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	cells := []struct {
		name string
		opt  core.Options
	}{
		{"plain", core.Options{LowerBound: core.LBNone}},
		{"mis", core.Options{LowerBound: core.LBMIS}},
		{"lgr", core.Options{LowerBound: core.LBLGR}},
		{"lpr", core.Options{LowerBound: core.LBLPR}},
		{"lpr-nolpinc", core.Options{LowerBound: core.LBLPR, Tuning: core.Tuning{NoLPIncumbent: true}}},
	}
	var totalWarm int64
	for iter := 0; iter < 8; iter++ {
		// Mix the paper's global-routing family (deep branch-and-bound trees,
		// so warm starting genuinely engages) with random covering-flavoured
		// instances for structural variety.
		var p *pb.Problem
		if iter < 4 {
			var err error
			p, err = gen.Grout(gen.GroutConfig{
				Width: 5, Height: 5, Nets: 8 + iter, PathsPerNet: 4,
				Capacity: 2, Seed: int64(100 + iter),
			})
			if err != nil {
				t.Fatalf("iter %d: grout: %v", iter, err)
			}
		} else {
			n := 14 + rng.Intn(12)
			p = pb.NewProblem(n)
			for v := 0; v < n; v++ {
				p.SetCost(pb.Var(v), int64(rng.Intn(10)))
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
				_ = p.AddConstraint(terms, pb.GE, int64(1+rng.Intn(6)))
			}
		}
		for _, cell := range cells {
			onOpt := cell.opt
			onOpt.MaxConflicts = 500000
			offOpt := onOpt
			offOpt.NoIncrementalReduce, offOpt.NoWarmLP = true, true
			on := core.Solve(p, onOpt)
			off := core.Solve(p, offOpt)
			if on.Status == core.StatusLimit || off.Status == core.StatusLimit {
				continue
			}
			if on.Status != off.Status {
				t.Fatalf("iter %d %s: status disagreement incremental=%v rebuild=%v",
					iter, cell.name, on.Status, off.Status)
			}
			if on.Status != core.StatusOptimal {
				continue
			}
			if on.Best != off.Best {
				t.Fatalf("iter %d %s: optimum disagreement incremental=%d rebuild=%d",
					iter, cell.name, on.Best, off.Best)
			}
			if !p.Feasible(on.Values) || p.ObjectiveValue(on.Values) != on.Best {
				t.Fatalf("iter %d %s: incremental solution inconsistent", iter, cell.name)
			}
			totalWarm += on.Stats.Bounds.WarmSolves
			if off.Stats.Bounds.WarmSolves != 0 {
				t.Fatalf("iter %d %s: warm solves recorded with warm starting disabled", iter, cell.name)
			}
			if off.Stats.Bounds.Incremental {
				t.Fatalf("iter %d %s: incremental flag set with reducer disabled", iter, cell.name)
			}
		}
	}
	if totalWarm == 0 {
		t.Fatalf("no warm LP solves happened across the whole run; warm starting is not engaging")
	}
}
