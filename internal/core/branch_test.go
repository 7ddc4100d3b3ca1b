package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/pb"
)

// fakeBranchEngine serves assignment values and activities from slices.
type fakeBranchEngine struct {
	value    []engine.Value
	activity []float64
}

func (f *fakeBranchEngine) Value(v pb.Var) engine.Value { return f.value[v] }
func (f *fakeBranchEngine) Activity(v pb.Var) float64   { return f.activity[v] }

// lpBranchVarMap is the §5 selection over a map from variable to LP value,
// iterated in Go's randomized map order: the reference the slice form must
// agree with.
func lpBranchVarMap(fracX map[pb.Var]float64, e branchEngine) (pb.Var, float64, bool) {
	const intEps = 1e-6
	bestDist := math.Inf(1)
	for v, x := range fracX {
		if e.Value(v) != engine.Unassigned || x < intEps || x > 1-intEps {
			continue
		}
		if d := math.Abs(x - 0.5); d < bestDist {
			bestDist = d
		}
	}
	if math.IsInf(bestDist, 1) {
		return 0, 0, false
	}
	best := pb.Var(-1)
	for v, x := range fracX {
		if e.Value(v) != engine.Unassigned || x < intEps || x > 1-intEps {
			continue
		}
		if math.Abs(x-0.5) > bestDist+1e-9 {
			continue
		}
		if best < 0 || e.Activity(v) > e.Activity(best) ||
			(e.Activity(v) == e.Activity(best) && v < best) {
			best = v
		}
	}
	return best, fracX[best], true
}

// TestLPBranchVarMatchesMapForm checks that the slice form of the §5
// selection picks exactly the literal the map form picked, whatever the
// order of the slice, on random inputs dense with ties: equal distances to
// 0.5 (including values within the 1e-9 noise band), equal activities,
// integral and near-integral values, and assigned variables.
func TestLPBranchVarMatchesMapForm(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	xs := []float64{0, 1, 1e-7, 1 - 1e-7, 0.25, 0.75, 0.5, 0.5 + 1e-10, 0.5 - 1e-10, 0.3, 0.7, 0.4999, 0.5001}
	picked := 0
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(24)
		e := &fakeBranchEngine{value: make([]engine.Value, n), activity: make([]float64, n)}
		var frac []bounds.FracVar
		m := map[pb.Var]float64{}
		for v := 0; v < n; v++ {
			e.activity[v] = float64(rng.Intn(3))
			if rng.Intn(5) == 0 {
				e.value[v] = engine.True
			} else {
				e.value[v] = engine.Unassigned
			}
			if rng.Intn(4) == 0 {
				continue // not in the x-space problem
			}
			x := xs[rng.Intn(len(xs))]
			frac = append(frac, bounds.FracVar{Var: pb.Var(v), X: x})
			m[pb.Var(v)] = x
		}
		rng.Shuffle(len(frac), func(i, j int) { frac[i], frac[j] = frac[j], frac[i] })
		wantVar, wantX, wantOK := lpBranchVarMap(m, e)
		got, ok := lpBranchVar(frac, e)
		if ok != wantOK || (ok && (got.Var != wantVar || math.Float64bits(got.X) != math.Float64bits(wantX))) {
			t.Fatalf("trial %d: slice form picked %+v (ok=%v), map form x%d=%v (ok=%v); input %+v", trial, got, ok, wantVar, wantX, wantOK, frac)
		}
		if ok {
			picked++
		}
	}
	if picked < 1000 {
		t.Fatalf("only %d of 5000 trials had a fractional candidate", picked)
	}
}
