package bounds

import (
	"math"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/pb"
)

// LGR is the Lagrangian-relaxation lower bound (§3.2): dualize the reduced
// constraints with multipliers μ ≥ 0 and maximize
//
//	L(μ) = Σ_i μ_i·d_i + Σ_j min(0, α_j),  α_j = c_j − Σ_i μ_i·G_ij
//
// by projected subgradient ascent with a Polyak step rule, as outlined in
// the network-optimization literature the paper cites [12]. The responsible
// set S (§4.3) is the set of constraints with non-zero multiplier at the
// best iterate, refined by the α-sign filter on assigned variables.
type LGR struct {
	// Iterations bounds the subgradient steps per call (default 50). The
	// paper observes slow convergence on most instances — the ablation
	// bench A5 sweeps this knob.
	Iterations int
	// Lambda is the initial Polyak step scale (default 2.0).
	Lambda float64
	// HalveEvery halves Lambda after this many non-improving steps
	// (default 5).
	HalveEvery int
	// WarmStart seeds the multipliers with a greedy dual-ascent pass before
	// the subgradient iterations. The paper's implementation follows [12]
	// directly (cold start) and reports slow convergence — the ablation
	// bench A5 quantifies the difference.
	WarmStart bool
}

// Name implements Estimator.
func (LGR) Name() string { return "lgr" }

// dualAscentInit warm-starts the multipliers with the classic greedy
// dual-ascent heuristic for covering-style rows: rows are raised one by one
// to the point where some variable's reduced cost hits zero, keeping the
// dual (α ≥ 0 on raised terms) approximately feasible. Any μ ≥ 0 yields a
// valid bound, so the heuristic cannot compromise soundness — it only gives
// the subgradient ascent a running start (without it, the paper's observed
// slow convergence makes LGR nearly useless at small iteration budgets).
func dualAscentInit(xp *xProblem) []float64 {
	mu := make([]float64, len(xp.rows))
	rc := make([]float64, len(xp.vars))
	copy(rc, xp.cost)
	for i, xr := range xp.rows {
		if xr.rhs <= 0 {
			continue
		}
		best := math.Inf(1)
		for _, en := range xr.entries {
			if en.coef > 0 {
				if d := rc[en.local] / en.coef; d < best {
					best = d
				}
			}
		}
		if math.IsInf(best, 1) || best <= 0 {
			continue
		}
		mu[i] = best
		for _, en := range xr.entries {
			if en.coef > 0 {
				rc[en.local] -= best * en.coef
				if rc[en.local] < 0 {
					rc[en.local] = 0
				}
			}
		}
	}
	return mu
}

// Estimate implements Estimator.
func (l LGR) Estimate(e *engine.Engine, red *Reduced, cost []int64, target int64, bud Budget) Result {
	if red.Infeasible {
		return Result{Bound: InfBound, Responsible: []int{red.InfeasibleRow}}
	}
	if len(red.Rows) == 0 {
		return Result{}
	}
	// fault point "lgr.solve": panic/delay injection for resilience tests.
	fault.Fire("lgr.solve")
	iters := l.Iterations
	if iters <= 0 {
		iters = 50
	}
	lambda := l.Lambda
	if lambda <= 0 {
		lambda = 2.0
	}
	halveEvery := l.HalveEvery
	if halveEvery <= 0 {
		halveEvery = 5
	}

	xp := toXSpace(red, cost)
	m := len(xp.rows)
	mu := make([]float64, m)
	bestMu := make([]float64, m)
	bestL := 0.0 // μ = 0 gives L = Σ min(0,c_j) = 0 for non-negative costs
	if l.WarmStart {
		mu = dualAscentInit(xp)
		if v, _, _ := xp.lagrangianValue(mu, 0); v > bestL {
			bestL = v
			copy(bestMu, mu)
		}
	}

	// Polyak target: the value sufficient to prune, slightly overshot so the
	// step does not collapse as L approaches it.
	tgt := float64(target) * 1.05
	if tgt <= 0 {
		tgt = 1
	}

	grad := make([]float64, m)
	sinceImprove := 0
	incomplete := false
	if bestL >= tgt {
		iters = 0 // warm start already suffices to prune
	}
	for k := 0; k < iters; k++ {
		// Deadline propagation: the subgradient loop honours the per-node
		// budget — any prefix of the ascent still yields a sound bound from
		// the best multipliers seen so far. (Expired self-amortizes its
		// time.Now polling, so calling it every iteration is cheap.)
		if bud.Expired() {
			incomplete = true
			break
		}
		val, _, alpha := xp.lagrangianValue(mu, 0)
		if val > bestL {
			bestL = val
			copy(bestMu, mu)
			sinceImprove = 0
		} else {
			sinceImprove++
			if sinceImprove >= halveEvery {
				lambda /= 2
				sinceImprove = 0
			}
		}
		if bestL >= tgt {
			break // already enough to prune
		}
		// Subgradient: g_i = d_i − G_i·x(μ) with x_j = 1 iff α_j < 0.
		var norm2 float64
		for i, xr := range xp.rows {
			g := xr.rhs
			for _, en := range xr.entries {
				if alpha[en.local] < 0 {
					g -= en.coef
				}
			}
			grad[i] = g
			norm2 += g * g
		}
		if norm2 < 1e-12 {
			break // μ is (sub)optimal: x(μ) satisfies all dualized rows exactly
		}
		step := lambda * (tgt - val) / norm2
		if step <= 0 {
			break
		}
		for i := range mu {
			mu[i] += step * grad[i]
			if mu[i] < 0 {
				mu[i] = 0
			}
		}
	}

	// Recompute the bound at the best multipliers (identical value; the call
	// also yields S and α for the explanation). fault point "lgr.value":
	// tests corrupt the value to exercise the numerical-failure detection.
	val, s, alphaBest := xp.lagrangianValue(bestMu, 1e-9)
	val = fault.Corrupt("lgr.value", val)
	if math.IsNaN(val) || math.IsInf(val, 0) {
		return Result{Failed: true}
	}
	res := Result{Bound: ceilBound(val), Incomplete: incomplete}
	// Clamp to a known feasible completion's cost (see completionCap): a
	// rounded bound above the Lagrangian minimizer's cost, when that minimizer
	// satisfies the reduced rows, is a provable over-round.
	res.Bound = capToCompletion(res.Bound, xp, red, cost, alphaBest)
	res.Responsible = make([]int, len(s))
	for k, i := range s {
		res.Responsible[k] = xp.rows[i].engIdx
	}
	if len(s) > 0 {
		res.ExcludedVars = alphaFilter(s, bestMu, cost,
			func(rowIdx int, visit func(v pb.Var, xCoef float64)) {
				c := e.Cons(xp.rows[rowIdx].engIdx)
				for k, l := range c.Lits {
					xc := float64(c.Coefs[k])
					if l.IsNeg() {
						xc = -xc
					}
					visit(l.Var(), xc)
				}
			},
			func(v pb.Var) (bool, bool) {
				switch e.Value(v) {
				case engine.True:
					return true, true
				case engine.False:
					return false, true
				}
				return false, false
			})
	}
	return res
}
