package bounds

import (
	"math"

	"repro/internal/cuts"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/lp"
)

// LPR is the linear-programming-relaxation lower bound (§3.1): relax the
// reduced problem's variables to [0,1] and take ⌈z*_lpr⌉.
//
// Rather than the primal
//
//	min c·x  s.t.  G·x ≥ d,  0 ≤ x ≤ 1,
//
// the estimator solves the equivalent dual
//
//	min −d·y + Σ_j w_j  s.t.  −Gᵀ·y + w ≥ −c,  y, w ≥ 0,
//
// which is always feasible at (y,w) = 0 for non-negative costs, so the
// simplex needs no phase 1 and every iterate is feasible: under an iteration
// cap the current y still yields a valid (merely weaker) Lagrangian bound —
// per-node cost is bounded without ever compromising soundness. At
// optimality the duals of the dual are the primal x values, which feed the
// §5 LP-guided branching heuristic.
//
// The responsible set S (§4.2) is the set of rows with positive multiplier
// y_i — a subset of the paper's zero-slack rows, giving a stronger (smaller)
// explanation that remains sound by weak duality: the final bound is
// recomputed from the multipliers restricted to S.
//
// When Cuts is wired, the relaxation is additionally tightened with pooled
// cutting planes (lifted knapsack covers and clique cuts — internal/cuts):
// each globally valid cut is residualized under the current assignment and
// installed as one more primal row, i.e. one more y column of the dual, so
// the whole warm-start/anytime machinery applies to cut rows unchanged. New
// cuts are separated at the LP optimum (to a fixpoint at the root, one round
// at every 16th deep estimation) and the LP is re-solved through
// the warm basis after each round. Cut rows that earn a positive multiplier
// contribute the cut's false literals to the explanation instead of an
// engine row index (Result.ResponsibleLits) and bump the cut's pool
// activity.
//
// Each call's simplex is capped at 4·(m+n)+200 iterations, which keeps the
// per-node cost proportional to the reduced problem's size.
type LPR struct {
	// State is required: it holds the estimation's buffers and the basis
	// each solve leaves for the next call's warm start (see LPRState).
	State *LPRState
	// Cuts, when non-nil, is the managed cut pool: pooled cuts tighten every
	// node LP, and the estimator separates new ones at LP optima under the
	// pool's budgets. nil disables cutting planes entirely.
	Cuts *cuts.Pool

	// maxIter overrides the iteration cap when positive: package tests
	// lower it to reach the anytime bound of an interrupted simplex.
	maxIter int
}

// Name implements Estimator.
func (LPR) Name() string { return "lpr" }

// Estimate implements Estimator.
func (l LPR) Estimate(e *engine.Engine, red *Reduced, cost []int64, target int64, bud Budget) Result {
	if red.Infeasible {
		return Result{Bound: InfBound, Responsible: []int{red.InfeasibleRow}}
	}
	if len(red.Rows) == 0 {
		return Result{}
	}
	// fault point "lpr.solve": tests inject panics/delays here to exercise
	// the search's panic recovery, MIS fallback and circuit breaker.
	fault.Fire("lpr.solve")
	sc := &l.State.buffers().scratch
	xp := &sc.xp
	xp.build(red, cost)
	inst := installCuts(&sc.inst, e, xp, l.Cuts, cost)
	if inst.infeasible {
		// A residualized pooled cut is unsatisfiable even with every
		// unassigned literal true: the node is hopeless, and the cut's false
		// literals are the whole explanation (the cut is valid for the
		// original problem, so any node keeping them false is equally dead).
		return Result{Bound: InfBound, ResponsibleLits: inst.infeasibleLits}
	}

	sol, err := l.solveDual(xp, inst, &bud)
	if err != nil {
		// Malformed LP (should not happen for Extract output): report a
		// failed call so the ladder can fall back rather than silently
		// losing pruning power node after node.
		return Result{Failed: true}
	}

	if l.Cuts != nil && sol.Status == lp.Optimal {
		depth := e.DecisionLevel()
		if l.Cuts.Probe(depth) {
			rounds := 1
			if depth == 0 {
				rounds = l.Cuts.MaxRounds() // root: separate to a fixpoint
			}
			sol = l.separationRounds(e, red, xp, inst, cost, sol, &bud, rounds)
			if inst.infeasible {
				return Result{Bound: InfBound, ResponsibleLits: inst.infeasibleLits}
			}
		}
	}

	switch sol.Status {
	case lp.Unbounded:
		// The dual is unbounded iff the primal relaxation is infeasible:
		// no completion satisfies the reduced rows and residual cuts. Every
		// installed cut joins the explanation — the certificate may lean on
		// any of them.
		return Result{Bound: InfBound, Responsible: allRows(red), ResponsibleLits: inst.allFalseLits()}
	case lp.Numerical:
		// Floating-point corruption detected inside the simplex (genuine or
		// injected via "lp.pivot"): the solution is unusable.
		return Result{Failed: true}
	case lp.Optimal, lp.IterLimit:
		if sol.X == nil {
			return Result{Incomplete: sol.Status == lp.IterLimit}
		}
		// Recompute the bound from the multipliers (sound for any y ≥ 0;
		// under IterLimit this is the anytime bound). fault point
		// "lpr.value": tests corrupt the recomputed value to exercise the
		// NaN detection below.
		m, n := len(xp.rows), len(xp.vars)
		y := sol.X[:m]
		val, s, alpha := xp.lagrangianValue(y, 1e-9)
		val = fault.Corrupt("lpr.value", val)
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return Result{Failed: true}
		}
		res := Result{Bound: ceilBound(val), Incomplete: sol.Status == lp.IterLimit}
		// Clamp the rounded bound to the Lagrangian minimizer's cost when that
		// minimizer is a feasible completion: a rounded bound above a known
		// feasible completion is a provable float over-round (see completionCap).
		res.Bound = capToCompletion(res.Bound, xp, red, cost, alpha)
		for _, i := range s {
			if i < inst.m0 {
				if res.Responsible == nil {
					res.Responsible = make([]int, 0, len(s))
				}
				res.Responsible = append(res.Responsible, xp.rows[i].engIdx)
				continue
			}
			// A cut row carries the bound: its false literals explain it, and
			// the pool learns the cut is earning its keep.
			k := i - inst.m0
			res.ResponsibleLits = append(res.ResponsibleLits, inst.falseLits[k]...)
			l.Cuts.Bump(inst.ids[k])
		}
		if sol.Status == lp.Optimal {
			// Primal x values are the duals of the dual rows.
			res.FracX = make([]FracVar, n)
			for j, v := range xp.vars {
				x := sol.Dual[j]
				if x < 0 {
					x = 0
				} else if x > 1 {
					x = 1
				}
				res.FracX[j] = FracVar{Var: v, X: x}
			}
		}
		return res
	default:
		return Result{}
	}
}

// solveDual builds and solves the dual LP of the current x-space problem
// (problem rows and installed cut rows alike become y columns). Warm keys
// use two tag bits so the three key spaces stay disjoint: y rows by engine
// index (tag 0), w columns and LP rows by variable (tag 1), cut y columns by
// pool id (tag 2) — pool ids are never reused, so a basis never misbinds to
// a different cut after eviction. The problem and keys are built into the
// state's buffers; only the returned solution's slices are fresh.
func (l LPR) solveDual(xp *xProblem, inst *cutInstall, bud *Budget) (lp.Solution, error) {
	m, n := len(xp.rows), len(xp.vars)
	maxIter := 4*(m+n) + 200
	if l.maxIter > 0 {
		maxIter = l.maxIter
	}
	st := l.State
	sc := &st.buffers().scratch
	prob := &sc.prob
	*prob = lp.Problem{
		NumVars:  m + n,
		Cost:     resize(prob.Cost, m+n),
		Rows:     resize(prob.Rows, n),
		Lo:       resize(prob.Lo, m+n),
		Hi:       resize(prob.Hi, m+n),
		MaxIter:  maxIter,
		Deadline: bud.Deadline, // per-node bound budget reaches the simplex
	}
	clear(prob.Lo)
	for i := range prob.Hi {
		prob.Hi[i] = math.Inf(1)
	}
	for i, xr := range xp.rows {
		prob.Cost[i] = -xr.rhs // minimize −d·y
	}
	// Row j holds w_j's unit entry, then −G_ij for every x-space row i
	// mentioning x_j, in row order: counted first, so each row is a window
	// of one entry buffer filled without reallocation.
	sc.cnt = resize(sc.cnt, n)
	clear(sc.cnt)
	total := n
	for _, xr := range xp.rows {
		for _, en := range xr.entries {
			sc.cnt[en.local]++
		}
		total += len(xr.entries)
	}
	sc.ents = resize(sc.ents, total)
	off := 0
	for j := 0; j < n; j++ {
		prob.Cost[m+j] = 1 // + Σ w_j
		end := off + 1 + sc.cnt[j]
		sc.ents[off] = lp.Entry{Var: m + j, Coef: 1}
		prob.Rows[j] = lp.Row{RHS: -xp.cost[j], Entries: sc.ents[off : off+1 : end]}
		off = end
	}
	for i, xr := range xp.rows {
		for _, en := range xr.entries {
			prob.Rows[en.local].Entries = append(prob.Rows[en.local].Entries,
				lp.Entry{Var: i, Coef: -en.coef})
		}
	}

	ws := &st.bufs.ws
	// Identify LP columns and rows by search-stable keys so the previous
	// solve's basis maps onto this (re-numbered) problem.
	varKeys := resize(sc.varKeys, m+n)
	for i, xr := range xp.rows {
		if xr.engIdx >= 0 {
			varKeys[i] = int64(xr.engIdx) << 2
		} else {
			varKeys[i] = int64(inst.ids[i-inst.m0])<<2 | 2
		}
	}
	for j, v := range xp.vars {
		varKeys[m+j] = int64(v)<<2 | 1
	}
	rowKeys := resize(sc.rowKeys, n)
	for j, v := range xp.vars {
		rowKeys[j] = int64(v)
	}
	sc.varKeys, sc.rowKeys = varKeys, rowKeys
	hadBasis := ws.HasBasis()
	sol, err := ws.SolveWarm(prob, varKeys, rowKeys)
	if err == nil {
		if sol.Warm {
			st.warmSolves.Add(1)
		} else {
			st.coldSolves.Add(1)
			if hadBasis {
				st.warmFallbacks.Add(1)
			}
		}
	}
	if err != nil || sol.Status == lp.Numerical {
		// A basis that produced (or accompanied) numerical corruption is
		// not worth keeping.
		st.Invalidate()
	}
	return sol, err
}

// resize returns buf with length n, reallocating only when its capacity is
// short; the contents are left for the caller to overwrite. An outgrown
// buffer is reallocated with headroom, so a problem that widens by a cut at
// a time does not reallocate on every estimation.
func resize[T any](buf []T, n int) []T {
	if c := cap(buf); c < n {
		if c > 0 {
			return make([]T, n, n+n/2)
		}
		return make([]T, n)
	}
	return buf[:n]
}

// integral reports whether every primal x value (clamped to [0,1], as the
// separators read it) lies within 1e-9 of 0 or 1.
func integral(x []float64) bool {
	for _, v := range x {
		if v > 1e-9 && v < 1-1e-9 {
			return false
		}
	}
	return true
}

// separationRounds runs up to rounds separate→install→re-solve cycles from
// the LP optimum sol, returning the last trustworthy solution (always
// describing the x-space problem as left in xp).
//
// Abandonment discipline: whenever a round is cut short — the budget
// expires between rounds, or a re-solve comes back unusable — the warm
// basis snapshot in State is invalidated. The basis lease otherwise ends up
// describing a tableau with cut rows the caller's Result never saw, and the
// next estimation would warm-start from a phantom problem (the
// TestLPRCutsInterrupt* regressions pin this).
func (l LPR) separationRounds(e *engine.Engine, red *Reduced, xp *xProblem, inst *cutInstall, cost []int64, sol lp.Solution, bud *Budget, rounds int) lp.Solution {
	sc := &l.State.buffers().scratch
	for round := 0; round < rounds; round++ {
		if bud.Expired() {
			l.State.Invalidate()
			return sol
		}
		if integral(sol.Dual[:len(xp.vars)]) {
			// Rounded, the point is a completion of the node: each reduced
			// row has integer coefficients and holds at the point, and the
			// other rows are satisfied by the assignment. Every valid cut
			// holds there, so none is violated: count the round, skip the
			// separators.
			sc.srcs = cutSources(sc.srcs, e, red)
			l.Cuts.SkipRound(sc.srcs)
			return sol
		}
		frac := fracPoint(e, xp, sol.Dual)
		sc.srcs = cutSources(sc.srcs, e, red)
		if l.Cuts.Separate(sc.srcs, frac, engineRows{e}) == 0 {
			return sol // fixpoint: nothing violated remains separable
		}
		snap := inst.snapshot(xp)
		if inst.installNew(e, xp, l.Cuts, cost) == 0 {
			return sol
		}
		if inst.infeasible {
			return sol // caller returns the infeasible result
		}
		sol2, err := l.solveDual(xp, inst, bud)
		if err != nil || sol2.Status == lp.Numerical || sol2.X == nil {
			// The augmented LP produced nothing usable: restore the problem
			// the previous solution describes and stop separating. solveDual
			// already invalidated the basis on err/Numerical; the X==nil
			// iteration-limit case must drop it too (it references the
			// augmented tableau).
			inst.rollback(xp, snap)
			l.State.Invalidate()
			return sol
		}
		sol = sol2
		if sol.Status != lp.Optimal {
			// Unbounded (node infeasible) or an anytime IterLimit bound:
			// either way there is no optimum to separate from.
			return sol
		}
	}
	return sol
}
