// Presolve variable fixing: permanently fix variables before search and
// rewrite the problem over the survivors, in the spirit of roof-duality /
// persistency preprocessing (strong persistencies of the QPBO literature,
// the technique dwave-preprocessing applies to QUBOs) combined with
// failed-literal probing. Unlike the same-numbering transformations in
// Apply, FixVariables *eliminates* the fixed variables: the returned problem
// is densely renumbered and strictly smaller, and the Fixing carries the
// verified mapping back to the original variable space (Lift) so value
// lines, verify.Check and the in-search auditor all operate on original
// variables.
//
// Two classes of fixes are applied, both optimum-preserving on problems in
// normal form (GE rows, positive coefficients, non-negative costs):
//
//   - Necessary assignments: root unit propagation plus failed-literal
//     probing (assigning l and propagating to a conflict proves ¬l). These
//     are entailed by the constraints — every feasible assignment agrees —
//     so fixing them is even solution-preserving.
//   - Costed persistencies (the roof-duality-style rule): a variable that
//     never appears positively in an active row can be fixed to 0 — every
//     remaining literal of it is ¬v, which only gains from v=0, and v=0 is
//     the free polarity (costs are non-negative). Dually, a variable with
//     cost 0 that never appears negatively can be fixed to 1. These
//     preserve at least one optimum (any solution can be moved to the fixed
//     polarity without raising its cost or breaking a constraint) but not
//     the full solution set, so downstream verification must Lift back and
//     check against the *original* problem — which the fuzz matrix does.
package preprocess

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/pb"
)

// Fixing is the result of FixVariables: the rewritten problem plus the
// mapping back to the original variable space.
type Fixing struct {
	// Problem is the reduced problem over the unfixed variables, densely
	// renumbered, with CostOffset accumulated so that the optimum of
	// Problem equals the optimum of the original instance. When ProvedUnsat
	// is set it contains an explicit contradiction instead.
	Problem *pb.Problem
	// ProvedUnsat reports that presolve proved the instance infeasible.
	ProvedUnsat bool

	// NewToOld maps each variable of Problem to its original index.
	NewToOld []pb.Var
	// OldToNew maps original variables to reduced indices (-1 when fixed).
	OldToNew []int32

	// ProbeFixed counts variables fixed by propagation/probing;
	// PersistencyFixed those fixed by the costed persistency rule;
	// Rounds the persistency fixpoint iterations.
	ProbeFixed       int
	PersistencyFixed int
	Rounds           int

	// fixedVal[v] is the fixed polarity of original variable v: 0, 1, or
	// -1 when v survived into Problem.
	fixedVal []int8
	origVars int
}

// NumFixed returns how many original variables were eliminated.
func (f *Fixing) NumFixed() int { return f.ProbeFixed + f.PersistencyFixed }

// FixedValue reports the fixed polarity of original variable v (ok=false
// when v survived into the reduced problem).
func (f *Fixing) FixedValue(v pb.Var) (bool, bool) {
	if f.fixedVal[v] < 0 {
		return false, false
	}
	return f.fixedVal[v] == 1, true
}

// Lift maps an assignment of the reduced problem back to the original
// variable space: fixed variables take their fixed polarity, survivors copy
// their reduced value. values must have length Problem.NumVars.
func (f *Fixing) Lift(values []bool) []bool {
	out := make([]bool, f.origVars)
	for v := 0; v < f.origVars; v++ {
		switch {
		case f.fixedVal[v] >= 0:
			out[v] = f.fixedVal[v] == 1
		default:
			out[v] = values[f.OldToNew[v]]
		}
	}
	return out
}

// FixVariables runs the presolve fixing pipeline on p (which is not
// modified) — root propagation, failed-literal probing of every variable,
// then the costed persistency rule iterated to fixpoint with row
// deactivation — and returns the reduced problem plus the variable mapping.
func FixVariables(p *pb.Problem) (*Fixing, error) {
	f := &Fixing{
		fixedVal: make([]int8, p.NumVars),
		origVars: p.NumVars,
	}
	for v := range f.fixedVal {
		f.fixedVal[v] = -1
	}

	// Phase 1: necessary assignments via root propagation + probing. All
	// fixes land on the engine's root trail, in original numbering.
	e := engine.New(p)
	if e.SeedUnits() < 0 || e.Propagate() >= 0 {
		return f.provedUnsat(), nil
	}
	if _, unsat := probeFailed(e, probeOrder(p, 0), nil); unsat {
		return f.provedUnsat(), nil
	}
	for i := 0; i < e.TrailSize(); i++ {
		l := e.TrailLit(i)
		if l.IsNeg() {
			f.fixedVal[l.Var()] = 0
		} else {
			f.fixedVal[l.Var()] = 1
		}
		f.ProbeFixed++
	}

	// Phase 2: costed persistency fixpoint. A row is active while its
	// residual degree (degree minus fixed-true contributions) is positive;
	// only active rows pin variables.
	pos := make([]int, p.NumVars)
	neg := make([]int, p.NumVars)
	for {
		f.Rounds++
		for v := range pos {
			pos[v], neg[v] = 0, 0
		}
		for _, c := range p.Constraints {
			residual, infeasible := residualDegree(c, f.fixedVal)
			if infeasible {
				return f.provedUnsat(), nil
			}
			if residual <= 0 {
				continue
			}
			for _, t := range c.Terms {
				if f.fixedVal[t.Lit.Var()] >= 0 {
					continue
				}
				if t.Lit.IsNeg() {
					neg[t.Lit.Var()]++
				} else {
					pos[t.Lit.Var()]++
				}
			}
		}
		changed := false
		for v := 0; v < p.NumVars; v++ {
			if f.fixedVal[v] >= 0 {
				continue
			}
			switch {
			case pos[v] == 0:
				// Only ¬v remains (or v is unconstrained): v=0 helps
				// every active row and pays nothing (cost ≥ 0).
				f.fixedVal[v] = 0
				f.PersistencyFixed++
				changed = true
			case neg[v] == 0 && p.Cost[v] == 0:
				// Only v remains and raising it is free.
				f.fixedVal[v] = 1
				f.PersistencyFixed++
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Phase 3: rewrite over the survivors with dense renumbering.
	f.OldToNew = make([]int32, p.NumVars)
	for v := 0; v < p.NumVars; v++ {
		if f.fixedVal[v] >= 0 {
			f.OldToNew[v] = -1
			continue
		}
		f.OldToNew[v] = int32(len(f.NewToOld))
		f.NewToOld = append(f.NewToOld, pb.Var(v))
	}
	q := pb.NewProblem(len(f.NewToOld))
	q.CostOffset = p.CostOffset
	for nv, ov := range f.NewToOld {
		q.SetCost(pb.Var(nv), p.Cost[ov])
		if ov < pb.Var(len(p.Names)) {
			for len(q.Names) < nv {
				q.Names = append(q.Names, "")
			}
			q.Names = append(q.Names, p.Names[ov])
		}
	}
	for v := 0; v < p.NumVars; v++ {
		if f.fixedVal[v] == 1 {
			q.CostOffset += p.Cost[v]
		}
	}
	var terms []pb.Term
	for _, c := range p.Constraints {
		residual, infeasible := residualDegree(c, f.fixedVal)
		if infeasible {
			return f.provedUnsat(), nil
		}
		if residual <= 0 {
			continue
		}
		terms = terms[:0]
		var liveSum int64
		for _, t := range c.Terms {
			nv := f.OldToNew[t.Lit.Var()]
			if nv < 0 {
				continue // fixed: true literals already reduced the degree
			}
			terms = append(terms, pb.Term{Coef: t.Coef, Lit: pb.MkLit(pb.Var(nv), t.Lit.IsNeg())})
			liveSum += t.Coef
		}
		if liveSum < residual {
			return f.provedUnsat(), nil
		}
		if err := q.AddConstraint(terms, pb.GE, residual); err != nil {
			return nil, fmt.Errorf("preprocess: rewriting constraint: %w", err)
		}
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("preprocess: reduced problem invalid: %w", err)
	}
	f.Problem = q
	return f, nil
}

// provedUnsat finalizes f as an infeasibility proof: the reduced problem is
// an explicit contradiction so downstream solvers agree without special
// casing, and no variable mapping is needed (Lift is never called on UNSAT).
func (f *Fixing) provedUnsat() *Fixing {
	f.ProvedUnsat = true
	q := pb.NewProblem(0)
	markUnsat(q)
	f.Problem = q
	f.NewToOld = nil
	f.OldToNew = nil
	return f
}

// residualDegree computes c's degree minus the contributions of fixed-true
// literals. infeasible reports a row every literal of which is fixed false
// while the residual stays positive.
func residualDegree(c *pb.Constraint, fixedVal []int8) (residual int64, infeasible bool) {
	residual = c.Degree
	anyLive := false
	for _, t := range c.Terms {
		switch fv := fixedVal[t.Lit.Var()]; {
		case fv < 0:
			anyLive = true
		case (fv == 1) != t.Lit.IsNeg():
			residual -= t.Coef
		}
	}
	return residual, residual > 0 && !anyLive
}

// probeOrder returns variables ordered by descending occurrence count,
// optionally truncated.
func probeOrder(p *pb.Problem, maxVars int) []pb.Var {
	occ := make([]int, p.NumVars)
	for _, c := range p.Constraints {
		for _, t := range c.Terms {
			occ[t.Lit.Var()]++
		}
	}
	order := make([]pb.Var, p.NumVars)
	for v := range order {
		order[v] = pb.Var(v)
	}
	sort.Slice(order, func(a, b int) bool {
		if occ[order[a]] != occ[order[b]] {
			return occ[order[a]] > occ[order[b]]
		}
		return order[a] < order[b]
	})
	if maxVars > 0 && len(order) > maxVars {
		order = order[:maxVars]
	}
	return order
}
