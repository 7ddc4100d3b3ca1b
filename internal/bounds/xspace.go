package bounds

import (
	"repro/internal/pb"
)

// xEntry is one coefficient of a reduced row converted to x-space
// (literals ¬x_v replaced by 1−x_v).
type xEntry struct {
	local int // index into xProblem.vars
	coef  float64
}

// xRow is a reduced row in x-space: Σ coef·x ≥ rhs.
type xRow struct {
	engIdx  int
	entries []xEntry
	rhs     float64
}

// xProblem is the x-space view of a reduced problem, shared by the LPR and
// LGR estimators. Its slices double as buffers: build and addRow reuse
// their capacity, so an xProblem kept across estimations (LPRState keeps
// one) stops allocating once it has grown to the largest node seen.
type xProblem struct {
	vars []pb.Var // unassigned variables appearing in the rows
	rows []xRow
	cost []float64 // per local variable
	// slot[v] is 1 + the local index of variable v, 0 while v has none.
	slot []int

	// Scratch of lagrangianValue and capToCompletion.
	alpha []float64
	resp  []int
	xTrue map[pb.Var]bool
}

// index returns the local index of v, or −1 when v is not in the problem.
func (xp *xProblem) index(v pb.Var) int {
	if int(v) < len(xp.slot) {
		return xp.slot[v] - 1
	}
	return -1
}

// local returns the compact index of v, registering it (with its cost) on
// first sight. Cut installation extends the variable set after build when
// a pooled cut mentions a variable no reduced row does.
func (xp *xProblem) local(v pb.Var, cost []int64) int {
	if i := xp.index(v); i >= 0 {
		return i
	}
	if int(v) >= len(xp.slot) {
		xp.slot = append(xp.slot, make([]int, len(cost)-len(xp.slot))...)
	}
	i := len(xp.vars)
	xp.slot[v] = i + 1
	xp.vars = append(xp.vars, v)
	xp.cost = append(xp.cost, float64(cost[v]))
	return i
}

// forget unregisters the variables from local index k on (cut rollback).
func (xp *xProblem) forget(k int) {
	for _, v := range xp.vars[k:] {
		xp.slot[v] = 0
	}
	xp.vars = xp.vars[:k]
	xp.cost = xp.cost[:k]
}

// addRow appends an empty row, reusing the entry buffer a previous
// estimation left at that position.
func (xp *xProblem) addRow(engIdx int, rhs float64) *xRow {
	k := len(xp.rows)
	if k < cap(xp.rows) {
		xp.rows = xp.rows[:k+1]
		xp.rows[k] = xRow{engIdx: engIdx, entries: xp.rows[k].entries[:0], rhs: rhs}
	} else {
		xp.rows = append(xp.rows, xRow{engIdx: engIdx, rhs: rhs})
	}
	return &xp.rows[k]
}

// toXSpace converts the reduced rows to x-space in a fresh xProblem.
func toXSpace(red *Reduced, cost []int64) *xProblem {
	xp := &xProblem{}
	xp.build(red, cost)
	return xp
}

// build converts the reduced rows to x-space over a compact local variable
// indexing, replacing whatever xp held.
func (xp *xProblem) build(red *Reduced, cost []int64) {
	xp.forget(0)
	xp.rows = xp.rows[:0]
	for _, row := range red.Rows {
		xr := xp.addRow(row.EngIdx, float64(row.Degree))
		for _, t := range row.Terms {
			j := xp.local(t.Lit.Var(), cost)
			a := float64(t.Coef)
			if t.Lit.IsNeg() {
				// a·(1−x) = a − a·x: coefficient −a, rhs reduced by a.
				xr.entries = append(xr.entries, xEntry{j, -a})
				xr.rhs -= a
			} else {
				xr.entries = append(xr.entries, xEntry{j, a})
			}
		}
	}
}

// lagrangianValue computes the weak-duality bound
//
//	L(y) = Σ_{i∈S} y_i·rhs_i + Σ_j min(0, α_j),  α_j = c_j − Σ_{i∈S} y_i·G_ij
//
// for the multipliers y (indexed like xp.rows; entries ≤ eps are treated as
// zero and excluded from S). It returns the bound value, the set S of row
// indices with positive multipliers, and the α vector (for the §4.3 filter
// and the free minimizer x_j = 1 iff α_j < 0). S and α live in xp's scratch
// and stay valid until the next call.
func (xp *xProblem) lagrangianValue(y []float64, eps float64) (val float64, s []int, alpha []float64) {
	alpha = append(xp.alpha[:0], xp.cost...)
	s = xp.resp[:0]
	for i, yi := range y {
		if yi <= eps {
			continue
		}
		s = append(s, i)
		val += yi * xp.rows[i].rhs
		for _, e := range xp.rows[i].entries {
			alpha[e.local] -= yi * e.coef
		}
	}
	for _, a := range alpha {
		if a < 0 {
			val += a
		}
	}
	xp.alpha, xp.resp = alpha, s
	return val, s, alpha
}

// alphaFilter implements the §4.3 refinement: for each *assigned* variable
// occurring in the responsible constraints, compute
//
//	α_v = c_v − Σ_{i∈S} y_i·G_iv
//
// using the original constraints' x-space coefficients, and exclude
//
//	v assigned 0 with α_v > margin   (freeing v cannot lower the bound)
//	v assigned 1 with α_v < −margin  (the bound already pays for freeing v)
//
// from the ω_pl explanation. isTrue/isFalse report the assignment; coefAt
// enumerates (variable, x-space coefficient) pairs of original constraint i.
func alphaFilter(
	sRows []int,
	y []float64,
	cost []int64,
	rowVars func(rowIdx int, visit func(v pb.Var, xCoef float64)),
	assignedValue func(v pb.Var) (value bool, assigned bool),
) map[pb.Var]bool {
	const margin = 1e-4
	alphaV := map[pb.Var]float64{}
	for _, i := range sRows {
		yi := y[i]
		if yi <= 0 {
			continue
		}
		rowVars(i, func(v pb.Var, xCoef float64) {
			if _, ok := alphaV[v]; !ok {
				alphaV[v] = float64(cost[v])
			}
			alphaV[v] -= yi * xCoef
		})
	}
	var excluded map[pb.Var]bool
	for v, av := range alphaV {
		val, assigned := assignedValue(v)
		if !assigned {
			continue
		}
		drop := (!val && av > margin) || (val && av < -margin)
		if drop {
			if excluded == nil {
				excluded = map[pb.Var]bool{}
			}
			excluded[v] = true
		}
	}
	return excluded
}
