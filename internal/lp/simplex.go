// Package lp implements a bounded-variable two-phase primal simplex solver,
// on a row-sparse tableau, for linear programs of the form
//
//	minimize   c·x
//	subject to Σ_j A_ij·x_j ≥ b_i    for every row i
//	           lo_j ≤ x_j ≤ hi_j     (default 0 ≤ x_j ≤ 1)
//
// This is the LP-relaxation substrate (§3.1 of the paper): the pseudo-Boolean
// relaxation always has 0/1 variable bounds, and the MILP baseline reuses the
// same solver with tightened bounds during branching. The implementation is a
// classical tableau simplex with upper-bounded variables, Dantzig pricing
// with a Bland's-rule fallback against cycling, and periodic recomputation of
// the basic solution to limit numerical drift.
//
// The tableau is stored as full-width rows, each with its nonzero pattern: a
// duplicate-free list of the columns that may be nonzero (every column the
// row was built with, plus the fill-in elimination records). Row operations —
// the cold crash, scaling, elimination, reduced costs, dual extraction and
// the reset between solves — walk the patterns instead of the full width, the
// ratio test walks the entering column's rows, and all of them skip only
// products with a zero factor, so every nonzero value comes out bitwise as
// the dense computation leaves it: sparsity changes no LP result beyond the
// sign of a zero.
package lp

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/fault"
)

// Entry is one nonzero coefficient of a row.
type Entry struct {
	Var  int
	Coef float64
}

// Row is the constraint Σ entries ≥ RHS.
type Row struct {
	Entries []Entry
	RHS     float64
}

// Problem is an LP instance. Lo and Hi may be nil, in which case every
// variable is bounded to [0,1].
type Problem struct {
	NumVars int
	Cost    []float64
	Rows    []Row
	Lo, Hi  []float64
	// MaxIter bounds the total number of simplex iterations (both phases).
	// Zero selects a size-dependent default.
	MaxIter int
	// Deadline, when non-zero, bounds wall-clock time: the solve returns
	// with Status IterLimit (the anytime outcome) as soon as the deadline is
	// observed, checked every few dozen iterations. This is how the search's
	// per-node bound budget propagates into the simplex.
	Deadline time.Time
}

// Status is the outcome of a solve.
type Status int

const (
	// Optimal: an optimal basic solution was found.
	Optimal Status = iota
	// Infeasible: the constraints admit no point within the bounds.
	Infeasible
	// Unbounded: the objective decreases without bound (cannot occur when
	// all variables have finite bounds).
	Unbounded
	// IterLimit: the iteration budget (or the wall-clock Deadline) was
	// exhausted before optimality.
	IterLimit
	// Numerical: floating-point corruption (NaN/Inf) was detected in the
	// working state; the solution is unusable. Callers should treat this as
	// a failed bound call and fall back to a cheaper procedure.
	Numerical
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Numerical:
		return "numerical"
	default:
		return "iterlimit"
	}
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	Objective float64
	// X is the primal solution (length NumVars).
	X []float64
	// Slack[i] = Σ A_ij·x_j − b_i for each row; a row is "tight" when its
	// slack is (numerically) zero.
	Slack []float64
	// Dual[i] is the dual multiplier of row i (≥ 0 at optimality for ≥ rows
	// in a minimization).
	Dual []float64
	// Iterations is the total simplex iteration count (including dual
	// simplex restoration steps on the warm-start path).
	Iterations int
	// Warm reports that the solve reused a previous basis (see SolveWarm);
	// false on the cold path, including warm attempts that fell back.
	Warm bool
}

const (
	epsPivot  = 1e-9
	epsCost   = 1e-7
	epsBound  = 1e-7
	epsPhase1 = 1e-6
)

type nbStatus uint8

const (
	atLower nbStatus = iota
	atUpper
)

// simplex is the working state of one solve. Every slice is a buffer owned
// by the enclosing Workspace: reset resizes and zeroes them for the next
// problem without reallocating once they have grown to its size.
//
// Row i of the tableau is tab[i] with pattern pat[i]. The pattern invariant:
// over the whole capacity of its buffer, a row is zero outside its pattern,
// and colMarks lists, for each column, exactly the rows whose pattern holds
// it. A row buffer keeps its pattern while it sits unused beyond m, so reset
// can clear exactly the entries a solve wrote.
type simplex struct {
	n, m     int // structural vars, rows
	nTot     int // n + m surplus + m artificial
	widest   int // largest nTot this simplex has been reset for
	cost     []float64
	lo, hi   []float64
	tab      [][]float64 // m rows, each nTot wide; row buffers are reused
	pat      [][]int32   // nonzero pattern of each row buffer
	marks    []uint64    // pattern membership, words bits per row
	words    int
	colMarks []uint64 // the transpose of marks, colWords bits per column
	colWords int
	nzBits   []uint64  // s.nz as a bitset (recordFill)
	rhsB     []float64 // B^{-1} b (working rhs under the same row ops)
	beta     []float64 // current value of basic variable per row
	basis    []int
	inBasis  []bool
	status   []nbStatus // nonbasic status per variable
	xval     []float64  // value of nonbasic variables (at a bound)
	iters    int
	maxIter  int
	deadline time.Time // zero = no wall-clock cap

	// Scratch of run, runDual, refreshBeta and extractSolution.
	cols    []int     // active columns of the current phase
	act     []bool    // column is in cols
	d       []float64 // reduced costs
	dir     []float64 // run's pricing direction: +1 at lower, −1 at upper, 0 basic or fixed
	wcost   []float64 // phase-1 or shifted working costs
	nz      []int     // nonzero pattern of the current pivot row
	colRows []int     // rows with a nonzero in the current pivot column
	nb      []int     // nonbasic columns with a nonzero value
	dense   []float64 // one structural row (cold crash)
	rowCols []int32   // its columns in ascending order (cold crash)
	lo0     []float64 // default bounds for a Problem without Lo
	hi1     []float64 // default bounds for a Problem without Hi
}

// zeroed returns buf resized to n zero elements, reallocating only when its
// capacity is short.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, grownCap(cap(buf), n))
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// grownCap is the capacity of a buffer reallocated to hold n elements: exact
// on first allocation, with headroom when a buffer is outgrown, so a chain of
// problems that widen by a column at a time (cut installation) reallocates
// O(log) times rather than on every solve.
func grownCap(old, n int) int {
	if old == 0 {
		return n
	}
	return n + n/2
}

// validate checks the problem for malformed input and materializes the
// variable bounds. infeasible reports crossed bounds (lo > hi), a terminal
// verdict.
func (s *simplex) validate(p *Problem) (lo, hi []float64, infeasible bool, err error) {
	n := p.NumVars
	if len(p.Cost) != n {
		return nil, nil, false, fmt.Errorf("lp: len(Cost)=%d != NumVars=%d", len(p.Cost), n)
	}
	lo = p.Lo
	hi = p.Hi
	if lo == nil {
		s.lo0 = zeroed(s.lo0, n)
		lo = s.lo0
	}
	if hi == nil {
		s.hi1 = zeroed(s.hi1, n)
		for i := range s.hi1 {
			s.hi1[i] = 1
		}
		hi = s.hi1
	}
	if len(lo) != n || len(hi) != n {
		return nil, nil, false, fmt.Errorf("lp: bounds length mismatch")
	}
	for j := 0; j < n; j++ {
		if lo[j] > hi[j]+epsBound {
			return nil, nil, true, nil
		}
		if math.IsNaN(lo[j]) || math.IsNaN(hi[j]) || math.IsNaN(p.Cost[j]) {
			return nil, nil, false, fmt.Errorf("lp: NaN in input")
		}
		if math.IsInf(lo[j], 0) {
			// Every structural variable starts at its lower bound.
			return nil, nil, false, fmt.Errorf("lp: infinite lower bound of var %d", j)
		}
	}
	for i, r := range p.Rows {
		if math.IsNaN(r.RHS) {
			return nil, nil, false, fmt.Errorf("lp: NaN rhs in row %d", i)
		}
		for _, e := range r.Entries {
			if e.Var < 0 || e.Var >= n {
				return nil, nil, false, fmt.Errorf("lp: row %d references var %d out of range", i, e.Var)
			}
			if math.IsNaN(e.Coef) {
				return nil, nil, false, fmt.Errorf("lp: NaN coefficient in row %d", i)
			}
		}
	}
	return lo, hi, false, nil
}

// Solve solves the LP from scratch. It never panics on valid input;
// malformed input (entries out of range, NaN coefficients, lo > hi) yields
// an error. For re-solving a sequence of related LPs, see
// Workspace.SolveWarm; for a sequence of solves that should not allocate,
// see Workspace.
func Solve(p *Problem) (Solution, error) {
	var w Workspace
	return w.Solve(p)
}

// expired reports whether the solve's deadline has passed (never without
// one).
func (s *simplex) expired() bool {
	return !s.deadline.IsZero() && time.Now().After(s.deadline)
}

// reset sizes the working state for p — every buffer zeroed, as freshly
// allocated — with the structural bounds lo/hi, surplus and artificial
// columns in [0, +inf) and every structural variable nonbasic at its lower
// bound.
func (s *simplex) reset(p *Problem, lo, hi []float64) {
	n, m := p.NumVars, len(p.Rows)
	s.n, s.m, s.nTot = n, m, n+2*m
	s.widest = max(s.widest, s.nTot)
	s.iters = 0
	s.deadline = p.Deadline
	s.maxIter = p.MaxIter
	if s.maxIter == 0 {
		s.maxIter = 100*(n+m) + 5000
	}
	s.lo = zeroed(s.lo, s.nTot)
	s.hi = zeroed(s.hi, s.nTot)
	copy(s.lo, lo)
	copy(s.hi, hi)
	for j := n; j < s.nTot; j++ {
		s.hi[j] = math.Inf(1)
	}
	// Row buffers rather than one m × nTot block: a large contiguous block
	// cannot reuse the freed holes of a fragmented heap, and on a run of
	// many solves of different sizes that raised peak RSS by a fifth.
	if c := cap(s.tab); c < m {
		// One capacity for the two, so the row buffers beyond m keep
		// their patterns.
		nc := grownCap(c, m)
		s.tab = append(make([][]float64, 0, nc), s.tab[:c]...)
		s.pat = append(make([][]int32, 0, nc), s.pat[:c]...)
	}
	s.tab, s.pat = s.tab[:m], s.pat[:m]
	for i := range s.tab {
		s.clearRow(i)
	}
	s.words = (s.nTot + 63) >> 6
	s.marks = zeroed(s.marks, m*s.words)
	s.colWords = (m + 63) >> 6
	s.colMarks = zeroed(s.colMarks, s.nTot*s.colWords)
	s.rhsB = zeroed(s.rhsB, m)
	s.beta = zeroed(s.beta, m)
	s.basis = zeroed(s.basis, m)
	s.inBasis = zeroed(s.inBasis, s.nTot)
	s.status = zeroed(s.status, s.nTot)
	s.xval = zeroed(s.xval, s.nTot)
	for j := 0; j < n; j++ {
		s.xval[j] = lo[j]
	}
	s.cost = zeroed(s.cost, s.nTot)
}

// clearRow zeroes row buffer i through its pattern (the pattern invariant
// makes that the whole buffer) and sizes it to nTot columns. A new buffer is
// as wide as the widest problem seen, so rows first used by a small problem
// do not regrow when the next one is wider.
func (s *simplex) clearRow(i int) {
	row := s.tab[i]
	for _, j := range s.pat[i] {
		row[j] = 0
	}
	s.pat[i] = s.pat[i][:0]
	if cap(row) < s.nTot {
		row = make([]float64, s.nTot, max(s.widest, grownCap(cap(row), s.nTot)))
	}
	s.tab[i] = row[:s.nTot]
}

// note records column j in row i's pattern unless it is already there.
func (s *simplex) note(i, j int) {
	w := &s.marks[i*s.words+j>>6]
	if bit := uint64(1) << (j & 63); *w&bit == 0 {
		*w |= bit
		s.colMarks[j*s.colWords+i>>6] |= 1 << (i & 63)
		s.pat[i] = append(s.pat[i], int32(j))
	}
}

// solveCold runs the classical two-phase solve. ok reports that phase 2
// ended on a usable basis (false when the solve stopped before — infeasible,
// iteration-capped phase 1, or numerical corruption).
func (s *simplex) solveCold(p *Problem, lo, hi []float64) (sol Solution, ok bool) {
	s.reset(p, lo, hi)
	n, m := s.n, s.m

	// Working rows: A_i x − s_i = b_i, possibly negated so the initial
	// artificial value is non-negative with every structural nonbasic at its
	// lower bound and surplus at 0.
	//
	// Slack-basis crash: a row whose residual (with every structural
	// variable at its bound) is non-positive starts with its surplus
	// variable basic and needs no artificial; only rows with positive
	// residual get a basic artificial. Dual-style LPs (c ≥ 0, rhs ≤ 0)
	// therefore skip phase 1 entirely.
	//
	// The crash costs each row its own entries. Duplicate entries are summed
	// once per column into dense (cleared through the entries again), and
	// the row's nonzero columns become its pattern. The residual
	// b_i − Σ_j A_ij·x_j, which a loop over every column would sum in column
	// order, walks only the pattern: a column outside it adds a zero, which
	// can change only the sign of a zero sum. When every start value is 0
	// each term is a zero and the order is free; otherwise the pattern is
	// summed in ascending column order, as that loop did.
	s.dense = zeroed(s.dense, n)
	dense := s.dense
	allZero := s.startsAtZero()
	needPhase1 := false
	for i, r := range p.Rows {
		for _, e := range r.Entries {
			dense[e.Var] += e.Coef
		}
		for _, e := range r.Entries {
			if dense[e.Var] != 0 {
				s.note(i, e.Var)
			}
		}
		cols := s.pat[i]
		s.note(i, n+i)
		s.note(i, n+m+i)
		order := cols
		if !allZero {
			s.rowCols = append(s.rowCols[:0], cols...)
			slices.Sort(s.rowCols)
			order = s.rowCols
		}
		resid := r.RHS
		for _, j := range order {
			resid -= dense[j] * s.xval[j]
		}
		row := s.tab[i]
		if resid > 0 {
			// Artificial basic (coefficient +1 keeps the unit-column
			// invariant); phase 1 must drive it out.
			for _, j := range cols {
				row[j] = dense[j]
			}
			row[n+i] = -1.0  // surplus
			row[n+m+i] = 1.0 // artificial
			s.rhsB[i] = r.RHS
			s.basis[i] = n + m + i
			s.inBasis[n+m+i] = true
			s.beta[i] = resid
			needPhase1 = true
		} else {
			// Surplus basic: negate the row so its column is +1 (the
			// Gauss-Jordan invariant requires basic columns to be unit
			// vectors). The surplus value −resid is non-negative, so the
			// basis is feasible and no artificial is ever needed.
			for _, j := range cols {
				row[j] = -dense[j]
			}
			row[n+i] = 1.0    // surplus (negated from −1)
			row[n+m+i] = -1.0 // artificial (negated, permanently locked)
			s.rhsB[i] = -r.RHS
			s.basis[i] = n + i
			s.inBasis[n+i] = true
			s.beta[i] = -resid
			s.hi[n+m+i] = 0
		}
		for _, e := range r.Entries {
			dense[e.Var] = 0
		}
	}

	// Phase 1: minimize the artificial sum (skipped when the slack basis is
	// already feasible).
	if needPhase1 {
		s.wcost = zeroed(s.wcost, s.nTot)
		for j := n + m; j < s.nTot; j++ {
			s.wcost[j] = 1
		}
		st := s.run(s.wcost)
		if st == IterLimit || st == Numerical {
			return Solution{Status: st, Iterations: s.iters}, false
		}
		var art float64
		for i := 0; i < m; i++ {
			if s.basis[i] >= n+m {
				art += s.beta[i]
			}
		}
		for j := n + m; j < s.nTot; j++ {
			if !s.inBasis[j] {
				art += s.xval[j]
			}
		}
		if art > epsPhase1 {
			return Solution{Status: Infeasible, Iterations: s.iters}, false
		}
	}
	// Lock artificials at zero for phase 2.
	for j := n + m; j < s.nTot; j++ {
		s.hi[j] = 0
		if !s.inBasis[j] {
			s.xval[j] = 0
			s.status[j] = atLower
		}
	}

	// Phase 2.
	copy(s.cost, p.Cost)
	st := s.run(s.cost)
	if st == Unbounded || st == Numerical {
		return Solution{Status: st, Iterations: s.iters}, false
	}
	return s.extractSolution(p, lo, hi, st), true
}

// startsAtZero reports whether every structural variable starts at 0.
func (s *simplex) startsAtZero() bool {
	for _, x := range s.xval[:s.n] {
		if x != 0 {
			return false
		}
	}
	return true
}

// extractSolution reads the primal point, objective, slacks and duals out of
// the final simplex state. st is the phase-2 outcome (Optimal or IterLimit —
// in the latter case the basis is still primal-feasible, so the extracted
// point and duals remain usable: the anytime behaviour). X, Slack and Dual
// are carved from one fresh allocation: they are the caller's to keep.
func (s *simplex) extractSolution(p *Problem, lo, hi []float64, st Status) Solution {
	n, m := s.n, s.m
	sol := Solution{Status: Optimal, Iterations: s.iters}
	if st == IterLimit {
		// Anytime behaviour: the basis is still primal-feasible, so the
		// extracted point and duals remain usable (the objective is an
		// upper approximation of the optimum; the projected duals give a
		// valid Lagrangian bound).
		sol.Status = IterLimit
	}
	out := make([]float64, n+2*m)
	// Extract primal values.
	x := out[:n:n]
	for j := 0; j < n; j++ {
		if !s.inBasis[j] {
			x[j] = s.xval[j]
		}
	}
	for i := 0; i < m; i++ {
		if b := s.basis[i]; b < n {
			x[b] = s.beta[i]
		}
	}
	// Clamp into bounds (numerical noise only).
	for j := 0; j < n; j++ {
		if x[j] < lo[j] {
			x[j] = lo[j]
		}
		if x[j] > hi[j] {
			x[j] = hi[j]
		}
	}
	sol.X = x
	var obj float64
	for j := 0; j < n; j++ {
		obj += p.Cost[j] * x[j]
	}
	if math.IsNaN(obj) || math.IsInf(obj, 0) {
		// Corruption that slipped past the periodic checks (e.g. a NaN
		// introduced on the very last pivot): refuse to report a solution.
		return Solution{Status: Numerical, Iterations: s.iters}
	}
	sol.Objective = obj
	// Slacks from the original rows.
	sol.Slack = out[n : n+m : n+m]
	for i, r := range p.Rows {
		lhs := 0.0
		for _, e := range r.Entries {
			lhs += e.Coef * x[e.Var]
		}
		sol.Slack[i] = lhs - r.RHS
	}
	// Duals: the reduced cost of surplus variable i equals the dual of
	// original row i (sign conventions cancel; see package tests). Only
	// rows with a nonzero basic cost contribute, each through the surplus
	// columns of its pattern; every Dual[i] (cost of a surplus var is 0)
	// still subtracts its terms in row order, starting from +0, which the
	// zero terms a dense sum would add leave unchanged.
	sol.Dual = out[n+m:]
	for k := 0; k < m; k++ {
		c := s.cost[s.basis[k]]
		if c == 0 {
			continue
		}
		row := s.tab[k]
		for _, j := range s.pat[k] {
			if i := int(j) - n; i >= 0 && i < m {
				sol.Dual[i] -= c * row[j]
			}
		}
	}
	for i, d := range sol.Dual {
		if d < 0 && d > -epsCost {
			sol.Dual[i] = 0
		}
	}
	return sol
}

// activeCols collects the columns a phase works on into s.cols: a column
// must stay active when its variable is basic, can move, or sits nonbasic
// at a nonzero value (refreshBeta reads its tableau entries).
func (s *simplex) activeCols() []int {
	cols := s.cols[:0]
	for j := 0; j < s.nTot; j++ {
		if s.inBasis[j] || s.hi[j]-s.lo[j] >= epsBound || s.xval[j] != 0 {
			cols = append(cols, j)
		}
	}
	s.cols = cols
	return cols
}

// markActive flags the columns of cols in s.act for scalePivotRow, which
// walks a row's pattern rather than cols.
func (s *simplex) markActive(cols []int) {
	s.act = zeroed(s.act, s.nTot)
	for _, j := range cols {
		s.act[j] = true
	}
}

// reducedCosts recomputes d[j] = cost[j] − cB·B⁻¹A_j over cols from the
// current tableau, walking each row's pattern. A zero entry of a pattern
// changes at most the sign of a zero d[j], which only comparisons read.
// Entries of d outside cols are never read; the pattern may update them with
// stale values of inactive columns, which is harmless.
func (s *simplex) reducedCosts(cost, d []float64, cols []int) {
	for _, j := range cols {
		d[j] = cost[j]
	}
	for i := 0; i < s.m; i++ {
		c := cost[s.basis[i]]
		if c == 0 {
			continue
		}
		row := s.tab[i]
		for _, j := range s.pat[i] {
			d[j] -= c * row[j]
		}
	}
}

// scalePivotRow divides row r by its pivot over the active columns (through
// the multiplier inv = 1/piv) and records the row's nonzero pattern among
// them in s.nz. Inactive columns stay unscaled: no phase reads them. Zero
// entries are left alone: scaling them changes at most the sign of a zero.
func (s *simplex) scalePivotRow(r int, inv float64) {
	rowR := s.tab[r]
	act := s.act
	nz := s.nz[:0]
	for _, j := range s.pat[r] {
		if v := rowR[j]; v != 0 && act[j] {
			rowR[j] = v * inv
			nz = append(nz, int(j))
		}
	}
	s.nz = nz
	s.rhsB[r] *= inv
}

// recordFill extends the pattern of every row eliminate is about to update
// (s.colRows but the pivot row r) with the pivot row's columns s.nz it
// lacks — the fill-in. The pivot row's columns are set as a bitset, so a row
// that already covers them costs a few word operations. Kept apart from
// eliminate so the elimination stays a tight, inlinable loop.
func (s *simplex) recordFill(r int) {
	words := s.words
	nzBits := zeroed(s.nzBits, words)
	s.nzBits = nzBits
	for _, j := range s.nz {
		nzBits[j>>6] |= 1 << (j & 63)
	}
	for _, i := range s.colRows {
		if i == r {
			continue
		}
		marks := s.marks[i*words : (i+1)*words]
		for w, b := range nzBits {
			add := b &^ marks[w]
			if add == 0 {
				continue
			}
			marks[w] |= add
			for ; add != 0; add &= add - 1 {
				j := w<<6 + bits.TrailingZeros64(add)
				s.colMarks[j*s.colWords+i>>6] |= 1 << (i & 63)
				s.pat[i] = append(s.pat[i], int32(j))
			}
		}
	}
}

// gatherCol lists in s.colRows, in row order, the rows with a nonzero entry
// in column col. It visits only the rows whose pattern holds col (colMarks):
// every other row is zero there.
func (s *simplex) gatherCol(col int) []int {
	rows := s.colRows[:0]
	for k, b := range s.colMarks[col*s.colWords : (col+1)*s.colWords] {
		for ; b != 0; b &= b - 1 {
			if i := k<<6 + bits.TrailingZeros64(b); s.tab[i][col] != 0 {
				rows = append(rows, i)
			}
		}
	}
	s.colRows = rows
	return rows
}

// eliminate clears column col from every row but the (already scaled) pivot
// row r: the rows s.colRows, those with a nonzero in col, collected by the
// column scan that chose the pivot. It walks only the pivot row's nonzero
// pattern s.nz; recordFill must have run first. The updates it skips are
// those whose factor is zero, which leave an entry as it was up to the sign
// of a zero, so every nonzero entry comes out bitwise as a dense row
// operation would leave it.
func (s *simplex) eliminate(r, col int) {
	rowR := s.tab[r]
	br := s.rhsB[r]
	nz := s.nz
	for _, i := range s.colRows {
		if i == r {
			continue
		}
		rowI := s.tab[i]
		f := rowI[col]
		for _, j := range nz {
			rowI[j] -= f * rowR[j]
		}
		s.rhsB[i] -= f * br
	}
}

// run optimizes the given cost vector from the current basis. Returns
// Optimal, Unbounded or IterLimit.
//
// Reduced costs are maintained incrementally across pivots (recomputed
// periodically to contain drift), and all column work is restricted to the
// active columns: variables whose bounds allow movement or that sit in the
// basis. Locked artificials disappear from phase 2 entirely.
func (s *simplex) run(cost []float64) Status {
	cols := s.activeCols()
	s.markActive(cols)
	s.d = zeroed(s.d, s.nTot)
	d := s.d
	s.reducedCosts(cost, d, cols)

	// Pricing reads one array: dir[j] is the direction column j may move
	// in (+1 up from its lower bound, −1 down from its upper bound) and 0
	// for a basic or fixed column, whose product −0·d[j] never beats best.
	// Set here once, it changes only where the loop below changes a
	// column's status.
	s.dir = zeroed(s.dir, s.nTot)
	dir := s.dir
	for _, j := range cols {
		dir[j] = s.direction(j)
	}
	price := func(bland bool) int {
		enter := -1
		best := epsCost
		for _, j := range cols {
			if viol := -dir[j] * d[j]; viol > best {
				enter = j
				if bland {
					return j
				}
				best = viol
			}
		}
		return enter
	}

	blandAfter := s.maxIter / 2
	for ; s.iters < s.maxIter; s.iters++ {
		if s.iters%64 == 63 && s.expired() {
			// Wall-clock budget exhausted: stop with the current (still
			// primal-feasible) basis — the anytime outcome.
			return IterLimit
		}
		if s.iters%256 == 255 {
			s.refreshBeta()
			s.reducedCosts(cost, d, cols)
			if s.corrupted() {
				return Numerical
			}
		}
		bland := s.iters > blandAfter
		enter := price(bland)
		if enter == -1 {
			// Verify against exact reduced costs before declaring optimality
			// (d is maintained incrementally and may have drifted).
			s.reducedCosts(cost, d, cols)
			if enter = price(bland); enter == -1 {
				return Optimal
			}
		}
		dirE := dir[enter]
		// Ratio test over the rows a pivot on enter must eliminate: every
		// other row is zero in column enter and cannot block.
		t := s.hi[enter] - s.lo[enter] // bound-to-bound move
		blocking := -1
		colRows := s.gatherCol(enter)
		for _, i := range colRows {
			delta := -dirE * s.tab[i][enter]
			bi := s.basis[i]
			var limit float64
			switch {
			case delta > epsPivot:
				if math.IsInf(s.hi[bi], 1) {
					continue
				}
				limit = (s.hi[bi] - s.beta[i]) / delta
			case delta < -epsPivot:
				limit = (s.beta[i] - s.lo[bi]) / -delta
			default:
				continue
			}
			if limit < 0 {
				limit = 0
			}
			if limit < t-epsPivot || (limit < t+epsPivot && blocking >= 0 && bland && bi < s.basis[blocking]) {
				t = limit
				blocking = i
			}
		}
		if math.IsInf(t, 1) {
			return Unbounded
		}
		// Apply the move: it changes only the basic values of colRows.
		if t != 0 {
			for _, i := range colRows {
				s.beta[i] -= s.tab[i][enter] * dirE * t
			}
		}
		if blocking == -1 {
			// Bound flip: no basis change, reduced costs unchanged.
			if s.status[enter] == atLower {
				s.status[enter] = atUpper
				s.xval[enter] = s.hi[enter]
			} else {
				s.status[enter] = atLower
				s.xval[enter] = s.lo[enter]
			}
			dir[enter] = -dirE
			continue
		}
		r := blocking
		leave := s.basis[r]
		// Which bound did the leaving variable hit?
		if -dirE*s.tab[r][enter] > 0 {
			s.status[leave] = atUpper
			s.xval[leave] = s.hi[leave]
		} else {
			s.status[leave] = atLower
			s.xval[leave] = s.lo[leave]
		}
		s.inBasis[leave] = false
		enterVal := s.xval[enter] + dirE*t
		s.inBasis[enter] = true
		dir[enter], dir[leave] = 0, s.direction(leave)
		s.basis[r] = enter
		s.beta[r] = enterVal
		// Gauss-Jordan elimination on column enter, pivot row r.
		// fault point "lp.pivot": tests corrupt the pivot (NaN/overflow) to
		// exercise the Numerical detection and the caller's fallback ladder.
		piv := fault.Corrupt("lp.pivot", s.tab[r][enter])
		if math.IsNaN(piv) || math.IsInf(piv, 0) {
			return Numerical
		}
		if math.Abs(piv) < epsPivot {
			// Numerically unusable pivot: refresh and retry next iteration.
			s.refreshBeta()
			s.reducedCosts(cost, d, cols)
			continue
		}
		s.scalePivotRow(r, 1.0/piv)
		s.recordFill(r)
		s.eliminate(r, enter)
		// Incremental reduced-cost update: d' = d − d[enter]·rowR (rowR is
		// already the updated pivot row), using the true cost of the leaving
		// variable to restore its entry.
		if dEnter := d[enter]; dEnter != 0 {
			rowR := s.tab[r]
			for _, j := range s.nz {
				d[j] -= dEnter * rowR[j]
			}
		}
		d[enter] = 0
	}
	return IterLimit
}

// direction is run's pricing direction of column j: 0 when it is basic or
// fixed, +1 when it sits at its lower bound, −1 at its upper bound.
func (s *simplex) direction(j int) float64 {
	switch {
	case s.inBasis[j] || s.hi[j]-s.lo[j] < epsBound:
		return 0
	case s.status[j] == atLower:
		return 1
	default:
		return -1
	}
}

// corrupted reports whether floating-point corruption (NaN/Inf) has reached
// the working basic solution. Called from the periodic refresh so the cost
// stays off the per-pivot path.
func (s *simplex) corrupted() bool {
	for i := 0; i < s.m; i++ {
		if math.IsNaN(s.beta[i]) || math.IsInf(s.beta[i], 0) ||
			math.IsNaN(s.rhsB[i]) || math.IsInf(s.rhsB[i], 0) {
			return true
		}
	}
	return false
}

// refreshBeta recomputes the basic variable values from rhsB and the
// nonbasic bound values, limiting incremental floating-point drift. Only
// nonbasic columns with a nonzero value contribute, so they are listed once
// (in column order) rather than tested on every row; in the LPR dual, where
// every nonbasic variable sits at 0, the list is empty.
func (s *simplex) refreshBeta() {
	nb := s.nb[:0]
	for j := 0; j < s.nTot; j++ {
		if !s.inBasis[j] && s.xval[j] != 0 {
			nb = append(nb, j)
		}
	}
	s.nb = nb
	for i := 0; i < s.m; i++ {
		v := s.rhsB[i]
		row := s.tab[i]
		for _, j := range nb {
			v -= row[j] * s.xval[j]
		}
		s.beta[i] = v
	}
}
