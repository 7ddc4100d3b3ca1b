package lp

import (
	"fmt"
	"math"

	"repro/internal/fault"
)

// This file implements warm-started re-solving for sequences of related LPs
// (§3.1 usage pattern: one LP relaxation per search node, with consecutive
// nodes differing in a handful of assigned variables). The previous optimal
// basis is snapshotted under caller-stable integer identities, mapped onto
// the next problem's columns and rows, installed by a Gauss-Jordan crash,
// repaired to primal feasibility by a dual simplex pass, and polished by the
// ordinary primal simplex. Any step that fails — too few identities survive
// the node transition, a corrupted pivot, numerical trouble, a stalled dual
// pass — abandons the warm attempt and falls back to the classical cold
// solve, so warm starting is strictly an acceleration: it can never change
// the set of statuses the caller observes, only how fast Optimal is reached.
//
// Soundness note. The caller (bounds.LPR) never trusts the objective of a
// warm solution directly: it recomputes the bound from the returned duals via
// the weak-duality Lagrangian formula, which is valid for any y ≥ 0. A stale
// or badly mapped basis therefore yields a weaker bound, never an unsound
// one.

// basicID identifies the variable occupying a basis row, in caller-key space
// so it survives column/row renumbering between problems.
type basicID struct {
	// surplus marks the surplus variable of the row identified by key;
	// otherwise key identifies a structural variable.
	surplus bool
	key     int64
}

// basis is a snapshot of a simplex basis keyed by the caller's stable
// identities. SolveWarm stores it in the Workspace and starts the next call
// from it.
type basis struct {
	// rowKeys[k] is a row's key and ids[k] the identity of its basic
	// variable.
	rowKeys []int64
	ids     []basicID
}

// len returns the number of snapshotted basis rows.
func (b *basis) len() int {
	if b == nil {
		return 0
	}
	return len(b.rowKeys)
}

// Workspace holds every buffer a solve needs — the tableau rows, the basic
// solution and its bookkeeping, the per-phase scratch, the key maps of the
// warm crash and the basis snapshots — so that a sequence of solves through
// one Workspace allocates, once its buffers have grown to the largest
// problem seen, only the slices of each returned Solution. Reusing a
// Workspace never changes a result: every solve starts from buffers reset
// to exactly the state fresh ones would have. That holds after a solve that
// panicked too: a tableau entry is written only once its column is in the
// row's pattern, so reset clears whatever an interrupted solve wrote.
//
// A Workspace also carries the warm-start basis from one SolveWarm call to
// the next. The zero value is ready to use. Not safe for concurrent use.
type Workspace struct {
	s simplex

	// basis is what the next SolveWarm starts from (nil: solve cold). It
	// points at one of snaps, and the next snapshot goes to the other
	// buffer so the one being read is never overwritten mid-crash.
	basis *basis
	snaps [2]basis

	// Scratch of crashBasis.
	rowAt   keyIndex // row key → current row
	prevVar keyIndex // previous structural basic key → its basis index
	colOf   []int    // previous basis index → current column, or −1
	slot    []int    // row → index into the previous basis, or −1
	want    []int    // mapped basic columns, in row order
	pivoted []bool
}

// keyIndex is an open-addressing hash table from int64 keys to int32
// values, reused across solves: reset empties it in O(1) by advancing a
// generation stamp, and put and get inline into the crash's key loops.
type keyIndex struct {
	keys  []int64
	vals  []int32
	gen   []uint32
	cur   uint32
	shift uint
}

// reset empties t and sizes it for n keys at load factor at most 1/2.
func (t *keyIndex) reset(n int) {
	lg := uint(3)
	for 1<<lg < 2*n {
		lg++
	}
	if len(t.keys) < 1<<lg {
		t.keys = make([]int64, 1<<lg)
		t.vals = make([]int32, 1<<lg)
		t.gen = make([]uint32, 1<<lg)
		t.cur = 0
	}
	for 1<<lg < len(t.keys) {
		lg++
	}
	t.shift = 64 - lg
	if t.cur++; t.cur == 0 {
		clear(t.gen)
		t.cur = 1
	}
}

// slot returns the probe start of key k (Fibonacci hashing).
func (t *keyIndex) slot(k int64) int {
	return int(uint64(k) * 0x9e3779b97f4a7c15 >> t.shift)
}

// put maps k to v; keys are unique by the SolveWarm contract.
func (t *keyIndex) put(k int64, v int32) {
	mask := len(t.keys) - 1
	i := t.slot(k)
	for t.gen[i] == t.cur && t.keys[i] != k {
		i = (i + 1) & mask
	}
	t.gen[i], t.keys[i], t.vals[i] = t.cur, k, v
}

// get returns the value mapped to k.
func (t *keyIndex) get(k int64) (int32, bool) {
	mask := len(t.keys) - 1
	for i := t.slot(k); t.gen[i] == t.cur; i = (i + 1) & mask {
		if t.keys[i] == k {
			return t.vals[i], true
		}
	}
	return 0, false
}

// Invalidate drops the stored basis: the next SolveWarm solves cold. The
// buffers are kept.
func (w *Workspace) Invalidate() { w.basis = nil }

// HasBasis reports whether a basis is stored for the next SolveWarm (it may
// snapshot zero rows, in which case that call still solves cold).
func (w *Workspace) HasBasis() bool { return w.basis != nil }

// Solve solves p from scratch in w's buffers; see the package-level Solve.
// The stored warm-start basis is left as it was.
func (w *Workspace) Solve(p *Problem) (Solution, error) {
	lo, hi, infeasible, err := w.s.validate(p)
	if err != nil {
		return Solution{}, err
	}
	if infeasible {
		return Solution{Status: Infeasible}, nil
	}
	sol, _ := w.s.solveCold(p, lo, hi)
	return sol, nil
}

// SolveWarm solves p starting from the basis stored by w's previous
// SolveWarm call on a related problem, and stores the final basis for the
// next call (or drops it when the solve ended without a usable basis).
// varKeys[j] and rowKeys[i] are caller-chosen stable identities for column j
// and row i — the same logical variable/constraint must receive the same key
// across calls, and keys must be unique within a call. No stored basis (or
// an unmappable one) degrades to the cold Solve path. Solution.Warm reports
// whether the previous basis was actually reused; a caller that had a basis
// stored and observes Warm == false has witnessed a cold fallback.
//
// The warm start restores only the basic columns: every nonbasic column
// starts at its lower bound. The one caller, LPR's dual LP, has no finite
// upper bound.
//
// A warm attempt that fails once p.Deadline has passed starts no cold
// solve: the call returns IterLimit with no point.
func (w *Workspace) SolveWarm(p *Problem, varKeys, rowKeys []int64) (Solution, error) {
	prev := w.basis
	w.basis = nil
	if len(varKeys) != p.NumVars {
		return Solution{}, fmt.Errorf("lp: len(varKeys)=%d != NumVars=%d", len(varKeys), p.NumVars)
	}
	if len(rowKeys) != len(p.Rows) {
		return Solution{}, fmt.Errorf("lp: len(rowKeys)=%d != len(Rows)=%d", len(rowKeys), len(p.Rows))
	}
	s := &w.s
	lo, hi, infeasible, err := s.validate(p)
	if err != nil {
		return Solution{}, err
	}
	if infeasible {
		return Solution{Status: Infeasible}, nil
	}
	next := &w.snaps[0]
	if next == prev {
		next = &w.snaps[1]
	}
	if prev.len() > 0 && len(p.Rows) > 0 {
		if sol, ok := w.warm(p, lo, hi, varKeys, rowKeys, prev); ok {
			s.snapshot(next, varKeys, rowKeys)
			w.basis = next
			return sol, nil
		}
		if s.expired() {
			return Solution{Status: IterLimit, Iterations: s.iters}, nil
		}
	}
	sol, ok := s.solveCold(p, lo, hi)
	if ok && (sol.Status == Optimal || sol.Status == IterLimit) {
		s.snapshot(next, varKeys, rowKeys)
		w.basis = next
	}
	return sol, nil
}

// warm runs the warm-start ladder — build, crash, dual repair, primal polish
// — and reports false whenever a step fails, sending the caller cold.
func (w *Workspace) warm(p *Problem, lo, hi []float64, varKeys, rowKeys []int64, prev *basis) (Solution, bool) {
	s := &w.s
	s.buildWarm(p, lo, hi)
	if !w.crashBasis(varKeys, rowKeys, prev) {
		return Solution{}, false
	}
	s.refreshBeta()
	if s.corrupted() {
		return Solution{}, false
	}
	copy(s.cost, p.Cost)
	// Dual pass: restore primal feasibility while (approximately) preserving
	// dual feasibility. Anything but Optimal means the mapped basis was not
	// worth keeping.
	if st := s.runDual(s.cost); st != Optimal {
		return Solution{}, false
	}
	// Polish with the true costs: the dual pass may have shifted costs to
	// stay well-defined, and the crash may have left mild dual
	// infeasibility; the primal simplex finishes from a primal-feasible
	// basis that is typically a handful of pivots from optimal.
	st := s.run(s.cost)
	if st == Unbounded || st == Numerical {
		return Solution{}, false
	}
	sol := s.extractSolution(p, lo, hi, st)
	if sol.Status == Numerical {
		return Solution{}, false
	}
	sol.Warm = true
	return sol, true
}

// buildWarm resets the working state for p with rows in their natural
// (non-negated) orientation — A_i·x − s_i = b_i with the surplus column −1 —
// and artificials locked at zero from the start. Unlike the cold slack-basis
// crash, no row is negated: the basis comes from the previous solve, not
// from the sign of the initial residual. The dual-extraction identity
// d_surplus_i = y_i holds in this orientation too (the stored surplus column
// is B⁻¹·(−e_i), so −cB·B⁻¹·(−e_i) = y_i).
func (s *simplex) buildWarm(p *Problem, lo, hi []float64) {
	s.reset(p, lo, hi)
	n, m := s.n, s.m
	// Artificials stay locked at zero: the crash never needs them feasible,
	// only pivotable (their +1 entry is guaranteed intact when their row
	// comes up, see crashBasis).
	for j := n + m; j < s.nTot; j++ {
		s.hi[j] = 0
	}
	for i, r := range p.Rows {
		row := s.tab[i]
		for _, e := range r.Entries {
			s.note(i, e.Var)
			row[e.Var] += e.Coef
		}
		s.note(i, n+i)
		s.note(i, n+m+i)
		row[n+i] = -1.0  // surplus
		row[n+m+i] = 1.0 // artificial (locked)
		s.rhsB[i] = r.RHS
	}
}

// crashBasis maps prev onto the current problem and installs it by
// Gauss-Jordan pivots with partial pivoting. A basis is a column SET —
// which row a basic column ends up attached to is irrelevant to
// feasibility — so rather than tying each previous column to its previous
// row (whose pivot entry may have become zero in fixed-order elimination
// even though the set is nonsingular), the crash pivots each mapped column
// in whichever remaining row has the largest entry. For a nonsingular
// mapped set in exact arithmetic every column then finds a pivot, so on an
// unchanged problem the crash reconstructs the previous basis exactly and
// the dual pass confirms feasibility with zero iterations.
//
// Rows left unpivoted (unmapped rows, dependent or corrupted columns) fall
// back to their own surplus, then their own artificial. Both fallbacks have
// guaranteed unit-magnitude pivots: column n+r (resp. n+m+r) is nonzero
// only in row r of the initial tableau, and while row r remains unpivoted
// it is never used as a pivot row, so no elimination can spread that column
// into other rows or alter row r's own entry — tab[r][n+r] is still exactly
// −1 and tab[r][n+m+r] exactly +1 when row r's fallback turn comes.
//
// The crash declines (cold fallback) when fewer than half the rows map, in
// which case installing the remnant would cost more pivoting than it saves,
// and when the deadline has passed, which it polls every 64 mapped columns
// as the simplex loops poll it every 64 iterations.
//
// Keys are mapped through two small tables: the current row keys, and the
// previous basis's structural keys, which the current variable keys are
// looked up in — so only O(m) keys are inserted per crash, not one per
// column.
//
// fault point "lp.warmcrash": tests corrupt mapped pivot values to force the
// per-column fallback and, en masse, the cold fallback.
func (w *Workspace) crashBasis(varKeys, rowKeys []int64, prev *basis) bool {
	s := &w.s
	n, m := s.n, s.m
	w.rowAt.reset(m)
	for i, k := range rowKeys {
		w.rowAt.put(k, int32(i))
	}
	// Current column of each previous structural basic variable.
	w.prevVar.reset(len(prev.ids))
	for k, id := range prev.ids {
		if !id.surplus {
			w.prevVar.put(id.key, int32(k))
		}
	}
	w.colOf = filled(w.colOf, len(prev.ids), -1)
	for j, key := range varKeys {
		if k, ok := w.prevVar.get(key); ok {
			w.colOf[k] = j
		}
	}
	// Attach each previous basis row to the current row with its key.
	w.slot = filled(w.slot, m, -1)
	for k, key := range prev.rowKeys {
		if i, ok := w.rowAt.get(key); ok {
			w.slot[i] = k
		}
	}
	// The desired basic column set in row order, deduplicated via inBasis as
	// a scratch "seen" marker (reset below before the pivots mark real basis
	// members).
	want := w.want[:0]
	for i := 0; i < m; i++ {
		k := w.slot[i]
		if k < 0 {
			continue
		}
		c := w.colOf[k]
		if id := prev.ids[k]; id.surplus {
			if r, ok := w.rowAt.get(id.key); ok {
				c = n + int(r)
			}
		}
		if c >= 0 && !s.inBasis[c] {
			s.inBasis[c] = true
			want = append(want, c)
		}
	}
	w.want = want
	for _, c := range want {
		s.inBasis[c] = false
	}
	if 2*len(want) < m {
		return false // mapping too poor: the crash would mostly build a slack basis anyway
	}
	w.pivoted = zeroed(w.pivoted, m)
	for k, col := range want {
		if k%64 == 63 && s.expired() {
			return false
		}
		// The pivot row is the unpivoted row with the largest entry among
		// those the elimination must update.
		best, bestAbs := -1, epsPivot
		colRows := s.gatherCol(col)
		for _, i := range colRows {
			if a := math.Abs(s.tab[i][col]); a > bestAbs && !w.pivoted[i] {
				best, bestAbs = i, a
			}
		}
		if best < 0 {
			continue // dependent or vanished column: its row falls back below
		}
		piv := fault.Corrupt("lp.warmcrash", s.tab[best][col])
		if math.IsNaN(piv) || math.IsInf(piv, 0) || math.Abs(piv) < epsPivot {
			continue
		}
		s.crashPivot(best, col, piv, len(colRows) > 1)
		w.pivoted[best] = true
	}
	// The fallback columns are nonzero in their own row only (see above):
	// no elimination.
	for r := 0; r < m; r++ {
		if w.pivoted[r] {
			continue
		}
		if !s.inBasis[n+r] {
			s.crashPivot(r, n+r, s.tab[r][n+r], false) // exactly −1 (see above)
		} else {
			s.crashPivot(r, n+m+r, s.tab[r][n+m+r], false) // exactly +1
		}
	}
	return true
}

// filled returns buf resized to n elements, all v.
func filled(buf []int, n, v int) []int {
	buf = zeroed(buf, n)
	for i := range buf {
		buf[i] = v
	}
	return buf
}

// crashPivot makes col basic in row r, walking the row's pattern; others
// reports that some other row has a nonzero in col and needs the
// elimination (those rows are in s.colRows). Unit-magnitude pivots skip the scaling and unit columns (the
// common case for the LPR dual, whose w columns are unit vectors) the
// elimination.
func (s *simplex) crashPivot(r, col int, piv float64, others bool) {
	rowR := s.tab[r]
	if inv := 1.0 / piv; inv != 1.0 {
		for _, j := range s.pat[r] {
			if v := rowR[j]; v != 0 {
				rowR[j] = v * inv
			}
		}
		s.rhsB[r] *= inv
	}
	if others {
		nz := s.nz[:0]
		for _, j := range s.pat[r] {
			if rowR[j] != 0 {
				nz = append(nz, int(j))
			}
		}
		s.nz = nz
		s.recordFill(r)
		s.eliminate(r, col)
	}
	s.basis[r] = col
	s.inBasis[col] = true
}

// runDual restores primal feasibility from a dual-reasonable basis by dual
// simplex steps: pick the most bound-violating basic variable, drive it to
// the violated bound, and bring in the nonbasic column that preserves dual
// feasibility at minimal reduced-cost ratio. Dual feasibility of the start
// is manufactured where needed by cost shifting (raising the working cost of
// a wrong-signed nonbasic column just past zero); shifts only distort the
// path, not the outcome, because the caller re-runs the primal simplex with
// the true costs afterwards. Returns Optimal when every basic variable is
// within bounds, Infeasible when a violated row has no eligible entering
// column (primal infeasible or hopeless mapping), IterLimit/Numerical on
// budget exhaustion or corruption — everything but Optimal sends the caller
// to the cold path.
func (s *simplex) runDual(cost []float64) Status {
	cols := s.activeCols()
	s.markActive(cols)
	s.wcost = zeroed(s.wcost, s.nTot)
	copy(s.wcost, cost)
	wcost := s.wcost
	s.d = zeroed(s.d, s.nTot)
	d := s.d
	shift := func() {
		for _, j := range cols {
			if s.inBasis[j] {
				continue
			}
			if s.status[j] == atLower && d[j] < -epsCost {
				wcost[j] += -d[j] + epsCost
				d[j] = epsCost
			} else if s.status[j] == atUpper && d[j] > epsCost {
				wcost[j] += -epsCost - d[j]
				d[j] = -epsCost
			}
		}
	}
	s.reducedCosts(wcost, d, cols)
	shift()

	for ; s.iters < s.maxIter; s.iters++ {
		if s.iters%64 == 63 && s.expired() {
			return IterLimit
		}
		if s.iters%256 == 255 {
			s.refreshBeta()
			if s.corrupted() {
				return Numerical
			}
		}
		// Leaving row: most violated basic bound.
		r := -1
		worst := epsBound
		for i := 0; i < s.m; i++ {
			bi := s.basis[i]
			if v := s.lo[bi] - s.beta[i]; v > worst {
				worst = v
				r = i
			}
			if !math.IsInf(s.hi[bi], 1) {
				if v := s.beta[i] - s.hi[bi]; v > worst {
					worst = v
					r = i
				}
			}
		}
		if r == -1 {
			return Optimal // primal feasible
		}
		leave := s.basis[r]
		below := s.beta[r] < s.lo[leave]
		target := s.lo[leave]
		if !below {
			target = s.hi[leave]
		}
		// Entering column: dual ratio test. Moving nonbasic j off its bound
		// by t (direction dir_j) changes beta[r] by −α_j·dir_j·t; we need it
		// to move toward target. Among eligible columns, minimize the
		// reduced-cost ratio |d_j|/|α_j| (preserves dual feasibility), with
		// ties broken toward the largest pivot magnitude for stability.
		enter := -1
		bestRatio := math.Inf(1)
		bestAbs := 0.0
		row := s.tab[r]
		for _, j := range cols {
			if s.inBasis[j] || s.hi[j]-s.lo[j] < epsBound {
				continue
			}
			a := row[j]
			if math.Abs(a) < epsPivot {
				continue
			}
			var ok bool
			if s.status[j] == atLower { // dir +1: Δbeta[r] has sign −a
				ok = (a < 0) == below
			} else { // dir −1: Δbeta[r] has sign +a
				ok = (a > 0) == below
			}
			if !ok {
				continue
			}
			df := d[j]
			if s.status[j] == atUpper {
				df = -df
			}
			if df < 0 {
				df = 0 // numerically wrong-signed: treat as degenerate
			}
			abs := math.Abs(a)
			ratio := df / abs
			if ratio < bestRatio-epsPivot || (ratio < bestRatio+epsPivot && abs > bestAbs) {
				bestRatio = ratio
				bestAbs = abs
				enter = j
			}
		}
		if enter == -1 {
			return Infeasible // dual unbounded: no point salvaging this basis
		}
		piv := fault.Corrupt("lp.pivot", row[enter])
		if math.IsNaN(piv) || math.IsInf(piv, 0) {
			return Numerical
		}
		dir := 1.0
		if s.status[enter] == atUpper {
			dir = -1.0
		}
		t := (target - s.beta[r]) / (-piv * dir)
		if t < 0 {
			t = 0 // numerical noise; pivot is still the right basis change
		}
		colRows := s.colRows[:0]
		for i := 0; i < s.m; i++ {
			a := s.tab[i][enter]
			if a != 0 {
				colRows = append(colRows, i)
			}
			s.beta[i] -= a * dir * t
		}
		s.colRows = colRows
		if below {
			s.status[leave] = atLower
			s.xval[leave] = s.lo[leave]
		} else {
			s.status[leave] = atUpper
			s.xval[leave] = s.hi[leave]
		}
		s.inBasis[leave] = false
		enterVal := s.xval[enter] + dir*t
		s.inBasis[enter] = true
		s.basis[r] = enter
		s.beta[r] = enterVal
		s.scalePivotRow(r, 1.0/piv)
		s.recordFill(r)
		s.eliminate(r, enter)
		// Full recompute per iteration: dual repair runs for a handful of
		// steps at a typical node transition, so simplicity beats the
		// incremental update here; shift keeps the next ratio test
		// well-defined against drift.
		s.reducedCosts(wcost, d, cols)
		shift()
	}
	return IterLimit
}

// snapshot records the final basis into b under the caller's stable keys
// for reuse by the next SolveWarm call. Rows whose basic variable is an
// artificial (possible only on degenerate cold solves) are simply omitted —
// the crash treats them as unmapped and installs their surplus.
func (s *simplex) snapshot(b *basis, varKeys, rowKeys []int64) {
	b.rowKeys, b.ids = b.rowKeys[:0], b.ids[:0]
	for i := 0; i < s.m; i++ {
		bi := s.basis[i]
		switch {
		case bi < s.n:
			b.rowKeys = append(b.rowKeys, rowKeys[i])
			b.ids = append(b.ids, basicID{key: varKeys[bi]})
		case bi < s.n+s.m:
			b.rowKeys = append(b.rowKeys, rowKeys[i])
			b.ids = append(b.ids, basicID{surplus: true, key: rowKeys[bi-s.n]})
		}
	}
}
