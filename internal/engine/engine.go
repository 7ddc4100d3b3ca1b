// Package engine implements the SAT-style search substrate that bsolo builds
// on (§1, §3 of the paper): Boolean constraint propagation generalized to
// pseudo-Boolean constraints, conflict-based clause learning with 1UIP
// analysis, non-chronological backtracking, and VSIDS branching.
//
// The engine deliberately exposes a low-level stepping API (Decide /
// Propagate / Analyze / BacktrackTo) instead of a closed solve loop: the
// branch-and-bound driver in internal/core interleaves lower-bound
// computation, bound-conflict generation and constraint inference between
// propagation fixpoints, which requires owning the search loop.
//
// Propagation is counter-based: every constraint tracks the coefficient sum
// of its non-false literals (watchSum) and of its true literals (trueSum).
// With slack = watchSum − degree,
//
//	slack < 0                        ⇒ the constraint is conflicting,
//	coef(l) > slack, l unassigned    ⇒ l is implied true,
//	trueSum ≥ degree                 ⇒ the constraint is satisfied.
//
// trueSum is maintained eagerly in assign; watchSum is maintained lazily —
// the decrement for a falsified literal is applied when Propagate consumes
// its complement from the trail queue, fused with the conflict/implication
// check so each falsification walks its occurrence lists exactly once.
// Between assign and consumption, watchSum (hence slack) reads transiently
// HIGH: implications and conflicts are delayed, never invented, and every
// counter is exact at propagation fixpoint (propHead == len(trail)).
//
// Storage is struct-of-arrays: constraint metadata lives in a flat header
// slice (consHdr) and the terms of all constraints share two flat arenas —
// one for literals, one for coefficients — addressed by per-constraint
// offset/length. The problem rows are the constraints New builds; they come
// first and never move. Learned rows follow them, and ReduceDB deletes and
// renumbers those. The per-literal occurrence index is a CSR (compressed
// sparse row) built once over the problem rows, plus small dynamic
// per-literal lists for the counter-based learned rows. Occurrence
// entries carry the term's coefficient inline, so the two hottest loops
// (Propagate's fused wave and BacktrackTo's counter restore) touch only the
// occurrence stream and the header — never the arenas. See DESIGN.md §13.
package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"repro/internal/pb"
)

// Value of a variable during search.
type Value int8

const (
	// False assignment.
	False Value = iota
	// True assignment.
	True
	// Unassigned variable.
	Unassigned
)

// NoReason marks decision variables and external assumptions in the reason
// slice.
const NoReason int32 = -1

// Constraint header flags. A row is learned iff its index is at least the
// problem-row count, so no flag records that.
const (
	// flagProtected learned constraints (incumbent cuts) survive ReduceDB.
	flagProtected uint8 = 1 << iota
	// flagWatched marks learned clauses propagated by the two-watched-literal
	// scheme (see watched.go); they have no occurrence entries and no
	// satisfaction counters.
	flagWatched
)

// Per-row watcher-notification state, packed one byte per problem row
// in Engine.satState. Keeping it out of consHdr means FlushConsDeltas scans
// a dense byte array (L1-resident even for large stores) instead of
// re-touching one 56-byte header cache line per dirty constraint.
const (
	// stateCur mirrors the constraint's current satisfaction, maintained at
	// transition time (when the header is already hot in cache).
	stateCur uint8 = 1 << iota
	// stateLast is the satisfaction state last reported to the watcher.
	stateLast
	// stateDirty marks the constraint as queued in Engine.dirty.
	stateDirty
)

// consHdr is the per-constraint header of the struct-of-arrays store: the
// terms of constraint i are lits[off:off+n] / coefs[off:off+n].
type consHdr struct {
	off   int32
	n     int32
	flags uint8

	degree   int64
	watchSum int64 // Σ coef over non-false literals
	trueSum  int64 // Σ coef over true literals
	maxCoef  int64

	// activity drives learned-constraint garbage collection: bumped when
	// the constraint participates in conflict analysis, decayed per
	// conflict.
	activity float64
}

func (h *consHdr) watched() bool   { return h.flags&flagWatched != 0 }
func (h *consHdr) satisfied() bool { return h.trueSum >= h.degree }

// Cons is a read-only view of one stored constraint. Lits and Coefs alias
// the engine's term arenas: the view is transient — valid until the next
// call that grows or compacts the store (AddCons, LearnAndBackjump,
// ImportClause, ReduceDB). Copy what you keep.
type Cons struct {
	Lits   []pb.Lit
	Coefs  []int64
	Degree int64

	watchSum int64
	trueSum  int64
}

// Len returns the number of terms.
func (c Cons) Len() int { return len(c.Lits) }

// Slack returns watchSum − degree under the assignment at view time.
func (c Cons) Slack() int64 { return c.watchSum - c.Degree }

// Satisfied reports whether the constraint is already satisfied by true
// literals alone.
func (c Cons) Satisfied() bool { return c.trueSum >= c.Degree }

// TrueSum returns the coefficient sum of currently-true literals.
func (c Cons) TrueSum() int64 { return c.trueSum }

// occRef is one occurrence-index entry: constraint index plus the term's
// coefficient, inlined so counter updates never chase into the arenas.
// Coefficients are immutable after AddCons, so the copy cannot go stale.
type occRef struct {
	cons int32
	coef int64
}

// Stats counts search events.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	// Learned counts the learned constraints conflict analysis or an
	// import added; AddProtected rows are not among them.
	Learned  int64
	MaxTrail int
	// Imported counts foreign clauses installed via ImportClause (units and
	// watched clauses; rejected or dropped imports are not counted).
	Imported int64
	// RandomDecisions counts branch picks made by the seeded RNG (see
	// SeedRandom) instead of VSIDS.
	RandomDecisions int64
}

// Engine is the CDCL search state.
type Engine struct {
	nVars int

	// Struct-of-arrays constraint store (see package comment). The first
	// problem headers are the problem rows.
	hdrs    []consHdr
	lits    []pb.Lit
	coefs   []int64
	problem int

	// occCSR/occOff form the immutable CSR occurrence index over the
	// problem rows: the rows containing literal l are
	// occCSR[occOff[l]:occOff[l+1]].
	occCSR []occRef
	occOff []int32
	// occDyn holds occurrence entries for the counter-based learned rows
	// (learned PB cuts, units, protected rows); ReduceDB renumbers them.
	occDyn [][]occRef

	value    []Value
	level    []int32
	reason   []int32 // constraint index, or NoReason
	trailPos []int32
	trail    []pb.Lit
	trailLim []int
	propHead int

	// numUnsatisfied counts problem rows that are not yet satisfied by true
	// literals.
	numUnsatisfied int

	activity []float64
	varInc   float64
	consInc  float64
	heap     *varHeap
	phase    []Value

	// seen is scratch space for Analyze.
	seen []bool

	// pending holds constraint indices whose degree was tightened in place
	// (UpdateDegree); Propagate re-examines them before draining the trail,
	// since counter-based propagation only fires on literal falsification.
	pending []int32

	// watchList[l] lists the watched learned clauses currently watching
	// literal l (see watched.go).
	watchList [][]int32

	// consWatcher, when non-nil, observes satisfaction transitions of
	// problem rows (see notify.go). Registered via SetConsWatcher.
	// Transitions are coalesced per propagation wave: assign/backtrack only
	// mark constraints dirty, and FlushConsDeltas delivers the net
	// transitions in one ConsWave call.
	consWatcher ConsWatcher
	dirty       []int32
	satState    []uint8 // state* bits per problem row (see const block)
	satBuf      []int32
	unsatBuf    []int32

	// numDyn counts the live counter-based learned rows (the only ones with
	// occDyn entries). While zero — the common case until PB cuts are
	// learned or units imported — the hot loops skip the occDyn indexing
	// entirely.
	numDyn int

	// moved maps learned row problem+i before the last ReduceDB to its index
	// after it (-1: deleted); cands is ReduceDB's candidate scratch.
	moved, cands []int32

	// rng, when non-nil, injects seeded random branching: with probability
	// randFreq a decision picks a random unassigned variable instead of the
	// VSIDS maximum (portfolio diversification). Deterministic per seed —
	// the only randomness in the engine, and always explicit.
	rng      *rand.Rand
	randFreq float64

	// Interrupt, when non-nil, is polled every ~1k propagations inside
	// Propagate; returning true stops the fixpoint early and Propagate
	// returns -1 (no conflict). The caller is expected to notice that its
	// budget expired and abort the search — the engine state stays
	// consistent (merely not yet at fixpoint; a later Propagate resumes).
	// This is how deadline/cancellation checks reach propagation-heavy
	// nodes that would otherwise overshoot the time limit by seconds.
	Interrupt func() bool

	Stats Stats

	// arr is the record New borrowed the arrays in (see Release).
	arr *arrays
}

// New builds an engine for the given normalized problem. Constraints that
// are unsatisfiable on their own (degree exceeding coefficient sum) make the
// root level conflicting; detect that with an initial Propagate.
func New(p *pb.Problem) *Engine {
	a, _ := arrayPool.Get().(*arrays)
	if a == nil {
		a = new(arrays)
	}
	n := p.NumVars
	e := &Engine{
		nVars:     n,
		value:     cleared(a.value, n),
		level:     cleared(a.level, n),
		reason:    cleared(a.reason, n),
		trailPos:  cleared(a.trailPos, n),
		activity:  cleared(a.activity, n),
		phase:     cleared(a.phase, n),
		seen:      cleared(a.seen, n),
		occDyn:    cleared(a.occDyn, 2*n),
		watchList: cleared(a.watchList, 2*n),
		varInc:    1,
		consInc:   1,
		arr:       a,
	}
	for v := range e.value {
		e.value[v] = Unassigned
		e.reason[v] = NoReason
	}
	e.heap = newVarHeap(e.activity, a.heap, a.heapIdx)
	for v := 0; v < n; v++ {
		e.heap.push(pb.Var(v))
	}

	// Build the SoA store and the CSR occurrence index in two passes:
	// count occurrences per literal, prefix-sum into row offsets, then fill
	// arena spans and CSR cells. Everything is unassigned at New, so the
	// counters are watchSum = Σcoef, trueSum = 0.
	total := 0
	for _, c := range p.Constraints {
		total += len(c.Terms)
	}
	e.lits = cleared(a.lits, total)[:0]
	e.coefs = cleared(a.coefs, total)[:0]
	e.hdrs = cleared(a.hdrs, len(p.Constraints))[:0]
	e.occOff = cleared(a.occOff, 2*n+1)
	for _, c := range p.Constraints {
		for _, t := range c.Terms {
			e.occOff[t.Lit+1]++
		}
	}
	for l := 1; l < len(e.occOff); l++ {
		e.occOff[l] += e.occOff[l-1]
	}
	e.occCSR = cleared(a.occCSR, total)
	a.cursor = cleared(a.cursor, 2*n)
	cursor := a.cursor
	copy(cursor, e.occOff[:2*n])
	for ci, c := range p.Constraints {
		h := consHdr{off: int32(len(e.lits)), n: int32(len(c.Terms)), degree: c.Degree}
		for _, t := range c.Terms {
			e.lits = append(e.lits, t.Lit)
			e.coefs = append(e.coefs, t.Coef)
			h.watchSum += t.Coef
			if t.Coef > h.maxCoef {
				h.maxCoef = t.Coef
			}
			e.occCSR[cursor[t.Lit]] = occRef{int32(ci), t.Coef}
			cursor[t.Lit]++
		}
		if !h.satisfied() {
			e.numUnsatisfied++
		}
		e.hdrs = append(e.hdrs, h)
	}
	e.problem = len(e.hdrs)
	e.satState = cleared(a.satState, e.problem)
	return e
}

// arrays holds the slices New sizes from its problem. A solver that builds
// one engine per solve hands them back with Release, and a later New — of
// any problem and size — takes them from arrayPool instead of allocating.
// New clears each to its fresh value first, so an engine on reused arrays
// searches exactly as one on new arrays.
type arrays struct {
	value, phase                                     []Value
	level, reason, trailPos, occOff, cursor, heapIdx []int32
	activity                                         []float64
	seen                                             []bool
	occDyn                                           [][]occRef
	watchList                                        [][]int32
	lits                                             []pb.Lit
	coefs                                            []int64
	hdrs                                             []consHdr
	occCSR                                           []occRef
	satState                                         []uint8
	heap                                             []pb.Var
}

var arrayPool sync.Pool

// cleared returns buf resized to n zero elements, reallocating only when
// its capacity is short.
func cleared[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Release hands the engine's arrays back for a later New to reuse. The
// engine keeps only its Stats: any other use after Release panics. Nil-safe,
// and a second call does nothing.
func (e *Engine) Release() {
	if e == nil || e.arr == nil {
		return
	}
	a := e.arr
	*a = arrays{
		value: e.value, phase: e.phase,
		level: e.level, reason: e.reason, trailPos: e.trailPos, occOff: e.occOff,
		cursor: a.cursor, heapIdx: e.heap.indices,
		activity: e.activity, seen: e.seen,
		occDyn: e.occDyn, watchList: e.watchList,
		lits: e.lits, coefs: e.coefs, hdrs: e.hdrs, occCSR: e.occCSR,
		satState: e.satState, heap: e.heap.heap,
	}
	arrayPool.Put(a)
	*e = Engine{Stats: e.Stats}
}

// csr returns the immutable CSR occurrence row of literal l.
func (e *Engine) csr(l pb.Lit) []occRef {
	return e.occCSR[e.occOff[l]:e.occOff[l+1]]
}

// NumVars returns the variable count.
func (e *Engine) NumVars() int { return e.nVars }

// NumCons returns the number of stored constraints (problem + learned).
// Indices below the problem-row count never change; ReduceDB renumbers the
// learned rows above it (see Moved).
func (e *Engine) NumCons() int { return len(e.hdrs) }

// Cons returns a read-only view of the i-th stored constraint. The view's
// term slices alias the engine arenas and are invalidated by the next store
// mutation (AddCons / LearnAndBackjump / ImportClause / ReduceDB); counters
// (TrueSum, Slack, Satisfied) are copied at call time.
func (e *Engine) Cons(i int) Cons {
	h := &e.hdrs[i]
	end := h.off + h.n
	return Cons{
		Lits:     e.lits[h.off:end:end],
		Coefs:    e.coefs[h.off:end:end],
		Degree:   h.degree,
		watchSum: h.watchSum,
		trueSum:  h.trueSum,
	}
}

// Value returns the current assignment of v.
func (e *Engine) Value(v pb.Var) Value { return e.value[v] }

// LitValue returns the truth value of literal l under the current partial
// assignment.
func (e *Engine) LitValue(l pb.Lit) Value {
	v := e.value[l.Var()]
	if v == Unassigned {
		return Unassigned
	}
	if l.IsNeg() {
		return 1 - v
	}
	return v
}

// Level returns the decision level at which v was assigned (meaningful only
// when assigned).
func (e *Engine) Level(v pb.Var) int { return int(e.level[v]) }

// DecisionLevel returns the current decision level (0 = root).
func (e *Engine) DecisionLevel() int { return len(e.trailLim) }

// TrailSize returns the number of assigned variables.
func (e *Engine) TrailSize() int { return len(e.trail) }

// TrailLit returns the i-th literal on the trail.
func (e *Engine) TrailLit(i int) pb.Lit { return e.trail[i] }

// DecisionLit returns the decision literal of level lvl (1-based; lvl must
// be in [1, DecisionLevel()]).
func (e *Engine) DecisionLit(lvl int) pb.Lit { return e.trail[e.trailLim[lvl-1]] }

// NumUnsatisfied returns the count of problem rows not yet satisfied by
// true literals.
func (e *Engine) NumUnsatisfied() int { return e.numUnsatisfied }

// AddCons appends the normalized learned constraint Σ terms ≥ degree to the
// store, initializing its propagation counters from the current assignment.
// It returns the constraint index. The caller must ensure terms are
// normalized (positive clipped coefficients sorted by descending
// coefficient, one term per variable) — constraints from pb.AddConstraint or
// derived clauses satisfy this. A clause of literals can be added with
// coefficient 1 each and degree 1. The terms are interned into the engine
// arenas; the input slice is neither retained nor mutated. The constraint
// (derived from a conflict, or imported) may be deleted by ReduceDB and
// counts in Stats.Learned.
func (e *Engine) AddCons(terms []pb.Term, degree int64) int {
	e.Stats.Learned++
	return e.addCons(terms, degree, 0)
}

// AddProtected adds a learned constraint that ReduceDB never removes and
// Stats.Learned does not count: a row the search derives from its incumbent
// (the incumbent cuts, semantically irreplaceable), which no conflict
// learned.
func (e *Engine) AddProtected(terms []pb.Term, degree int64) int {
	return e.addCons(terms, degree, flagProtected)
}

func (e *Engine) addCons(terms []pb.Term, degree int64, flags uint8) int {
	h := consHdr{off: int32(len(e.lits)), n: int32(len(terms)), degree: degree, flags: flags}
	idx := int32(len(e.hdrs))
	for _, t := range terms {
		e.lits = append(e.lits, t.Lit)
		e.coefs = append(e.coefs, t.Coef)
		if t.Coef > h.maxCoef {
			h.maxCoef = t.Coef
		}
		// occDyn[l] lists exactly the constraints whose stored term literal
		// is l: when l turns true those constraints gain trueSum, and when l
		// turns false (its complement assigned) they lose watchSum.
		e.occDyn[t.Lit] = append(e.occDyn[t.Lit], occRef{idx, t.Coef})
		switch e.LitValue(t.Lit) {
		case Unassigned:
			h.watchSum += t.Coef
		case True:
			h.watchSum += t.Coef
			h.trueSum += t.Coef
		case False:
			// watchSum decrements are applied when Propagate consumes the
			// falsifying trail literal. If that literal is still queued
			// (trail position >= propHead), the decrement is yet to come:
			// count the coefficient now so the books balance when it does.
			if int(e.trailPos[t.Lit.Var()]) >= e.propHead {
				h.watchSum += t.Coef
			}
		}
	}
	e.numDyn++
	e.hdrs = append(e.hdrs, h)
	return int(idx)
}

// noteTransition records a satisfaction transition of problem row ci (to
// satisfied when sat, to unsatisfied otherwise) for the next
// FlushConsDeltas, queueing ci at most once. Call sites guard on an attached
// watcher only. The state byte carries the current satisfaction, so the
// flush never has to re-read the header.
func (e *Engine) noteTransition(ci int32, sat bool) {
	s := e.satState[ci]
	ns := (s &^ stateCur) | stateDirty
	if sat {
		ns |= stateCur
	}
	e.satState[ci] = ns
	if s&stateDirty == 0 {
		e.dirty = append(e.dirty, ci)
	}
}

// Assign makes l true at the current decision level with the given reason
// constraint (NoReason for decisions). It panics if l's variable is already
// assigned — callers must check first.
func (e *Engine) assign(l pb.Lit, reason int32) {
	v := l.Var()
	if e.value[v] != Unassigned {
		panic(fmt.Sprintf("engine: double assignment of %v", v))
	}
	if l.IsNeg() {
		e.value[v] = False
	} else {
		e.value[v] = True
	}
	e.level[v] = int32(e.DecisionLevel())
	e.reason[v] = reason
	e.trailPos[v] = int32(len(e.trail))
	e.trail = append(e.trail, l)
	if len(e.trail) > e.Stats.MaxTrail {
		e.Stats.MaxTrail = len(e.trail)
	}
	// Update trueSum eagerly: l is now true. The CSR rows are the problem
	// rows, whose satisfaction the watcher tracks; the dynamic rows are
	// learned, and nobody tracks theirs. The watchSum decrement for ¬l is
	// deferred to Propagate's queue-consumption loop, where it fuses with
	// the conflict/implication check — one occurrence-list pass per
	// falsified literal instead of two. Until l is consumed, watchSum of
	// constraints containing ¬l reads transiently HIGH (slack too large):
	// implications and conflicts are merely delayed to consumption time,
	// never invented.
	watching := e.consWatcher != nil
	hdrs := e.hdrs
	for _, ref := range e.csr(l) {
		h := &hdrs[ref.cons]
		wasSat := h.trueSum >= h.degree
		h.trueSum += ref.coef
		if !wasSat && h.trueSum >= h.degree {
			e.numUnsatisfied--
			if watching {
				e.noteTransition(ref.cons, true)
			}
		}
	}
	if e.numDyn != 0 {
		for _, ref := range e.occDyn[l] {
			hdrs[ref.cons].trueSum += ref.coef
		}
	}
}

// Decide starts a new decision level and assigns l true.
func (e *Engine) Decide(l pb.Lit) {
	e.Stats.Decisions++
	e.trailLim = append(e.trailLim, len(e.trail))
	e.assign(l, NoReason)
}

// Enqueue asserts l at the current decision level with an optional reason
// constraint index (use NoReason for external assumptions). It returns false
// if l is already false (immediate conflict the caller must handle) and true
// otherwise (including when l was already true).
func (e *Engine) Enqueue(l pb.Lit, reason int32) bool {
	switch e.LitValue(l) {
	case True:
		return true
	case False:
		return false
	}
	e.assign(l, reason)
	return true
}

// bumpCons increases a constraint's activity (called when it participates
// in conflict analysis).
func (e *Engine) bumpCons(idx int32) {
	h := &e.hdrs[idx]
	h.activity += e.consInc
	if h.activity > rescaleLimit {
		for i := range e.hdrs {
			e.hdrs[i].activity *= 1 / rescaleLimit
		}
		e.consInc *= 1 / rescaleLimit
	}
}

// ReduceDB deletes roughly half of the unprotected learned constraints,
// keeping the most active. It must be called at decision level 0 (after a
// restart): at the root no learned constraint above level 0 is a reason, and
// the reasons of root-level assignments are kept. One pass slides the
// survivors' headers and term spans down in their current order and
// renumbers every index the engine holds (root reasons, occurrence and watch
// lists, pending checks); Moved maps a caller's learned-row index through
// the same renumbering. Problem rows never move. Outstanding Cons views are
// invalidated, which is why ReduceDB sits on the between-nodes path only.
// It returns the number of constraints deleted.
func (e *Engine) ReduceDB() int {
	e.moved = e.moved[:0]
	if e.DecisionLevel() != 0 {
		return 0
	}
	// Until the pass below, fate[i] is the fate of learned row problem+i:
	// 1 keeps a root reason, -1 deletes, 0 is a candidate or kept.
	fate := cleared(e.moved, len(e.hdrs)-e.problem)
	for _, l := range e.trail {
		if r := int(e.reason[l.Var()]); r >= e.problem {
			fate[r-e.problem] = 1
		}
	}
	cands := e.cands[:0]
	for i := e.problem; i < len(e.hdrs); i++ {
		if e.hdrs[i].flags&flagProtected == 0 && fate[i-e.problem] == 0 {
			cands = append(cands, int32(i))
		}
	}
	e.cands = cands
	if len(cands) < 2 {
		e.moved = fate[:0]
		return 0
	}
	sort.Slice(cands, func(a, b int) bool {
		return e.hdrs[cands[a]].activity < e.hdrs[cands[b]].activity
	})
	deleted := len(cands) / 2
	for _, ci := range cands[:deleted] {
		fate[int(ci)-e.problem] = -1
	}
	// Slide the survivors down; fate becomes the renumbering. Problem spans
	// precede every learned span, so the arena write starts at the first
	// learned span.
	w, at := e.problem, e.hdrs[e.problem].off
	e.numDyn = 0
	for i := e.problem; i < len(e.hdrs); i++ {
		if fate[i-e.problem] < 0 {
			continue
		}
		fate[i-e.problem] = int32(w)
		h := e.hdrs[i]
		copy(e.lits[at:], e.lits[h.off:h.off+h.n])
		copy(e.coefs[at:], e.coefs[h.off:h.off+h.n])
		h.off = at
		at += h.n
		e.hdrs[w] = h
		w++
		if !h.watched() {
			e.numDyn++
		}
	}
	e.hdrs, e.lits, e.coefs = e.hdrs[:w], e.lits[:at], e.coefs[:at]
	e.moved = fate
	for _, l := range e.trail {
		e.reason[l.Var()] = e.renumber(e.reason[l.Var()])
	}
	for l, refs := range e.occDyn {
		kept := refs[:0]
		for _, ref := range refs {
			if ref.cons = e.renumber(ref.cons); ref.cons >= 0 {
				kept = append(kept, ref)
			}
		}
		e.occDyn[l] = kept
	}
	for l, list := range e.watchList {
		e.watchList[l] = e.renumberAll(list)
	}
	e.pending = e.renumberAll(e.pending)
	return deleted
}

// Moved maps the index a constraint had before the last ReduceDB to its
// index now, or to -1 when that ReduceDB deleted it. Problem rows, -1, and
// every index when that call deleted nothing map to themselves. Call it
// before the store grows again.
func (e *Engine) Moved(old int) int { return int(e.renumber(int32(old))) }

func (e *Engine) renumber(ci int32) int32 {
	if i := int(ci) - e.problem; i >= 0 && i < len(e.moved) {
		return e.moved[i]
	}
	return ci
}

// renumberAll renumbers list in place, dropping deleted constraints.
func (e *Engine) renumberAll(list []int32) []int32 {
	kept := list[:0]
	for _, ci := range list {
		if ci = e.renumber(ci); ci >= 0 {
			kept = append(kept, ci)
		}
	}
	return kept
}

// UpdateDegree tightens constraint idx to a strictly larger degree in place
// (used for the eq. 10/13 incumbent cuts, which dominate their predecessors
// whenever the upper bound improves — replacing beats accumulating, since
// every accumulated dense cut slows all future occurrence-list traversals).
// idx must be a learned row (no problem-row bookkeeping follows it), and its
// terms must NOT have been coefficient-clipped against the old degree. The
// constraint is scheduled for re-examination on the next Propagate call.
func (e *Engine) UpdateDegree(idx int, degree int64) {
	h := &e.hdrs[idx]
	if degree <= h.degree {
		return
	}
	h.degree = degree
	e.pending = append(e.pending, int32(idx))
}

// SeedUnits scans every constraint at the root level and enqueues literals
// that are implied before any decision is made (e.g. unit clauses, or large
// coefficients forced by the degree). Call once before the search loop, then
// Propagate. It returns the number of literals enqueued, or -1 when a
// constraint is conflicting at the root (the instance is unsatisfiable).
func (e *Engine) SeedUnits() int {
	count := 0
	for ci := range e.hdrs {
		h := &e.hdrs[ci]
		if h.watched() || h.satisfied() {
			continue
		}
		slack := h.watchSum - h.degree
		if slack < 0 {
			return -1
		}
		if slack >= h.maxCoef {
			continue
		}
		ls := e.lits[h.off : h.off+h.n]
		cs := e.coefs[h.off : h.off+h.n]
		for k, coef := range cs {
			if coef <= slack {
				break
			}
			if e.LitValue(ls[k]) == Unassigned {
				e.assign(ls[k], int32(ci))
				count++
			}
		}
	}
	return count
}

// propagateCons examines counter-based constraint ci after one of its
// literals was falsified (or its degree tightened): detects conflict,
// asserts implied literals. Returns false on conflict.
func (e *Engine) propagateCons(ci int32) bool {
	h := &e.hdrs[ci]
	if h.trueSum >= h.degree {
		return true
	}
	slack := h.watchSum - h.degree
	if slack < 0 {
		e.Stats.Conflicts++
		return false
	}
	if slack >= h.maxCoef {
		return true
	}
	ls := e.lits[h.off : h.off+h.n]
	cs := e.coefs[h.off : h.off+h.n]
	for k, coef := range cs {
		if coef <= slack {
			break // terms sorted by descending coefficient
		}
		if e.LitValue(ls[k]) == Unassigned {
			e.assign(ls[k], ci)
		}
	}
	return true
}

// Propagate runs Boolean constraint propagation to fixpoint. It returns the
// index of a conflicting constraint, or -1 if no conflict was found.
func (e *Engine) Propagate() int {
	// Re-examine constraints whose degree was tightened in place.
	for len(e.pending) > 0 {
		ci := e.pending[len(e.pending)-1]
		h := &e.hdrs[ci]
		if h.satisfied() {
			e.pending = e.pending[:len(e.pending)-1]
			continue
		}
		if h.watchSum-h.degree < 0 {
			e.Stats.Conflicts++
			// Leave it pending: after backtracking the caller re-propagates
			// and the constraint is examined again at the new level.
			return int(ci)
		}
		e.pending = e.pending[:len(e.pending)-1]
		if !e.propagateCons(ci) {
			return int(ci) // cannot happen (slack checked above); defensive
		}
	}
	// None of these slices grow or move during propagation (assign appends
	// only to the trail), so hoisting them out of the wave loop saves the
	// field reloads and bounds-check setup per consumed literal.
	hdrs, lits, coefs := e.hdrs, e.lits, e.coefs
	occCSR, occOff := e.occCSR, e.occOff
	for e.propHead < len(e.trail) {
		// The interrupt poll sits before consumption: once propHead moves
		// past l, the watchSum decrements below are owed and an early
		// return would leave BacktrackTo's restore unbalanced.
		if e.Interrupt != nil && e.Stats.Propagations&1023 == 0 && e.Interrupt() {
			return -1 // budget expired mid-fixpoint; caller aborts
		}
		l := e.trail[e.propHead]
		e.propHead++
		e.Stats.Propagations++
		// Literal ¬l became false: every constraint containing ¬l loses
		// watchSum here (the decrement deferred by assign) and may now be
		// conflicting or propagating — one fused pass per occurrence list.
		nl := l.Neg()
		if len(e.watchList[nl]) != 0 {
			if confl := e.propagateWatches(nl); confl >= 0 {
				// propHead already moved past l, so BacktrackTo will treat it
				// as consumed: the decrements must land even though the
				// watched clause conflict aborts this wave.
				for _, ref := range e.csr(nl) {
					e.hdrs[ref.cons].watchSum -= ref.coef
				}
				if e.numDyn != 0 {
					for _, ref := range e.occDyn[nl] {
						e.hdrs[ref.cons].watchSum -= ref.coef
					}
				}
				return confl
			}
		}
		// On a counter conflict the remaining decrements for nl must still
		// be applied before returning, for the same reason.
		conflict := int32(-1)
		for _, ref := range occCSR[occOff[nl]:occOff[nl+1]] {
			h := &hdrs[ref.cons]
			h.watchSum -= ref.coef
			if conflict >= 0 || h.trueSum >= h.degree {
				continue
			}
			slack := h.watchSum - h.degree
			if slack < 0 {
				e.Stats.Conflicts++
				conflict = ref.cons
				continue
			}
			if slack >= h.maxCoef {
				continue
			}
			ls := lits[h.off : h.off+h.n]
			cs := coefs[h.off : h.off+h.n]
			for k, coef := range cs {
				if coef <= slack {
					break // terms sorted by descending coefficient
				}
				if e.LitValue(ls[k]) == Unassigned {
					e.assign(ls[k], ref.cons)
				}
			}
		}
		if e.numDyn != 0 {
			for _, ref := range e.occDyn[nl] {
				h := &e.hdrs[ref.cons]
				h.watchSum -= ref.coef
				if conflict >= 0 || h.trueSum >= h.degree {
					continue
				}
				slack := h.watchSum - h.degree
				if slack < 0 {
					e.Stats.Conflicts++
					conflict = ref.cons
					continue
				}
				if slack >= h.maxCoef {
					continue
				}
				ls := e.lits[h.off : h.off+h.n]
				cs := e.coefs[h.off : h.off+h.n]
				for k, coef := range cs {
					if coef <= slack {
						break
					}
					if e.LitValue(ls[k]) == Unassigned {
						e.assign(ls[k], ref.cons)
					}
				}
			}
		}
		if conflict >= 0 {
			return int(conflict)
		}
	}
	return -1
}

// BacktrackTo undoes all assignments above the given decision level.
func (e *Engine) BacktrackTo(lvl int) {
	if lvl >= e.DecisionLevel() {
		return
	}
	watching := e.consWatcher != nil
	limit := e.trailLim[lvl]
	// Only consumed literals (trail position < propHead) had their watchSum
	// decrement applied in Propagate; restore watchSum for exactly those.
	// trueSum is updated eagerly in assign, so it restores unconditionally.
	ph := e.propHead
	hdrs := e.hdrs
	occCSR, occOff := e.occCSR, e.occOff
	for i := len(e.trail) - 1; i >= limit; i-- {
		l := e.trail[i]
		v := l.Var()
		// Restore counters.
		for _, ref := range occCSR[occOff[l]:occOff[l+1]] {
			h := &hdrs[ref.cons]
			wasSat := h.trueSum >= h.degree
			h.trueSum -= ref.coef
			if wasSat && h.trueSum < h.degree {
				e.numUnsatisfied++
				if watching {
					e.noteTransition(ref.cons, false)
				}
			}
		}
		if e.numDyn != 0 {
			for _, ref := range e.occDyn[l] {
				hdrs[ref.cons].trueSum -= ref.coef
			}
		}
		if i < ph {
			nl := l.Neg()
			for _, ref := range occCSR[occOff[nl]:occOff[nl+1]] {
				hdrs[ref.cons].watchSum += ref.coef
			}
			if e.numDyn != 0 {
				for _, ref := range e.occDyn[nl] {
					hdrs[ref.cons].watchSum += ref.coef
				}
			}
		}
		e.phase[v] = e.value[v]
		e.value[v] = Unassigned
		e.reason[v] = NoReason
		e.heap.pushIfAbsent(v)
	}
	e.trail = e.trail[:limit]
	e.trailLim = e.trailLim[:lvl]
	if e.propHead > limit {
		e.propHead = limit
	}
}

// reasonSide returns the antecedent literals for the assignment of l (which
// was propagated by constraint consIdx): the literals of the constraint that
// are false and were assigned strictly before l. Appends to out.
func (e *Engine) reasonSide(l pb.Lit, consIdx int32, out []pb.Lit) []pb.Lit {
	h := &e.hdrs[consIdx]
	pos := e.trailPos[l.Var()]
	for _, q := range e.lits[h.off : h.off+h.n] {
		if q.Var() == l.Var() {
			continue
		}
		if e.LitValue(q) == False && e.trailPos[q.Var()] < pos {
			out = append(out, q)
		}
	}
	return out
}

// conflictSide returns the falsified literals of the conflicting constraint.
func (e *Engine) conflictSide(consIdx int, out []pb.Lit) []pb.Lit {
	h := &e.hdrs[consIdx]
	for _, q := range e.lits[h.off : h.off+h.n] {
		if e.LitValue(q) == False {
			out = append(out, q)
		}
	}
	return out
}

// AnalyzeResult is the outcome of conflict analysis.
type AnalyzeResult struct {
	// Learnt is the learned clause; Learnt[0] is the asserting literal.
	Learnt []pb.Lit
	// BackLevel is the decision level to backtrack to before asserting.
	BackLevel int
	// Unsat indicates the conflict is at (or resolves to) level 0: the
	// formula (plus learned constraints) is unsatisfiable.
	Unsat bool
}

// AnalyzeConstraint performs 1UIP conflict analysis starting from the
// conflicting constraint consIdx.
func (e *Engine) AnalyzeConstraint(consIdx int) AnalyzeResult {
	e.bumpCons(int32(consIdx))
	seed := e.conflictSide(consIdx, nil)
	return e.AnalyzeClause(seed)
}

// AnalyzeClause performs 1UIP conflict analysis starting from a conflicting
// clause: a set of literals all currently false, typically the bound-conflict
// explanation ω_bc = ω_pp ∪ ω_pl of §4. The caller must ensure every literal
// is false and at least one was assigned at the current decision level
// (backtrack to the clause's maximum level first if necessary).
func (e *Engine) AnalyzeClause(seed []pb.Lit) AnalyzeResult {
	curLevel := e.DecisionLevel()
	if curLevel == 0 {
		return AnalyzeResult{Unsat: true}
	}
	var learnt []pb.Lit
	counter := 0
	for v := range e.seen {
		e.seen[v] = false
	}
	bump := make([]pb.Var, 0, 16)

	absorb := func(lits []pb.Lit) {
		for _, q := range lits {
			v := q.Var()
			if e.seen[v] {
				continue
			}
			e.seen[v] = true
			bump = append(bump, v)
			switch {
			case int(e.level[v]) == curLevel:
				counter++
			case e.level[v] > 0:
				learnt = append(learnt, q)
			}
		}
	}
	absorb(seed)
	if counter == 0 {
		// No literal at the current level: the caller should have backtracked
		// to the seed's maximum level first. Treat the whole seed as the
		// learned clause (still sound, possibly weaker).
		return e.clauseFromSeed(seed, bump)
	}

	idx := len(e.trail) - 1
	var p pb.Lit = pb.NoLit
	scratch := make([]pb.Lit, 0, 16)
	for {
		for idx >= 0 && !e.seen[e.trail[idx].Var()] {
			idx--
		}
		if idx < 0 {
			// Should not happen; degrade to seed clause.
			return e.clauseFromSeed(seed, bump)
		}
		p = e.trail[idx]
		idx--
		counter--
		if counter == 0 {
			break
		}
		r := e.reason[p.Var()]
		if r == NoReason {
			// Decision reached with more current-level literals pending:
			// cannot happen in a well-formed trail (only one decision per
			// level); defensive fallback.
			return e.clauseFromSeed(seed, bump)
		}
		e.bumpCons(r)
		scratch = scratch[:0]
		scratch = e.reasonSide(p, r, scratch)
		absorb(scratch)
	}
	// p is the first UIP; the learned clause is learnt ∪ {¬p}.
	asserting := p.Neg()
	out := make([]pb.Lit, 0, len(learnt)+1)
	out = append(out, asserting)
	out = append(out, learnt...)

	// Compute backjump level: maximum level among the non-asserting lits.
	back := 0
	for _, q := range out[1:] {
		if l := int(e.level[q.Var()]); l > back {
			back = l
		}
	}
	e.bumpAll(bump)
	return AnalyzeResult{Learnt: out, BackLevel: back}
}

// clauseFromSeed turns a seed with no current-level literal into an analyze
// result: backtrack below its maximum level and use the seed itself.
func (e *Engine) clauseFromSeed(seed []pb.Lit, bump []pb.Var) AnalyzeResult {
	max1, max2 := -1, -1 // two highest levels (max2 = second occurrence slot)
	var assertLit pb.Lit = pb.NoLit
	for _, q := range seed {
		l := int(e.level[q.Var()])
		if l > max1 {
			max2 = max1
			max1 = l
			assertLit = q
		} else if l > max2 {
			max2 = l
		}
	}
	if max1 <= 0 {
		return AnalyzeResult{Unsat: true}
	}
	if max2 < 0 {
		max2 = 0
	}
	out := make([]pb.Lit, 0, len(seed))
	out = append(out, assertLit)
	for _, q := range seed {
		if q != assertLit && e.level[q.Var()] > 0 {
			out = append(out, q)
		}
	}
	e.bumpAll(bump)
	return AnalyzeResult{Learnt: out, BackLevel: max2}
}

// AnalyzeFinal explains why assumption literal l cannot be set True: it
// returns the subset of currently-assigned decision literals (the caller's
// assumptions, when assumptions are the only decisions on the trail) whose
// joint assignment propagates l to False, with l itself included. The caller
// must have observed LitValue(l) == False.
//
// The walk mirrors AnalyzeClause but resolves all the way back instead of
// stopping at the first UIP: starting from l's variable, repeatedly replace
// propagated literals by their reason-side antecedents; literals with
// NoReason are decisions and are emitted verbatim. When every decision below
// the walk is an assumption (the assumption-placement discipline in
// internal/core guarantees this: real branching only starts once all
// assumptions are enqueued), the returned set is exactly the failed
// assumption subset — an unsat core over the assumptions.
func (e *Engine) AnalyzeFinal(l pb.Lit) []pb.Lit {
	out := []pb.Lit{l}
	if e.Level(l.Var()) == 0 {
		// l is falsified by root-level propagation alone: the core is {l}.
		return out
	}
	for v := range e.seen {
		e.seen[v] = false
	}
	e.seen[l.Var()] = true
	scratch := make([]pb.Lit, 0, 16)
	start := 0
	if len(e.trailLim) > 0 {
		start = e.trailLim[0]
	}
	for idx := len(e.trail) - 1; idx >= start; idx-- {
		p := e.trail[idx]
		if !e.seen[p.Var()] {
			continue
		}
		if r := e.reason[p.Var()]; r == NoReason {
			// A decision the falsification depends on: part of the core. The
			// trail holds the literal as decided, which is the assumption as
			// assumed — including p == l.Neg() when two contradictory
			// assumptions were both passed in.
			out = append(out, p)
		} else {
			scratch = scratch[:0]
			scratch = e.reasonSide(p, r, scratch)
			for _, q := range scratch {
				if e.level[q.Var()] > 0 {
					e.seen[q.Var()] = true
				}
			}
		}
	}
	return out
}

// LearnAndBackjump installs the result of an analysis: backtracks to
// res.BackLevel, adds the learned clause, and asserts its first literal.
// It returns the new constraint index, or -1 when res is Unsat or the learned
// clause is empty.
func (e *Engine) LearnAndBackjump(res AnalyzeResult) int {
	if res.Unsat || len(res.Learnt) == 0 {
		return -1
	}
	e.BacktrackTo(res.BackLevel)
	var idx int
	if len(res.Learnt) >= 2 {
		idx = e.addWatchedClause(res.Learnt)
	} else {
		idx = e.AddCons([]pb.Term{{Coef: 1, Lit: res.Learnt[0]}}, 1)
	}
	// Assert the UIP literal with the new clause as reason.
	if e.LitValue(res.Learnt[0]) == Unassigned {
		e.assign(res.Learnt[0], int32(idx))
	}
	e.varDecay()
	return idx
}

// --- VSIDS ---

const (
	varDecayFactor  = 1.0 / 0.95
	consDecayFactor = 1.0 / 0.999
	rescaleLimit    = 1e100
)

func (e *Engine) bumpAll(vars []pb.Var) {
	for _, v := range vars {
		e.BumpVar(v)
	}
}

// BumpVar increases v's VSIDS activity.
func (e *Engine) BumpVar(v pb.Var) {
	e.activity[v] += e.varInc
	if e.activity[v] > rescaleLimit {
		for i := range e.activity {
			e.activity[i] *= 1 / rescaleLimit
		}
		e.varInc *= 1 / rescaleLimit
	}
	e.heap.update(v)
}

func (e *Engine) varDecay() {
	e.varInc *= varDecayFactor
	e.consInc *= consDecayFactor
}

// Activity returns the VSIDS activity of v.
func (e *Engine) Activity(v pb.Var) float64 { return e.activity[v] }

// SeedRandom arms the engine's explicit, per-solver RNG: with probability
// freq each branch decision picks a random unassigned variable instead of
// the VSIDS maximum. freq <= 0 disables randomization (the default). Runs
// are reproducible for a fixed (seed, freq): this is the portfolio's
// diversification knob, seeded per member.
func (e *Engine) SeedRandom(seed int64, freq float64) {
	if freq <= 0 {
		e.rng, e.randFreq = nil, 0
		return
	}
	e.rng = rand.New(rand.NewSource(seed))
	e.randFreq = freq
}

// PickBranchVar returns the unassigned variable with maximal VSIDS activity,
// or -1 when all variables are assigned. With SeedRandom armed, a fraction
// of picks is uniformly random over unassigned variables instead.
func (e *Engine) PickBranchVar() pb.Var {
	if e.rng != nil && e.rng.Float64() < e.randFreq {
		// A few random probes; on repeated misses fall through to VSIDS
		// (the heap pop below). The probed variable stays in the heap —
		// pops skip assigned variables anyway.
		for i := 0; i < 8; i++ {
			v := pb.Var(e.rng.Intn(e.nVars))
			if e.value[v] == Unassigned {
				e.Stats.RandomDecisions++
				return v
			}
		}
	}
	for e.heap.size() > 0 {
		v := e.heap.pop()
		if e.value[v] == Unassigned {
			return v
		}
	}
	return -1
}

// PreferredPhase returns the saved phase of v (False initially, which is the
// cheapest polarity for non-negative costs).
func (e *Engine) PreferredPhase(v pb.Var) Value { return e.phase[v] }

// --- Solution & reduced-problem access ---

// Values returns the current complete assignment as booleans; unassigned
// variables default to false (the zero-cost polarity). Only meaningful when
// every problem constraint is satisfied.
func (e *Engine) Values() []bool {
	out := make([]bool, e.nVars)
	for v := 0; v < e.nVars; v++ {
		out[v] = e.value[v] == True
	}
	return out
}

// UnsatisfiedCons calls fn for every problem row not yet satisfied by true
// literals, passing the constraint index, a transient view and the residual
// degree (Degree − trueSum > 0). Learned constraints are skipped: lower
// bounds must be estimated on the problem itself (learned bound clauses
// depend on the incumbent and would make explanations circular).
func (e *Engine) UnsatisfiedCons(fn func(idx int, c Cons, residual int64)) {
	for i := range e.problem {
		h := &e.hdrs[i]
		if h.satisfied() {
			continue
		}
		fn(i, e.Cons(i), h.degree-h.trueSum)
	}
}

// CheckInvariants verifies counter consistency and the store's shape (test
// hook): it recomputes watchSum/trueSum from scratch and compares, and checks
// that every reason, occurrence entry, watch entry and pending check names a
// stored constraint that holds its literal.
func (e *Engine) CheckInvariants() error {
	unsat, dyn := 0, 0
	for i := range e.hdrs {
		h := &e.hdrs[i]
		if h.watched() {
			continue
		}
		if i >= e.problem {
			dyn++
		}
		var ws, ts int64
		ls := e.lits[h.off : h.off+h.n]
		cs := e.coefs[h.off : h.off+h.n]
		for k, l := range ls {
			switch e.LitValue(l) {
			case True:
				ws += cs[k]
				ts += cs[k]
			case Unassigned:
				ws += cs[k]
			case False:
				// Deferred decrement: a falsified literal leaves watchSum
				// only once Propagate consumes its complement from the
				// trail queue.
				if int(e.trailPos[l.Var()]) >= e.propHead {
					ws += cs[k]
				}
			}
		}
		if ws != h.watchSum || ts != h.trueSum {
			return fmt.Errorf("cons %d: watchSum=%d(want %d) trueSum=%d(want %d)",
				i, h.watchSum, ws, h.trueSum, ts)
		}
		if i < e.problem && ts < h.degree {
			unsat++
		}
	}
	if unsat != e.numUnsatisfied || dyn != e.numDyn {
		return fmt.Errorf("numUnsatisfied=%d want %d, numDyn=%d want %d", e.numUnsatisfied, unsat, e.numDyn, dyn)
	}
	return e.checkIndices()
}

// checkIndices is CheckInvariants' check of the indices the engine holds.
func (e *Engine) checkIndices() error {
	span := func(ci int32) []pb.Lit {
		if ci < 0 || int(ci) >= len(e.hdrs) {
			return nil
		}
		h := &e.hdrs[ci]
		return e.lits[h.off : h.off+h.n]
	}
	for _, l := range e.trail {
		if r := e.reason[l.Var()]; r != NoReason && !slices.Contains(span(r), l) {
			return fmt.Errorf("reason %d of %v does not hold it", r, l)
		}
	}
	for l := range e.occDyn {
		for _, ref := range e.occDyn[l] {
			k := slices.Index(span(ref.cons), pb.Lit(l))
			if int(ref.cons) < e.problem || k < 0 || e.hdrs[ref.cons].watched() || e.coefs[int(e.hdrs[ref.cons].off)+k] != ref.coef {
				return fmt.Errorf("occurrence %v of %v: no such counter term", ref, pb.Lit(l))
			}
		}
	}
	for l, list := range e.watchList {
		for _, ci := range list {
			if ls := span(ci); len(ls) < 2 || !e.hdrs[ci].watched() || (ls[0] != pb.Lit(l) && ls[1] != pb.Lit(l)) {
				return fmt.Errorf("watch entry %d of %v: not a clause watching it", ci, pb.Lit(l))
			}
		}
	}
	for _, ci := range e.pending {
		if ci < 0 || int(ci) >= len(e.hdrs) {
			return fmt.Errorf("pending check %d: no such constraint", ci)
		}
	}
	return nil
}

// --- binary heap ordered by activity ---

type varHeap struct {
	act     []float64
	heap    []pb.Var
	indices []int32 // position in heap, -1 if absent
}

// newVarHeap returns an empty heap over the variables of act, reusing the
// heap and indices buffers when they are large enough (nil for new ones).
func newVarHeap(act []float64, heap []pb.Var, indices []int32) *varHeap {
	h := &varHeap{act: act, heap: cleared(heap, len(act))[:0], indices: cleared(indices, len(act))}
	for i := range h.indices {
		h.indices[i] = -1
	}
	return h
}

func (h *varHeap) size() int { return len(h.heap) }

func (h *varHeap) less(i, j int) bool { return h.act[h.heap[i]] > h.act[h.heap[j]] }

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.indices[h.heap[i]] = int32(i)
	h.indices[h.heap[j]] = int32(j)
}

func (h *varHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *varHeap) push(v pb.Var) {
	if h.indices[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = int32(len(h.heap) - 1)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pushIfAbsent(v pb.Var) { h.push(v) }

func (h *varHeap) pop() pb.Var {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.indices[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) update(v pb.Var) {
	if i := h.indices[v]; i >= 0 {
		h.up(int(i))
		h.down(int(h.indices[v]))
	}
}

// MaxInt64 re-exported bound used by callers sizing budgets.
const MaxInt64 = math.MaxInt64
