package bounds

import (
	"slices"
	"sync"

	"repro/internal/engine"
	"repro/internal/pb"
)

// Reducer builds the reduced problem incrementally. Where Extract re-scans
// the whole constraint store and allocates fresh Row/Term slices at every
// search node, a Reducer
//
//   - maintains the set of unsatisfied problem constraints from the engine's
//     coalesced trail deltas (one engine.ConsWave callback per propagation
//     wave, pulled via FlushConsDeltas at the top of Reduce — see
//     engine.ConsWatcher), so each Reduce call touches only the constraints
//     that can contribute rows, never the full store with its thousands of
//     learned clauses; and
//   - owns reusable Row and Term scratch buffers (a flat term arena), so the
//     per-node reduction allocates nothing in steady state.
//
// Residual degrees need no bookkeeping of their own: the engine already
// maintains trueSum per constraint incrementally, and the residual is
// Degree − trueSum. Row terms are read straight off the engine's
// struct-of-arrays literal/coefficient arenas through the Cons view.
//
// The produced Reduced is bit-identical to Extract's output on the same
// engine state (same rows in the same order, same clipped coefficients, same
// infeasibility flag) — the differential property test in reducer_test.go
// enforces this across decisions, backjumps, restarts and ReduceDB.
//
// The returned *Reduced aliases the Reducer's internal buffers: it is valid
// until the next Reduce call. Estimators copy what they keep (toXSpace), so
// the single-node usage in core is safe.
type Reducer struct {
	eng *engine.Engine

	// active is the dense set of unsatisfied problem constraint indices;
	// pos[idx] is the position of idx in active (-1 when absent). The set is
	// kept unordered for O(1) add/remove and sorted lazily per Reduce so the
	// output matches Extract's store-order exactly.
	active []int32
	pos    []int32
	sorted bool

	// Reusable output buffers, and the rows and terms of the active set at
	// attach time, to which the first Reduce sizes them.
	red                 Reduced
	termArena           []pb.Term
	rowSpans            []rowSpan
	fullRows, fullTerms int
	bufs                *reducerBufs // the record the buffers came in, if pooled

	// reduces counts Reduce calls; the first sizes the buffers.
	reduces int64
}

type rowSpan struct{ start, end int32 }

// NewReducer attaches a Reducer to e, snapshotting the current satisfaction
// state and registering for trail-delta notifications. The engine supports a
// single watcher: attaching a second Reducer replaces the first (Detach the
// old one explicitly if both must coexist — they cannot).
func NewReducer(e *engine.Engine) *Reducer {
	r := &Reducer{eng: e}
	if b, _ := reducerPool.Get().(*reducerBufs); b != nil {
		r.active, r.pos, r.termArena, r.rowSpans, r.red.Rows = b.active, b.pos, b.termArena, b.rowSpans, b.rows
		r.bufs = b
	}
	r.resync()
	e.SetConsWatcher(r)
	return r
}

// resync rebuilds the active set from a full scan (used at attach time; the
// trail deltas keep it current afterwards). The scan also counts what the
// active rows hold in full, the size the first Reduce — the root's — gives
// its output buffers, so it fills them without growing them.
func (r *Reducer) resync() {
	n := r.eng.NumCons()
	if cap(r.active) < n {
		r.active = make([]int32, 0, n)
	}
	r.active = r.active[:0]
	if cap(r.pos) < n {
		r.pos = make([]int32, n)
	}
	r.pos = r.pos[:n]
	for i := range r.pos {
		r.pos[i] = -1
	}
	terms := 0
	r.eng.UnsatisfiedCons(func(i int, c engine.Cons, _ int64) {
		r.pos[i] = int32(len(r.active))
		r.active = append(r.active, int32(i))
		terms += len(c.Lits)
	})
	r.sorted = true
	r.fullRows, r.fullTerms = len(r.active), terms
}

// Detach unregisters the Reducer from the engine. Reduce may still be called
// afterwards but will no longer track assignments.
func (r *Reducer) Detach() { r.eng.SetConsWatcher(nil) }

// reducerBufs holds a released Reducer's buffers until a later NewReducer
// reuses them; every one is refilled before it is read.
type reducerBufs struct {
	active, pos []int32
	termArena   []pb.Term
	rowSpans    []rowSpan
	rows        []Row
}

var reducerPool sync.Pool

// Release detaches the Reducer and hands its buffers to a later NewReducer.
// The Reducer, and every Reduced it returned, must not be used afterwards.
func (r *Reducer) Release() {
	r.Detach()
	b := r.bufs
	if b == nil {
		b = new(reducerBufs)
	}
	*b = reducerBufs{r.active, r.pos, r.termArena, r.rowSpans, r.red.Rows}
	reducerPool.Put(b)
	*r = Reducer{}
}

// ConsWave implements engine.ConsWatcher: one coalesced delta per
// propagation wave. The slices alias engine scratch and are consumed
// synchronously.
func (r *Reducer) ConsWave(satisfied, unsatisfied []int32) {
	for _, idx := range satisfied {
		r.remove(idx)
	}
	for _, idx := range unsatisfied {
		r.add(idx)
	}
}

func (r *Reducer) add(idx int32) {
	if r.pos[idx] >= 0 {
		return
	}
	r.pos[idx] = int32(len(r.active))
	r.active = append(r.active, idx)
	r.sorted = false
}

func (r *Reducer) remove(idx int32) {
	p := r.pos[idx]
	if p < 0 {
		return
	}
	last := int32(len(r.active) - 1)
	moved := r.active[last]
	r.active[p] = moved
	r.pos[moved] = p
	r.active = r.active[:last]
	r.pos[idx] = -1
	if p != last {
		r.sorted = false
	}
}

// ActiveCount returns the current number of tracked unsatisfied problem
// constraints (test/diagnostic hook; must equal engine.NumUnsatisfied()).
// It pulls any pending wave first so the answer reflects the engine's
// current trail.
func (r *Reducer) ActiveCount() int {
	r.eng.FlushConsDeltas()
	return len(r.active)
}

// Reduce builds the reduced problem for the engine's current assignment into
// the Reducer's reusable buffers and returns it. The result aliases those
// buffers and is invalidated by the next Reduce call.
func (r *Reducer) Reduce() *Reduced {
	// Pull the coalesced satisfaction deltas accumulated since the last
	// flush (the engine batches them per propagation wave).
	r.eng.FlushConsDeltas()
	r.reduces++
	if !r.sorted {
		slices.Sort(r.active)
		for p, idx := range r.active {
			r.pos[idx] = int32(p)
		}
		r.sorted = true
	}
	if r.reduces == 1 {
		r.termArena = withCap(r.termArena, r.fullTerms)
		r.rowSpans = withCap(r.rowSpans, r.fullRows)
		r.red.Rows = withCap(r.red.Rows, r.fullRows)
	}
	red := &r.red
	red.Rows = red.Rows[:0]
	red.Infeasible = false
	red.InfeasibleRow = 0
	arena := r.termArena[:0]
	spans := r.rowSpans[:0]
	e := r.eng
	for _, ci := range r.active {
		c := e.Cons(int(ci))
		residual := c.Degree - c.TrueSum()
		start := int32(len(arena))
		var sum int64
		for k, l := range c.Lits {
			if e.LitValue(l) != engine.Unassigned {
				continue
			}
			coef := c.Coefs[k]
			if coef > residual {
				coef = residual
			}
			arena = append(arena, pb.Term{Coef: coef, Lit: l})
			sum += coef
		}
		if sum < residual && !red.Infeasible {
			red.Infeasible = true
			red.InfeasibleRow = int(ci)
		}
		spans = append(spans, rowSpan{start, int32(len(arena))})
		red.Rows = append(red.Rows, Row{EngIdx: int(ci), Degree: residual})
	}
	// Materialize the Terms slices only after the arena has stopped growing:
	// appending above may reallocate the backing array, so slicing eagerly
	// would leave earlier rows pointing at a stale copy.
	for i := range red.Rows {
		sp := spans[i]
		if sp.start == sp.end {
			red.Rows[i].Terms = nil // match Extract: fully-assigned rows carry no slice
			continue
		}
		red.Rows[i].Terms = arena[sp.start:sp.end:sp.end]
	}
	r.termArena = arena
	r.rowSpans = spans
	return red
}

// withCap returns buf emptied, with room for n elements.
func withCap[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}
