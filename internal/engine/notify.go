// Batched trail-delta notifications: the engine already maintains,
// incrementally and in O(1) per assignment, exactly the quantities a
// reduced-problem builder needs (per-constraint trueSum/watchSum and the
// satisfied/unsatisfied transition of every problem constraint). This file
// exposes those transitions to a single registered watcher so downstream
// state — the persistent bounds.Reducer, in particular — can be *maintained*
// from trail deltas instead of being recomputed from a full constraint-store
// scan at every search node.
//
// Design notes:
//
//   - Notifications fire only for problem rows, the constraints New builds:
//     learned clauses and incumbent cuts never participate in lower-bound
//     reduction (their presence would make bound explanations circular), and
//     skipping them keeps the hook entirely off the clause-learning hot path.
//     No row joins the problem after New, so the watcher's index set is
//     fixed at attach time.
//   - Transitions are *coalesced*: assign and BacktrackTo only mark
//     the constraint dirty (one branch + one append per first transition,
//     nothing per repeat), and FlushConsDeltas delivers the net changes in a
//     single ConsWave call. A constraint that flips satisfied→unsatisfied→
//     satisfied between flushes nets out and is never reported, so a whole
//     propagation wave (or a propagate + backjump + re-propagate sequence)
//     costs the watcher one callback, not one per assignment.
//   - The engine never flushes on its own: consumers pull the wave when they
//     need a current view (bounds.Reducer flushes at the top of Reduce and
//     ActiveCount). Between flushes the watcher's mirror may lag the engine;
//     the dirty set is deduplicated, so the lag is bounded by the constraint
//     count, not the assignment count.
//   - Backtracking, restarts and ReduceDB need no special casing: BacktrackTo
//     marks the inverse transitions, and ReduceDB deletes and renumbers
//     learned rows only; problem rows never move.
package engine

// ConsWatcher observes satisfaction transitions of problem rows as
// coalesced per-wave deltas.
type ConsWatcher interface {
	// ConsWave delivers the net satisfaction transitions since the previous
	// flush: satisfied lists problem rows that became satisfied by true
	// literals alone, unsatisfied those that stopped being satisfied (a true
	// literal was unassigned during backtracking). The slices alias engine
	// scratch buffers: they are valid only for the duration of the call and
	// are disjoint (a constraint nets out at most one way per wave).
	ConsWave(satisfied, unsatisfied []int32)
}

// SetConsWatcher registers w as the engine's constraint watcher (nil
// unregisters, discarding any unflushed transitions). At most one watcher is
// supported; the caller owning the search loop decides who observes. The
// watcher receives only transitions that happen after registration — a new
// watcher should snapshot the current satisfaction state first (see
// bounds.NewReducer).
func (e *Engine) SetConsWatcher(w ConsWatcher) {
	e.consWatcher = w
	e.dirty = e.dirty[:0]
	if w == nil {
		return
	}
	// Baseline the per-constraint notification state so the first flush
	// reports transitions relative to "now".
	for i := range e.satState {
		if e.hdrs[i].satisfied() {
			e.satState[i] = stateCur | stateLast
		} else {
			e.satState[i] = 0
		}
	}
}

// FlushConsDeltas computes the net satisfaction transitions of all dirty
// problem constraints and, when any survive coalescing, delivers them to the
// registered watcher in one ConsWave call. Zero-allocation in steady state:
// the satisfied/unsatisfied slices are reused scratch buffers. No-op without
// a watcher or without pending transitions.
func (e *Engine) FlushConsDeltas() {
	if len(e.dirty) == 0 {
		return
	}
	if e.consWatcher == nil {
		e.dirty = e.dirty[:0]
		return
	}
	// The scan touches only the dense satState byte array — noteTransition
	// recorded the current satisfaction there, so no header is re-read.
	sat := e.satBuf[:0]
	unsat := e.unsatBuf[:0]
	for _, ci := range e.dirty {
		s := e.satState[ci] &^ stateDirty
		if (s&stateCur != 0) == (s&stateLast != 0) {
			e.satState[ci] = s
			continue // netted out within the wave
		}
		e.satState[ci] = s ^ stateLast
		if s&stateCur != 0 {
			sat = append(sat, ci)
		} else {
			unsat = append(unsat, ci)
		}
	}
	e.dirty = e.dirty[:0]
	e.satBuf, e.unsatBuf = sat, unsat
	if len(sat)+len(unsat) > 0 {
		e.consWatcher.ConsWave(sat, unsat)
	}
}
