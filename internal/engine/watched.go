// Two-watched-literal propagation for learned clauses (the classic MiniSat
// scheme). Problem constraints and learned pseudo-Boolean cuts stay on the
// counter-based path — they need satisfaction counters for solution
// detection and reduced-problem extraction — but learned *clauses* need
// neither: they exist only to prune, so they skip the occurrence lists
// entirely. Backtracking costs nothing for watched clauses (watches remain
// valid), which removes the learned-clause share of the two hottest loops
// (assign and BacktrackTo).
//
// Watched clauses live in the same header/arena store as counter-based
// constraints (flagWatched): their literal span is mutated in place when a
// watch moves (positions 0 and 1 are the watches), and their coefficients
// are all 1, kept in the coefficient arena so ReduceDB compaction can slide
// every constraint span uniformly.
package engine

import "repro/internal/pb"

// internClause copies lits into the arenas as a watched learned clause
// header (no watches registered yet) and returns its index. The input slice
// is copied, never retained: imported clauses cross goroutines, and a
// publisher mutating its buffer after the call must not reach this store.
func (e *Engine) internClause(lits []pb.Lit) int32 {
	h := consHdr{
		off:    int32(len(e.lits)),
		n:      int32(len(lits)),
		flags:  flagWatched,
		degree: 1, maxCoef: 1,
	}
	e.lits = append(e.lits, lits...)
	for range lits {
		e.coefs = append(e.coefs, 1)
	}
	idx := int32(len(e.hdrs))
	e.hdrs = append(e.hdrs, h)
	e.Stats.Learned++
	return idx
}

// watchBoth registers clause idx on its first two span literals.
func (e *Engine) watchBoth(idx int32) {
	h := &e.hdrs[idx]
	e.watchList[e.lits[h.off]] = append(e.watchList[e.lits[h.off]], idx)
	e.watchList[e.lits[h.off+1]] = append(e.watchList[e.lits[h.off+1]], idx)
}

// addWatchedClause installs a learned clause of length ≥ 2 under the
// two-watched-literal scheme and returns its constraint index. lits[0] must
// be the asserting literal (unassigned after the backjump) and the rest
// currently false; the second watch is placed on a literal from the highest
// remaining decision level so it unassigns last. The input is not mutated.
func (e *Engine) addWatchedClause(lits []pb.Lit) int {
	// Second watch: the falsified literal with the highest level.
	best := 1
	for k := 2; k < len(lits); k++ {
		if e.level[lits[k].Var()] > e.level[lits[best].Var()] {
			best = k
		}
	}
	idx := e.internClause(lits)
	if best != 1 {
		// Swap inside the interned span (the caller's slice stays untouched).
		h := &e.hdrs[idx]
		ls := e.lits[h.off : h.off+h.n]
		ls[1], ls[best] = ls[best], ls[1]
	}
	e.watchBoth(idx)
	return int(idx)
}

// propagateWatches processes the clauses watching literal q, which has just
// become false. Returns the index of a conflicting clause, or -1.
func (e *Engine) propagateWatches(q pb.Lit) int {
	list := e.watchList[q]
	kept := list[:0]
	for li := 0; li < len(list); li++ {
		ci := list[li]
		h := &e.hdrs[ci]
		ls := e.lits[h.off : h.off+h.n]
		// Normalize: ls[1] is the falsified watch.
		if ls[0] == q {
			ls[0], ls[1] = ls[1], ls[0]
		}
		other := ls[0]
		if e.LitValue(other) == True {
			kept = append(kept, ci) // satisfied: keep watching q
			continue
		}
		// Search for a replacement watch.
		moved := false
		for k := 2; k < len(ls); k++ {
			if e.LitValue(ls[k]) != False {
				ls[1], ls[k] = ls[k], ls[1]
				e.watchList[ls[1]] = append(e.watchList[ls[1]], ci)
				moved = true
				break
			}
		}
		if moved {
			continue // entry moves to the new watch's list
		}
		// No replacement: the clause is unit on `other`, or conflicting.
		kept = append(kept, ci)
		if e.LitValue(other) == False {
			// Conflict: retain the remaining entries and report.
			kept = append(kept, list[li+1:]...)
			e.watchList[q] = kept
			e.Stats.Conflicts++
			return int(ci)
		}
		e.assign(other, ci)
	}
	e.watchList[q] = kept
	return -1
}
