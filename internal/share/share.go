// Package share is the cooperative layer of the parallel portfolio: a Board
// shared by every portfolio member that turns N independent races into one
// cooperative search.
//
// Two things are exchanged:
//
//   - Incumbents. The board keeps the best solution found by any member as an
//     atomic upper bound plus a copy of the achieving assignment and the name
//     of the member that produced it. Members publish every local improvement
//     and poll the atomic value at bound-check sites, so any member's solution
//     instantly tightens the paper's `path + lower ≥ upper` pruning in all
//     others (§4 of the paper gets strictly stronger the earlier a tight upper
//     bound is known).
//
//   - Learned clauses. A bounded exchange ring of short, low-LBD clauses:
//     members publish after conflict analysis (length filter lock-free, LBD
//     filter and hash dedup under a short mutex), and drain foreign clauses at
//     restart/backjump-to-root boundaries, where the engine can import them
//     soundly (engine.ImportClause).
//
// Soundness (see DESIGN.md §9 for the full argument): every shared clause is
// implied by problem ∧ (cost ≤ u−1), where u is the publishing member's upper
// bound at learn time, and the board always holds a feasible solution of cost
// ≤ u before such a clause can enter the ring (members publish incumbents
// before learning under them). An importing member may therefore only lose
// solutions that are no better than an incumbent already on the board; a
// final board poll before a member reports "optimal" makes its claim exact.
//
// The board is safe for concurrent use; the per-member handles (Member) are
// not (each belongs to one solver goroutine, matching the engine they feed).
package share

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pb"
)

// noUB is the board's "no incumbent yet" sentinel (internal cost space).
const noUB = int64(math.MaxInt64 / 2)

const (
	// ringSlots is the clause ring size. A slow drainer that falls more
	// than ringSlots clauses behind loses the overwritten ones — sharing is
	// best-effort, never required for soundness.
	ringSlots = 4096
	// maxLen drops published clauses longer than this many literals. The
	// length check is lock-free.
	maxLen = 8
	// maxLBD drops published clauses whose literal-block distance (number
	// of distinct decision levels at learn time) exceeds this.
	maxLBD = 4
)

type entry struct {
	lits  []pb.Lit
	owner int32
}

// Board is the shared state of one cooperative portfolio run.
type Board struct {
	// ub is the global internal upper bound (excluding the problem's
	// CostOffset), noUB when no incumbent exists. Read lock-free at every
	// bound-check site of every member.
	ub atomic.Int64
	// seq is the total number of clauses ever accepted into the ring;
	// read lock-free by Member.DrainClauses to skip empty drains.
	seq atomic.Uint64

	// mu guards the incumbent certificate.
	mu         sync.Mutex
	bestVals   []bool
	bestOwner  string
	incumbents int64 // accepted global-best improvements

	// cmu guards the clause ring and the dedup set. The ring grows by
	// append up to slots entries, then wraps; the lap and dedup windows are
	// keyed to slots, not to the ring's current length.
	cmu   sync.Mutex
	slots uint64
	ring  []entry
	seen  map[uint64]uint64 // clause hash -> publish seq (dedup window)

	members atomic.Int32
	// clauseMembers counts the members participating in clause exchange.
	// Members that never drain (local search, the core-guided member) join
	// via JoinNoClauses and are excluded: including them in ring cursor/lap
	// accounting would charge every ring overwrite to a consumer that was
	// never going to consume (the stats would claim massive clause loss on
	// perfectly healthy boards).
	clauseMembers atomic.Int32

	// filter counters (atomic: the length filter rejects without cmu).
	tooLong atomic.Int64
	highLBD atomic.Int64
	dup     atomic.Int64
	lapped  atomic.Int64 // clauses lost to slow drainers (ring overwrite)
}

// NewBoard creates a board for one portfolio run.
func NewBoard() *Board { return newBoard(ringSlots) }

// newBoard creates a board whose clause ring has the given number of slots.
// The ring and the dedup set start empty and grow with the clauses
// published, so a race that shares few clauses allocates little.
func newBoard(slots int) *Board {
	b := &Board{slots: uint64(slots), seen: make(map[uint64]uint64)}
	b.ub.Store(noUB)
	return b
}

// Join registers a new member and returns its handle. The name labels the
// member in the incumbent certificate and the stats.
func (b *Board) Join(name string) *Member {
	b.clauseMembers.Add(1)
	id := b.members.Add(1) - 1
	return &Member{board: b, id: id, name: name}
}

// JoinNoClauses registers a member with clause participation opted out:
// PublishClause rejects, DrainClauses is a no-op, and the member is excluded
// from clause cursor/lap accounting (Stats.ClauseMembers). Incumbent exchange
// is unaffected. For members that neither publish nor consume clauses: local
// search and the core-guided member.
func (b *Board) JoinNoClauses(name string) *Member {
	id := b.members.Add(1) - 1
	return &Member{board: b, id: id, name: name, noClauses: true}
}

// BestUB returns the current global internal upper bound (one atomic load).
func (b *Board) BestUB() (int64, bool) {
	v := b.ub.Load()
	return v, v < noUB
}

// BestSolution returns a copy of the global best solution, its internal cost
// and the member that produced it.
func (b *Board) BestSolution() (cost int64, values []bool, owner string, ok bool) {
	if b.ub.Load() >= noUB {
		return 0, nil, "", false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bestVals == nil {
		return 0, nil, "", false
	}
	return b.ub.Load(), append([]bool(nil), b.bestVals...), b.bestOwner, true
}

// publishIncumbent records a new incumbent if it beats the current best.
func (b *Board) publishIncumbent(owner string, cost int64, values []bool) bool {
	if cost >= b.ub.Load() {
		return false // fast reject without the lock
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if cost >= b.ub.Load() {
		return false // lost the race
	}
	b.bestVals = append(b.bestVals[:0], values...)
	b.bestOwner = owner
	b.incumbents++
	// Store last: a reader that sees the new ub and takes mu is guaranteed
	// to find values at least as good already copied in.
	b.ub.Store(cost)
	return true
}

// publishClause offers a clause to the ring. It returns true when the clause
// was accepted (passed the length/LBD filters and was not a duplicate).
// The literals are copied; the caller keeps ownership of lits.
func (b *Board) publishClause(owner int32, lits []pb.Lit, lbd int) bool {
	if len(lits) == 0 {
		return false
	}
	if len(lits) > maxLen {
		b.tooLong.Add(1)
		return false
	}
	if lbd > maxLBD {
		b.highLBD.Add(1)
		return false
	}
	// Canonicalize outside the lock: sorted copy, hashed.
	cp := append(make([]pb.Lit, 0, len(lits)), lits...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	h := hashLits(cp)

	b.cmu.Lock()
	defer b.cmu.Unlock()
	next := b.seq.Load()
	if prev, ok := b.seen[h]; ok && prev+b.slots > next {
		// Same hash published within the live window: duplicate. (Hash
		// collisions merely drop a shareable clause — harmless.)
		b.dup.Add(1)
		return false
	}
	b.seen[h] = next
	if uint64(len(b.seen)) > 8*b.slots {
		b.pruneSeenLocked(next)
	}
	if e := (entry{lits: cp, owner: owner}); next < b.slots {
		b.ring = append(b.ring, e) // next == len(b.ring) until the ring is full
	} else {
		b.ring[next%b.slots] = e
	}
	b.seq.Store(next + 1)
	return true
}

// pruneSeenLocked drops dedup entries that fell out of the ring window.
func (b *Board) pruneSeenLocked(next uint64) {
	for h, s := range b.seen {
		if s+b.slots <= next {
			delete(b.seen, h)
		}
	}
}

// drainSince copies out the clauses published in (cursor, seq) by members
// other than selfID, advancing *cursor to seq. Clauses overwritten before the
// caller drained them are counted as lapped and lost.
func (b *Board) drainSince(cursor *uint64, selfID int32) [][]pb.Lit {
	b.cmu.Lock()
	defer b.cmu.Unlock()
	next := b.seq.Load()
	start := *cursor
	cap64 := b.slots
	if next > cap64 && start < next-cap64 {
		b.lapped.Add(int64(next - cap64 - start))
		start = next - cap64
	}
	var out [][]pb.Lit
	for s := start; s < next; s++ {
		e := b.ring[s%cap64]
		if e.owner == selfID {
			continue
		}
		out = append(out, e.lits)
	}
	*cursor = next
	return out
}

// hashLits is FNV-1a over the canonical (sorted) literal sequence.
func hashLits(lits []pb.Lit) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, l := range lits {
		v := uint32(l)
		for i := 0; i < 4; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= prime64
		}
	}
	return h
}

// Snapshot returns the board's current global counters (the metrics
// schema's board block).
func (b *Board) Snapshot() obs.BoardStats {
	st := obs.BoardStats{
		Members:          int(b.members.Load()),
		ClauseMembers:    int(b.clauseMembers.Load()),
		ClausesPublished: int64(b.seq.Load()),
		ClausesTooLong:   b.tooLong.Load(),
		ClausesHighLBD:   b.highLBD.Load(),
		ClausesDuplicate: b.dup.Load(),
		ClausesLapped:    b.lapped.Load(),
	}
	b.mu.Lock()
	st.Incumbents = b.incumbents
	st.BestOwner = b.bestOwner
	b.mu.Unlock()
	if ub, ok := b.BestUB(); ok {
		st.HasIncumbent = true
		st.BestCost = ub
	}
	return st
}

// Member is one solver's handle on the board. It implements core.Sharer
// (asserted in internal/portfolio to keep the import direction one-way).
// A Member belongs to a single solver goroutine and is not safe for
// concurrent use; all cross-member synchronization lives in the Board.
type Member struct {
	board  *Board
	id     int32
	name   string
	cursor uint64 // next ring seq to drain
	// noClauses opts the member out of clause exchange (JoinNoClauses): its
	// cursor never moves, so it must never reach drainSince — a permanently
	// stalled cursor would count every ring overwrite as a lapped loss.
	noClauses bool
}

// Name returns the member's label.
func (m *Member) Name() string { return m.name }

// PublishIncumbent offers a solution (internal cost, excluding CostOffset).
// It returns true when the solution became the new global best.
func (m *Member) PublishIncumbent(cost int64, values []bool) bool {
	return m.board.publishIncumbent(m.name, cost, values)
}

// BestUB returns the global internal upper bound (one atomic load; safe at
// any frequency).
func (m *Member) BestUB() (int64, bool) { return m.board.BestUB() }

// BestIncumbent returns a copy of the global best solution when its cost
// beats below.
func (m *Member) BestIncumbent(below int64) (cost int64, values []bool, ok bool) {
	if m.board.ub.Load() >= below {
		return 0, nil, false // fast path: one atomic load per poll site
	}
	c, vals, _, ok := m.board.BestSolution()
	if !ok || c >= below {
		return 0, nil, false
	}
	return c, vals, true
}

// PublishClause offers a learned clause with its LBD; returns true when the
// exchange accepted it.
func (m *Member) PublishClause(lits []pb.Lit, lbd int) bool {
	if m.noClauses {
		return false // opted out: not a filter rejection, no counter noise
	}
	return m.board.publishClause(m.id, lits, lbd)
}

// DrainClauses delivers every clause published by other members since the
// last drain. The delivered slices are shared read-only snapshots; callers
// must not mutate them.
func (m *Member) DrainClauses(fn func(lits []pb.Lit)) {
	if m.noClauses {
		return // opted out: the stalled cursor must not reach lap accounting
	}
	if m.board.seq.Load() == m.cursor {
		return // nothing new: one atomic load, no lock
	}
	fault.Fire("share.drain", m.name)
	for _, lits := range m.board.drainSince(&m.cursor, m.id) {
		fn(chaosCorrupt(lits))
	}
}

// chaosCounter cycles the corruption shape injected by the "share.import"
// fault point, so a single armed spec exercises every rejection path.
var chaosCounter atomic.Uint64

// chaosCorrupt is the import-side fault hook: with the "share.import" point
// armed (Kind Corrupt), delivered clauses are structurally mangled — an
// out-of-range literal, a duplicated literal, a tautological pair, or an
// empty clause — to exercise the engine's import validation. The original
// ring entry is never mutated. Unarmed, this is one atomic load.
func chaosCorrupt(lits []pb.Lit) []pb.Lit {
	if !fault.Active() {
		return lits
	}
	v := fault.Corrupt("share.import", 0)
	if v == 0 {
		return lits // point not armed, or did not fire
	}
	mode := chaosCounter.Add(1)
	if !math.IsNaN(v) && v > 0 {
		mode = uint64(v) // a Spec.Value pins one corruption shape
	}
	out := append([]pb.Lit(nil), lits...)
	switch mode % 4 {
	case 1: // out-of-range literal (bit flip on the wire)
		out[0] = pb.Lit(1 << 30)
	case 2: // duplicated literal
		out = append(out, out[0])
	case 3: // tautological pair
		out = append(out, out[0].Neg())
	default: // truncated to empty
		out = out[:0]
	}
	return out
}
