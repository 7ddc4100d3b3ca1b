package cuts

import (
	"time"

	"repro/internal/obs"
	"repro/internal/pb"
)

// activityDecay is applied to every live cut's activity at each separation
// round; Bump resets a useful cut to the current scale. With the default
// pool size a cut that never again earns a positive LP multiplier decays
// below any bumped cut within ~90 rounds and becomes the eviction victim.
const activityDecay = 0.95

// Pool is the managed cut store: a bounded set of globally valid cuts with
// duplicate hashing, activity-based aging, and the per-node separation
// budget (Probe). It is not safe for concurrent use, matching the
// single-threaded search loop that owns it.
type Pool struct {
	est  int64 // non-root estimation ordinal (Probe cadence)
	next int64 // next cut id (stable across evictions, never reused)

	live   []poolCut
	byHash map[uint64]int // hash → index in live
	byID   map[int64]int  // id → index in live

	graph conflictGraph
	// pending lists, in recorded order, the engine indices of rows a
	// skipped round claimed for the graph; the next round that reaches the
	// clique separator absorbs them before its own rows.
	pending []int
	ctr     obs.CutStats

	// OnAdd, when non-nil, observes every cut accepted into the pool (the
	// solver wires the audit hook and the trace emitter here). Called before
	// Separate returns, with slices the receiver must not mutate.
	OnAdd func(terms []pb.Term, degree int64)
}

type poolCut struct {
	id       int64
	terms    []pb.Term
	degree   int64
	hash     uint64
	activity float64
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{
		byHash: make(map[uint64]int),
		byID:   make(map[int64]int),
	}
}

// MaxRounds returns the cap on separation rounds per root estimation.
func (p *Pool) MaxRounds() int { return maxRounds }

// Counters returns a snapshot of the pool's observability block (the
// metrics schema's cuts block).
func (p *Pool) Counters() obs.CutStats {
	if p == nil {
		return obs.CutStats{}
	}
	c := p.ctr
	c.Active = int64(len(p.live))
	return c
}

// Separate runs one separation round against the LP point frac: lifted
// covers from each source row, then clique cuts from the (lazily grown)
// conflict graph. Rows that skipped rounds left pending are re-read through
// read and absorbed first, so the graph grows in the order SkipRound and
// Separate saw the rows. Returns the number of cuts newly accepted into the
// pool.
func (p *Pool) Separate(rows []Source, frac func(pb.Lit) float64, read RowReader) int {
	start := time.Now()
	p.ctr.Rounds++
	p.age()
	added := 0
	for _, src := range rows {
		if added >= maxPerRound {
			break
		}
		if cut, ok := separateCover(src, frac, minViolation); ok {
			if p.add(cut) {
				added++
			}
		}
	}
	if added < maxPerRound {
		for _, idx := range p.pending {
			p.graph.add(read.Row(idx))
		}
		p.pending = p.pending[:0]
		p.graph.absorb(rows)
		for _, cut := range p.graph.separate(frac, minViolation, maxPerRound-added) {
			if p.add(cut) {
				added++
			}
		}
	}
	p.ctr.SepTime += obs.Duration(time.Since(start))
	return added
}

// SkipRound counts a separation round at an LP point no valid cut can be
// violated at — an integral one — without running the separators. The pool
// ages as in Separate, and rows the graph has not seen are recorded as
// pending rather than absorbed: a search whose root closes never builds the
// graph, while a later Separate absorbs them before its own rows and so
// separates from the graph that absorbing them here would have built.
func (p *Pool) SkipRound(rows []Source) {
	p.ctr.Rounds++
	p.age()
	for _, src := range rows {
		if p.graph.claim(src.EngIdx) {
			p.pending = append(p.pending, src.EngIdx)
		}
	}
}

// age decays every live cut's activity by one round.
func (p *Pool) age() {
	for i := range p.live {
		p.live[i].activity *= activityDecay
	}
}

// Add offers one externally derived cut to the pool (tests, and callers that
// prove a cut by other means). The caller vouches for its global validity —
// the same contract the separators meet. Reports whether the cut was
// accepted (false = duplicate).
func (p *Pool) Add(c Cut) bool {
	if p == nil {
		return false
	}
	return p.add(c)
}

// add accepts one separated cut unless an identical cut is already pooled;
// when the pool is full the lowest-activity cut is evicted first. New cuts
// start at activity 1 (the same scale Bump restores), so a fresh cut is not
// the immediate eviction victim.
func (p *Pool) add(c Cut) bool {
	h := hashCut(c.Terms, c.Degree)
	if i, ok := p.byHash[h]; ok {
		p.ctr.Duplicates++
		p.live[i].activity = 1 // still violated somewhere: keep it around
		return false
	}
	for len(p.live) >= maxPool {
		victim := 0
		for i := 1; i < len(p.live); i++ {
			if p.live[i].activity < p.live[victim].activity {
				victim = i
			}
		}
		p.removeAt(victim)
		p.ctr.Pruned++
	}
	pc := poolCut{id: p.next, terms: c.Terms, degree: c.Degree, hash: h, activity: 1}
	p.next++
	p.byHash[h] = len(p.live)
	p.byID[pc.id] = len(p.live)
	p.live = append(p.live, pc)
	p.ctr.Separated++
	if p.OnAdd != nil {
		p.OnAdd(c.Terms, c.Degree)
	}
	return true
}

// removeAt drops live[i] by swapping the tail in, keeping both indexes
// consistent.
func (p *Pool) removeAt(i int) {
	pc := p.live[i]
	delete(p.byHash, pc.hash)
	delete(p.byID, pc.id)
	last := len(p.live) - 1
	if i != last {
		p.live[i] = p.live[last]
		p.byHash[p.live[i].hash] = i
		p.byID[p.live[i].id] = i
	}
	p.live = p.live[:last]
}

// Each visits every live cut. The visited slices must not be mutated; the
// id is stable for the cut's lifetime and never reused after eviction (the
// LP warm-start keys rely on that).
func (p *Pool) Each(fn func(id int64, terms []pb.Term, degree int64)) {
	if p == nil {
		return
	}
	for i := range p.live {
		fn(p.live[i].id, p.live[i].terms, p.live[i].degree)
	}
}

// Bump marks a cut useful: it earned a positive multiplier in an LP solve.
// Unknown ids (evicted between install and solve) are ignored.
func (p *Pool) Bump(id int64) {
	if p == nil {
		return
	}
	if i, ok := p.byID[id]; ok {
		p.live[i].activity = 1
	}
}

// NoteApplied records n cut columns installed into one node LP.
func (p *Pool) NoteApplied(n int) {
	if p != nil {
		p.ctr.Applied += int64(n)
	}
}

// hashCut is FNV-1a over the degree and the normalized term list, the
// pool's duplicate key.
func hashCut(terms []pb.Term, degree int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	mix(uint64(degree))
	for _, t := range terms {
		mix(uint64(t.Coef))
		mix(uint64(t.Lit))
	}
	return h
}
