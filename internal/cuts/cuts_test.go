package cuts

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pb"
)

// evalCut reports whether assignment m (bit v = value of var v) satisfies
// Σ terms ≥ degree.
func evalCut(terms []pb.Term, degree int64, m uint) bool {
	var lhs int64
	for _, t := range terms {
		if t.Lit.Eval(m&(1<<uint(t.Lit.Var())) != 0) {
			lhs += t.Coef
		}
	}
	return lhs >= degree
}

// randomSource builds a random normal-form row over vars [0,n).
func randomSource(rng *rand.Rand, n int, engIdx int) Source {
	k := 2 + rng.Intn(n-1)
	perm := rng.Perm(n)[:k]
	lits := make([]pb.Lit, k)
	coefs := make([]int64, k)
	var sum int64
	for i, v := range perm {
		lits[i] = pb.MkLit(pb.Var(v), rng.Intn(3) == 0)
		coefs[i] = int64(1 + rng.Intn(9))
		sum += coefs[i]
	}
	degree := int64(1 + rng.Intn(int(sum)))
	for i := range coefs {
		if coefs[i] > degree {
			coefs[i] = degree
		}
	}
	// Engine normal order: descending coefficient.
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if coefs[j] > coefs[i] {
				coefs[i], coefs[j] = coefs[j], coefs[i]
				lits[i], lits[j] = lits[j], lits[i]
			}
		}
	}
	return Source{EngIdx: engIdx, Lits: lits, Coefs: coefs, Degree: degree}
}

// TestCoverCutsValidAndViolated brute-forces the soundness contract of the
// cover separator: every assignment satisfying the source row satisfies the
// lifted cut, and the cut is genuinely violated at the LP point it was
// separated from.
func TestCoverCutsValidAndViolated(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 10
	emitted := 0
	for iter := 0; iter < 3000; iter++ {
		src := randomSource(rng, n, iter)
		frac := make([]float64, n)
		for v := range frac {
			frac[v] = rng.Float64()
		}
		fracOf := func(l pb.Lit) float64 {
			x := frac[l.Var()]
			if l.IsNeg() {
				return 1 - x
			}
			return x
		}
		cut, ok := separateCover(src, fracOf, 0.02)
		if !ok {
			continue
		}
		emitted++
		// Violation at the LP point (x-space).
		var lhs float64
		for _, tm := range cut.Terms {
			lhs += float64(tm.Coef) * fracOf(tm.Lit)
		}
		if lhs >= float64(cut.Degree) {
			t.Fatalf("iter %d: cut not violated at its own LP point: lhs=%.4f degree=%d", iter, lhs, cut.Degree)
		}
		// Validity: src-feasible ⇒ cut-feasible, over all 2^n assignments.
		for m := uint(0); m < 1<<n; m++ {
			var rowLhs int64
			for j, l := range src.Lits {
				if l.Eval(m&(1<<uint(l.Var())) != 0) {
					rowLhs += src.Coefs[j]
				}
			}
			if rowLhs >= src.Degree && !evalCut(cut.Terms, cut.Degree, m) {
				t.Fatalf("iter %d: invalid cover cut %v ≥ %d (row %v/%v ≥ %d, witness %b)",
					iter, cut.Terms, cut.Degree, src.Lits, src.Coefs, src.Degree, m)
			}
		}
	}
	if emitted < 50 {
		t.Fatalf("cover separator barely engaged: %d cuts over 3000 rows", emitted)
	}
}

// TestCoverLiftingStrengthens pins a case where sequential lifting must
// produce a coefficient ≥ 1: knapsack 5¬a+5¬b+5¬c ≤ 5 (row 5a+5b+5c ≥ 10)
// with a cover {¬a,¬b}; lifting ¬c is exact and must yield β=1, degree 2.
func TestCoverLiftingStrengthens(t *testing.T) {
	src := Source{
		EngIdx: 0,
		Lits:   []pb.Lit{pb.PosLit(0), pb.PosLit(1), pb.PosLit(2)},
		Coefs:  []int64{5, 5, 5},
		Degree: 10,
	}
	// LP point x = (0.5, 0.5, 0.5): complements y = 0.5 each; cover {0,1}
	// has Σy = 1.0 ≤ 1, but the lifted cut Σy ≤ 1 over all three has
	// Σy = 1.5 > 1 — only lifting makes this separable.
	fracOf := func(l pb.Lit) float64 {
		if l.IsNeg() {
			return 0.5
		}
		return 0.5
	}
	cut, ok := separateCover(src, fracOf, 0.02)
	if !ok {
		t.Fatalf("no cut separated")
	}
	if len(cut.Terms) != 3 || cut.Degree != 2 {
		t.Fatalf("lifting did not engage: got %v ≥ %d, want 3 unit terms ≥ 2", cut.Terms, cut.Degree)
	}
	for _, tm := range cut.Terms {
		if tm.Coef != 1 || tm.Lit.IsNeg() {
			t.Fatalf("unexpected lifted term %v", tm)
		}
	}
}

// TestCliqueCutsValid brute-forces clique-cut validity: assignments feasible
// for ALL absorbed rows must satisfy every separated clique cut.
func TestCliqueCutsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 9
	emitted := 0
	for iter := 0; iter < 800; iter++ {
		var g conflictGraph
		nrows := 1 + rng.Intn(4)
		srcs := make([]Source, nrows)
		for i := range srcs {
			srcs[i] = randomSource(rng, n, iter*10+i)
		}
		g.absorb(srcs)
		frac := make([]float64, n)
		for v := range frac {
			frac[v] = rng.Float64()
		}
		fracOf := func(l pb.Lit) float64 {
			if l.IsNeg() {
				return 1 - frac[l.Var()]
			}
			return frac[l.Var()]
		}
		for _, cut := range g.separate(fracOf, 0.02, 8) {
			emitted++
			for m := uint(0); m < 1<<n; m++ {
				feasible := true
				for _, src := range srcs {
					var lhs int64
					for j, l := range src.Lits {
						if l.Eval(m&(1<<uint(l.Var())) != 0) {
							lhs += src.Coefs[j]
						}
					}
					if lhs < src.Degree {
						feasible = false
						break
					}
				}
				if feasible && !evalCut(cut.Terms, cut.Degree, m) {
					t.Fatalf("iter %d: invalid clique cut %v ≥ %d (witness %b)", iter, cut.Terms, cut.Degree, m)
				}
			}
		}
	}
	if emitted == 0 {
		t.Fatalf("clique separator never engaged")
	}
}

// TestDetectCardinality checks detection against brute-force solution-set
// equivalence on random rows.
func TestDetectCardinality(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 8
	detected := 0
	for iter := 0; iter < 4000; iter++ {
		src := randomSource(rng, n, iter)
		terms := make([]pb.Term, len(src.Lits))
		for i := range terms {
			terms[i] = pb.Term{Coef: src.Coefs[i], Lit: src.Lits[i]}
		}
		need, ok := DetectCardinality(terms, src.Degree)
		// Brute-force the semantic cardinality: is "≥ k literals true"
		// equivalent to the row for some k? Compare solution sets directly.
		for m := uint(0); m < 1<<n; m++ {
			var lhs int64
			cnt := 0
			for j, l := range src.Lits {
				if l.Eval(m&(1<<uint(l.Var())) != 0) {
					lhs += src.Coefs[j]
					cnt++
				}
			}
			rowSat := lhs >= src.Degree
			if ok {
				cardSat := cnt >= need
				if rowSat != cardSat {
					t.Fatalf("iter %d: DetectCardinality(%v/%v ≥ %d)=%d but mask %b: row=%v card=%v",
						iter, src.Lits, src.Coefs, src.Degree, need, m, rowSat, cardSat)
				}
			}
		}
		if ok {
			detected++
		}
	}
	if detected < 100 {
		t.Fatalf("cardinality detection barely engaged: %d/4000", detected)
	}
	// The headline example: 3x + 3y + 2z ≥ 5 ≡ x + y + z ≥ 2.
	terms := []pb.Term{
		{Coef: 3, Lit: pb.PosLit(0)}, {Coef: 3, Lit: pb.PosLit(1)}, {Coef: 2, Lit: pb.PosLit(2)},
	}
	if need, ok := DetectCardinality(terms, 5); !ok || need != 2 {
		t.Fatalf("3x+3y+2z≥5: got (%d,%v), want (2,true)", need, ok)
	}
	// A genuinely weighted row must NOT be detected: 3x + 1y + 1z ≥ 3.
	terms = []pb.Term{
		{Coef: 3, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.PosLit(1)}, {Coef: 1, Lit: pb.PosLit(2)},
	}
	if _, ok := DetectCardinality(terms, 3); ok {
		t.Fatalf("3x+y+z≥3 wrongly detected as cardinality")
	}
}

// TestPoolDedupAgingEviction exercises the pool mechanics: duplicate
// hashing, the maxPool eviction of the lowest-activity cut, id stability,
// and the OnAdd hook.
func TestPoolDedupAgingEviction(t *testing.T) {
	p := NewPool()
	var seen []int64
	p.OnAdd = func(terms []pb.Term, degree int64) { seen = append(seen, degree) }
	mk := func(v int) Cut {
		return Cut{Terms: []pb.Term{{Coef: 1, Lit: pb.PosLit(pb.Var(v))}, {Coef: 1, Lit: pb.PosLit(pb.Var(v + 1))}}, Degree: 1}
	}
	for k := 0; k < maxPool; k++ {
		if !p.add(mk(2 * k)) {
			t.Fatalf("fresh cut %d rejected", k)
		}
	}
	if p.add(mk(0)) {
		t.Fatalf("duplicate accepted")
	}
	if c := p.Counters(); c.Separated != maxPool || c.Duplicates != 1 || c.Active != maxPool {
		t.Fatalf("counters: %+v", c)
	}
	// Decay happens in Separate; emulate it via the activities: one cut
	// left unbumped must be the eviction victim when a cut beyond maxPool
	// arrives.
	for i := range p.live {
		p.live[i].activity = 1
	}
	p.live[2].activity = 0.1
	evictedID := p.live[2].id
	if !p.add(mk(2 * maxPool)) {
		t.Fatalf("add after eviction failed")
	}
	if c := p.Counters(); c.Pruned != 1 || c.Active != maxPool {
		t.Fatalf("eviction counters: %+v", c)
	}
	if _, ok := p.byID[evictedID]; ok {
		t.Fatalf("evicted id still live")
	}
	ids := map[int64]bool{}
	p.Each(func(id int64, terms []pb.Term, degree int64) { ids[id] = true })
	if len(ids) != maxPool || ids[evictedID] {
		t.Fatalf("%d live ids, evicted %d among them: %t", len(ids), evictedID, ids[evictedID])
	}
	if len(seen) != maxPool+1 {
		t.Fatalf("OnAdd saw %d cuts, want %d", len(seen), maxPool+1)
	}
	p.Bump(evictedID) // must be a no-op, not a panic
}

// TestProbeCadence pins the fast path: root always separates; deep nodes
// every every-th estimation; nil pool never.
func TestProbeCadence(t *testing.T) {
	var nilPool *Pool
	if nilPool.Probe(0) || nilPool.Len() != 0 {
		t.Fatalf("nil pool must be inert")
	}
	p := NewPool()
	if !p.Probe(0) || !p.Probe(0) {
		t.Fatalf("root estimations must always probe true")
	}
	hits := 0
	for i := 0; i < 4*every; i++ {
		if p.Probe(3) {
			hits++
		}
	}
	if hits != 4 {
		t.Fatalf("deep cadence: %d hits over %d probes, period %d", hits, 4*every, every)
	}
}

// TestSeparateRoundEndToEnd drives Pool.Separate on a row family where both
// separators engage and more cuts are violated than one round may accept,
// and checks the maxPerRound budget holds.
func TestSeparateRoundEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := NewPool()
	var srcs []Source
	for i := 0; i < 400; i++ {
		srcs = append(srcs, randomSource(rng, 30, i))
	}
	frac := make([]float64, 30)
	for v := range frac {
		frac[v] = 0.3 + 0.4*rng.Float64()
	}
	fracOf := func(l pb.Lit) float64 {
		if l.IsNeg() {
			return 1 - frac[l.Var()]
		}
		return frac[l.Var()]
	}
	added := p.Separate(srcs, fracOf, nil)
	if added != maxPerRound {
		t.Fatalf("%d cuts accepted from 400 random rows, want the budget of %d", added, maxPerRound)
	}
	c := p.Counters()
	if c.Rounds != 1 || c.Separated != int64(added) || c.SepTime <= 0 {
		t.Fatalf("counters: %+v", c)
	}
}

// tableRows is a RowReader over a fixed row table, indexed by engine index.
// Each read returns fresh copies of the slices, as a store that has moved
// its rows since the pool saw them would.
type tableRows []Source

func (t tableRows) Row(i int) Source {
	s := t[i]
	s.Lits = append([]pb.Lit(nil), s.Lits...)
	s.Coefs = append([]int64(nil), s.Coefs...)
	return s
}

// TestSkippedRoundsSeparateAsEagerAbsorption replays random sequences of
// skipped and separating rounds on two pools: one under SkipRound, which
// leaves its rows pending, and a reference that absorbs a skipped round's
// rows into the graph at once. Every round must accept the same cuts in the
// same order, and both graphs must end equal.
func TestSkippedRoundsSeparateAsEagerAbsorption(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n = 24
	for iter := 0; iter < 60; iter++ {
		table := make(tableRows, 80)
		for i := range table {
			table[i] = randomSource(rng, n, i)
		}
		lazy, eager := NewPool(), NewPool()
		var gotLazy, gotEager []Cut
		lazy.OnAdd = func(terms []pb.Term, degree int64) { gotLazy = append(gotLazy, Cut{terms, degree}) }
		eager.OnAdd = func(terms []pb.Term, degree int64) { gotEager = append(gotEager, Cut{terms, degree}) }
		for round := 0; round < 6; round++ {
			var rows []Source
			for _, i := range rng.Perm(len(table))[:5+rng.Intn(40)] {
				rows = append(rows, table[i])
			}
			if rng.Intn(2) == 0 {
				lazy.SkipRound(rows)
				eager.ctr.Rounds++
				eager.age()
				eager.graph.absorb(rows)
				continue
			}
			frac := make([]float64, n)
			for v := range frac {
				frac[v] = rng.Float64()
			}
			fracOf := func(l pb.Lit) float64 {
				if l.IsNeg() {
					return 1 - frac[l.Var()]
				}
				return frac[l.Var()]
			}
			a, b := lazy.Separate(rows, fracOf, table), eager.Separate(rows, fracOf, table)
			if a != b {
				t.Fatalf("iter %d round %d: %d cuts after skipped rounds, %d with eager absorption", iter, round, a, b)
			}
		}
		if len(gotLazy) != len(gotEager) {
			t.Fatalf("iter %d: %d cuts vs %d", iter, len(gotLazy), len(gotEager))
		}
		for k := range gotLazy {
			if hashCut(gotLazy[k].Terms, gotLazy[k].Degree) != hashCut(gotEager[k].Terms, gotEager[k].Degree) {
				t.Fatalf("iter %d: cut %d differs: %+v vs %+v", iter, k, gotLazy[k], gotEager[k])
			}
		}
		if len(lazy.pending) == 0 && !reflect.DeepEqual(lazy.graph.adj, eager.graph.adj) {
			t.Fatalf("iter %d: graphs differ with nothing pending", iter)
		}
		if lc, ec := lazy.Counters(), eager.Counters(); lc.Rounds != ec.Rounds || lc.Separated != ec.Separated {
			t.Fatalf("iter %d: counters %+v vs %+v", iter, lc, ec)
		}
	}
}

// TestSkipOnlyPoolBuildsNoGraph pins what a root that closes costs the pool:
// skipped rounds count and age, record each row once, and build no graph.
func TestSkipOnlyPoolBuildsNoGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var rows []Source
	for i := 0; i < 40; i++ {
		rows = append(rows, randomSource(rng, 12, i))
	}
	p := NewPool()
	p.SkipRound(rows)
	p.SkipRound(rows[10:30])
	if p.graph.adj != nil {
		t.Fatalf("skipped rounds built a graph of %d vertices", len(p.graph.adj))
	}
	if len(p.pending) != len(rows) || p.Counters().Rounds != 2 {
		t.Fatalf("%d rows pending after two skips over %d rows, %d rounds", len(p.pending), len(rows), p.Counters().Rounds)
	}
}
