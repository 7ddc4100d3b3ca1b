package engine

import (
	"math/rand"
	"testing"

	"repro/internal/pb"
)

// BenchmarkPropagateChain measures unit-propagation throughput along a long
// implication chain of binary clauses (one Decide triggers n−1 implications).
func BenchmarkPropagateChain(b *testing.B) {
	const n = 2000
	p := pb.NewProblem(n)
	for v := 0; v < n-1; v++ {
		_ = p.AddClause(pb.NegLit(pb.Var(v)), pb.PosLit(pb.Var(v+1)))
	}
	e := New(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Decide(pb.PosLit(0))
		if confl := e.Propagate(); confl >= 0 {
			b.Fatal("unexpected conflict")
		}
		if e.Value(pb.Var(n-1)) != True {
			b.Fatal("chain did not propagate")
		}
		e.BacktrackTo(0)
	}
	b.ReportMetric(float64(n-1), "implications/op")
}

// BenchmarkPropagatePB measures counter-based propagation through general
// pseudo-Boolean constraints (coefficient sums, not clause watching).
func BenchmarkPropagatePB(b *testing.B) {
	const n = 1200
	p := pb.NewProblem(n)
	// x_{i+1} forced once x_i true: 3·x_i requires... use 2¬x_i + 3x_{i+1} ≥ 3:
	// with x_i true the row needs x_{i+1}.
	for v := 0; v < n-1; v++ {
		_ = p.AddConstraint([]pb.Term{
			{Coef: 2, Lit: pb.NegLit(pb.Var(v))},
			{Coef: 3, Lit: pb.PosLit(pb.Var(v + 1))},
		}, pb.GE, 3)
	}
	e := New(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Decide(pb.PosLit(0))
		if confl := e.Propagate(); confl >= 0 {
			b.Fatal("unexpected conflict")
		}
		e.BacktrackTo(0)
	}
	b.ReportMetric(float64(n-1), "implications/op")
}

// BenchmarkConflictAnalysis measures the full conflict loop (propagate,
// 1UIP analyze, learn, backjump) on phase-transition 3-SAT.
func BenchmarkConflictAnalysis(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 120
	p := pb.NewProblem(n)
	for i := 0; i < int(4.3*float64(n)); i++ {
		lits := make([]pb.Lit, 3)
		for k := range lits {
			lits[k] = pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0)
		}
		_ = p.AddClause(lits...)
	}
	b.ResetTimer()
	conflicts := 0
	for i := 0; i < b.N; i++ {
		e := New(p)
		if e.SeedUnits() < 0 {
			b.Fatal("root unsat")
		}
		for steps := 0; steps < 3000; steps++ {
			confl := e.Propagate()
			if confl >= 0 {
				conflicts++
				res := e.AnalyzeConstraint(confl)
				if res.Unsat {
					break
				}
				if e.LearnAndBackjump(res) < 0 {
					break
				}
				continue
			}
			if e.NumUnsatisfied() == 0 {
				break
			}
			v := e.PickBranchVar()
			if v < 0 {
				break
			}
			e.Decide(pb.MkLit(v, e.PreferredPhase(v) == False))
		}
	}
	b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
}

// BenchmarkCuttingPlaneAnalysis isolates the Galena-style derivation cost
// relative to plain clause analysis on the same conflicts.
func BenchmarkCuttingPlaneAnalysis(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const n = 80
	p := pb.NewProblem(n)
	for i := 0; i < int(4.3*float64(n)); i++ {
		lits := make([]pb.Lit, 3)
		for k := range lits {
			lits[k] = pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0)
		}
		_ = p.AddClause(lits...)
	}
	b.ResetTimer()
	derived := 0
	for i := 0; i < b.N; i++ {
		e := New(p)
		if e.SeedUnits() < 0 {
			b.Fatal("root unsat")
		}
		for steps := 0; steps < 2000; steps++ {
			confl := e.Propagate()
			if confl >= 0 {
				if terms, _ := e.AnalyzeCuttingPlane(confl); terms != nil {
					derived++
				}
				res := e.AnalyzeConstraint(confl)
				if res.Unsat {
					break
				}
				if e.LearnAndBackjump(res) < 0 {
					break
				}
				continue
			}
			if e.NumUnsatisfied() == 0 {
				break
			}
			v := e.PickBranchVar()
			if v < 0 {
				break
			}
			e.Decide(pb.MkLit(v, e.PreferredPhase(v) == False))
		}
	}
	b.ReportMetric(float64(derived)/float64(b.N), "derivations/op")
}

// --- Propagation-wave benchmarks: SoA engine vs pre-refactor AoS replica ---
//
// buildWaveProblem is the shared workload: a PB implication chain (one
// decision cascades across all variables) overlaid with ternary clauses so
// every assignment touches several occurrence lists and many constraints
// transition to satisfied during the wave (exercising delta notification).
func buildWaveProblem(n int) *pb.Problem {
	p := pb.NewProblem(n)
	for v := 0; v < n-1; v++ {
		_ = p.AddConstraint([]pb.Term{
			{Coef: 2, Lit: pb.NegLit(pb.Var(v))},
			{Coef: 3, Lit: pb.PosLit(pb.Var(v + 1))},
		}, pb.GE, 3)
	}
	// Several overlapping clause families so occurrence rows reach the
	// densities of the paper's routing/synthesis instances (each literal in
	// ~8-10 constraints) rather than a bare chain. Every clause holds a
	// positive literal of a lower-indexed variable, so the all-true cascade
	// from x0 satisfies all of them — the wave exercises satisfaction
	// transitions and delta batching, never clause conflicts.
	for v := 0; v+5 < n; v++ {
		_ = p.AddClause(pb.PosLit(pb.Var(v)), pb.NegLit(pb.Var(v+2)), pb.PosLit(pb.Var(v+5)))
	}
	for v := 0; v+7 < n; v++ {
		_ = p.AddClause(pb.PosLit(pb.Var(v)), pb.NegLit(pb.Var(v+3)), pb.PosLit(pb.Var(v+7)))
	}
	for v := 0; v+4 < n; v++ {
		_ = p.AddClause(pb.PosLit(pb.Var(v)), pb.NegLit(pb.Var(v+1)), pb.PosLit(pb.Var(v+4)))
	}
	for v := 0; v+9 < n; v++ {
		_ = p.AddClause(pb.PosLit(pb.Var(v)), pb.NegLit(pb.Var(v+4)), pb.PosLit(pb.Var(v+9)))
	}
	// Long cardinality windows (routing-style at-least-one rows): every
	// assignment in the wave updates the counters of ~8 windows, but each
	// window transitions to satisfied only once — the bulk of the work is
	// pure counter maintenance, the dominant cost on the paper's families.
	for v := 0; v+16 <= n; v += 2 {
		terms := make([]pb.Term, 16)
		for k := range terms {
			terms[k] = pb.Term{Coef: 1, Lit: pb.PosLit(pb.Var(v + k))}
		}
		_ = p.AddConstraint(terms, pb.GE, 1)
	}
	return p
}

// waveWatcher consumes batched ConsWave deltas (the bounds.Reducer role).
type waveWatcher struct{ sat, unsat int }

func (w *waveWatcher) ConsWave(satisfied, unsatisfied []int32) {
	w.sat += len(satisfied)
	w.unsat += len(unsatisfied)
}

// BenchmarkPropagateWaveSoA measures one full propagation wave through the
// struct-of-arrays engine — decide, CSR counter propagation, one batched
// delta flush, backtrack, flush again — with a watcher attached, as in a
// bounds-estimating search. Compare against BenchmarkPropagateWaveAoS (the
// pre-refactor pointer-per-constraint layout) for the layout speedup.
func BenchmarkPropagateWaveSoA(b *testing.B) {
	const n = 1500
	e := New(buildWaveProblem(n))
	w := &waveWatcher{}
	e.SetConsWatcher(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Decide(pb.PosLit(0))
		if confl := e.Propagate(); confl >= 0 {
			b.Fatal("unexpected conflict")
		}
		e.FlushConsDeltas()
		if e.Value(pb.Var(n-1)) != True {
			b.Fatal("wave did not cascade")
		}
		e.BacktrackTo(0)
		e.FlushConsDeltas()
	}
	b.ReportMetric(float64(n-1), "implications/op")
}

// aosCons / aosEngine replicate the PRE-refactor engine (see git history
// before the data-oriented refactor): one heap object per constraint with an
// interleaved term slice, occurrence lists holding (constraint, term-index)
// pairs that chase into the constraint for every coefficient, eager watchSum
// updates in assign followed by a SECOND occurrence walk in propagate, and
// per-transition (unbatched) watcher callbacks. The surrounding bookkeeping
// — value/level/reason/trailPos/phase arrays, stats counters, VSIDS heap
// re-insertion on backtrack — mirrors the old code line for line, so the
// benchmark pair isolates the layout + wave-fusion refactor rather than
// comparing the full engine against a thinner solver.
type aosCons struct {
	Terms             []pb.Term
	Degree            int64
	watchSum, trueSum int64
	maxCoef           int64
	activity          float64 // unused here; part of the historical layout
	removed           bool
	learned           bool
	protected         bool
}

func (c *aosCons) satisfied() bool { return c.trueSum >= c.Degree }

type aosRef struct {
	cons int32
	term int32
}

type aosEngine struct {
	cons     []*aosCons
	occ      [][]aosRef // indexed by pb.Lit
	watches  [][]int32  // learned-clause watch lists (empty here, as in SoA)
	value    []Value
	level    []int32
	reason   []int32
	trailPos []int32
	phase    []Value
	act      []float64
	heap     *varHeap
	trail    []pb.Lit
	trailLim []int
	propHead int

	decisions, propagations, conflicts int64
	maxTrail, numUnsatisfied           int

	onSat, onUnsat func(int) // per-transition (unbatched) watcher
}

func newAoS(p *pb.Problem) *aosEngine {
	n := p.NumVars
	a := &aosEngine{
		occ:      make([][]aosRef, 2*n),
		watches:  make([][]int32, 2*n),
		value:    make([]Value, n),
		level:    make([]int32, n),
		reason:   make([]int32, n),
		trailPos: make([]int32, n),
		phase:    make([]Value, n),
		act:      make([]float64, n),
	}
	for i := 0; i < n; i++ {
		a.value[i] = Unassigned
		a.phase[i] = False
		a.reason[i] = NoReason
	}
	a.heap = newVarHeap(a.act, nil, nil)
	for v := 0; v < n; v++ {
		a.heap.push(pb.Var(v))
	}
	for _, c := range p.Constraints {
		ac := &aosCons{Degree: c.Degree, Terms: append([]pb.Term(nil), c.Terms...)}
		idx := int32(len(a.cons))
		a.cons = append(a.cons, ac)
		for ti, t := range ac.Terms {
			if t.Coef > ac.maxCoef {
				ac.maxCoef = t.Coef
			}
			a.occ[t.Lit] = append(a.occ[t.Lit], aosRef{idx, int32(ti)})
			ac.watchSum += t.Coef
		}
		if !ac.satisfied() {
			a.numUnsatisfied++
		}
	}
	return a
}

func (a *aosEngine) litValue(l pb.Lit) Value {
	v := a.value[l.Var()]
	if v == Unassigned {
		return Unassigned
	}
	if l.IsNeg() {
		return 1 - v
	}
	return v
}

func (a *aosEngine) assign(l pb.Lit, reason int32) {
	v := l.Var()
	if l.IsNeg() {
		a.value[v] = False
	} else {
		a.value[v] = True
	}
	a.level[v] = int32(len(a.trailLim))
	a.reason[v] = reason
	a.trailPos[v] = int32(len(a.trail))
	a.trail = append(a.trail, l)
	if len(a.trail) > a.maxTrail {
		a.maxTrail = len(a.trail)
	}
	for _, ref := range a.occ[l] {
		c := a.cons[ref.cons]
		if c.removed {
			continue
		}
		wasSat := c.satisfied()
		c.trueSum += c.Terms[ref.term].Coef
		if !wasSat && c.satisfied() && !c.learned {
			a.numUnsatisfied--
			if a.onSat != nil {
				a.onSat(int(ref.cons))
			}
		}
	}
	for _, ref := range a.occ[l.Neg()] {
		c := a.cons[ref.cons]
		if c.removed {
			continue
		}
		c.watchSum -= c.Terms[ref.term].Coef
	}
}

func (a *aosEngine) decide(l pb.Lit) {
	a.decisions++
	a.trailLim = append(a.trailLim, len(a.trail))
	a.assign(l, NoReason)
}

// The historical propagateWatches was a large function the compiler never
// inlined; keep the call overhead in the replica.
//
//go:noinline
func (a *aosEngine) propagateWatches(nl pb.Lit) int {
	for range a.watches[nl] {
		panic("no watched clauses in the wave workload")
	}
	return -1
}

func (a *aosEngine) propagate() int {
	for a.propHead < len(a.trail) {
		l := a.trail[a.propHead]
		a.propHead++
		a.propagations++
		nl := l.Neg()
		if confl := a.propagateWatches(nl); confl >= 0 {
			return confl
		}
		for _, ref := range a.occ[nl] {
			c := a.cons[ref.cons]
			if c.Terms[ref.term].Lit != nl {
				continue
			}
			if c.satisfied() {
				continue
			}
			slack := c.watchSum - c.Degree
			if slack < 0 {
				a.conflicts++
				return int(ref.cons)
			}
			if slack >= c.maxCoef {
				continue
			}
			for _, t := range c.Terms {
				if t.Coef <= slack {
					break // terms sorted by descending coefficient
				}
				if a.litValue(t.Lit) == Unassigned {
					a.assign(t.Lit, ref.cons)
				}
			}
		}
	}
	return -1
}

func (a *aosEngine) backtrackTo(lvl int) {
	if lvl >= len(a.trailLim) {
		return
	}
	limit := a.trailLim[lvl]
	for i := len(a.trail) - 1; i >= limit; i-- {
		l := a.trail[i]
		v := l.Var()
		for _, ref := range a.occ[l] {
			c := a.cons[ref.cons]
			if c.removed {
				continue
			}
			wasSat := c.satisfied()
			c.trueSum -= c.Terms[ref.term].Coef
			if wasSat && !c.satisfied() && !c.learned {
				a.numUnsatisfied++
				if a.onUnsat != nil {
					a.onUnsat(int(ref.cons))
				}
			}
		}
		for _, ref := range a.occ[l.Neg()] {
			c := a.cons[ref.cons]
			if c.removed {
				continue
			}
			c.watchSum += c.Terms[ref.term].Coef
		}
		a.phase[v] = a.value[v]
		a.value[v] = Unassigned
		a.reason[v] = NoReason
		a.heap.pushIfAbsent(v)
	}
	a.trail = a.trail[:limit]
	a.trailLim = a.trailLim[:lvl]
	if a.propHead > limit {
		a.propHead = limit
	}
}

// BenchmarkPropagateWaveAoS runs the identical wave workload through the
// pre-refactor replica (unbatched per-transition notifications).
func BenchmarkPropagateWaveAoS(b *testing.B) {
	const n = 1500
	a := newAoS(buildWaveProblem(n))
	sat, unsat := 0, 0
	a.onSat = func(int) { sat++ }
	a.onUnsat = func(int) { unsat++ }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.decide(pb.PosLit(0))
		if confl := a.propagate(); confl >= 0 {
			b.Fatal("unexpected conflict")
		}
		if a.value[n-1] != True {
			b.Fatal("wave did not cascade")
		}
		a.backtrackTo(0)
	}
	b.ReportMetric(float64(n-1), "implications/op")
}
