package bounds

import (
	"math/rand"
	"testing"

	"repro/internal/cuts"
	"repro/internal/engine"
	"repro/internal/pb"
)

// twoTriangles is the canonical instance where clique cuts beat plain LPR by
// a full unit: two disjoint vertex-cover triangles, each with LP optimum 1.5
// but integer optimum 2. The plain relaxation gives 3 (already integral, so
// rounding gains nothing); the two clique cuts x+y+z ≥ 2 lift it to the true
// optimum 4.
func twoTriangles() *pb.Problem {
	p := pb.NewProblem(6)
	for v := 0; v < 6; v++ {
		p.SetCost(pb.Var(v), 1)
	}
	clause := func(a, b int) {
		_ = p.AddConstraint([]pb.Term{
			{Coef: 1, Lit: pb.PosLit(pb.Var(a))},
			{Coef: 1, Lit: pb.PosLit(pb.Var(b))},
		}, pb.GE, 1)
	}
	clause(0, 1)
	clause(1, 2)
	clause(0, 2)
	clause(3, 4)
	clause(4, 5)
	clause(3, 5)
	return p
}

// TestLPRCutsCloseRootGap drives the root fixpoint end to end: separation
// must find both triangle cliques, the re-solved LP must reach the integer
// optimum, and a clean fixpoint must leave the warm basis intact.
func TestLPRCutsCloseRootGap(t *testing.T) {
	p := twoTriangles()
	e := engine.New(p)
	if e.SeedUnits() < 0 || e.Propagate() >= 0 {
		t.Fatalf("unexpected root conflict")
	}
	red := Extract(e)

	plain := LPR{State: &LPRState{}}.Estimate(e, red, p.Cost, p.TotalCost()+1, Budget{})
	if plain.Bound != 3 {
		t.Fatalf("plain LPR bound = %d, want 3", plain.Bound)
	}

	st := &LPRState{}
	pool := cuts.NewPool()
	est := LPR{State: st, Cuts: pool}
	res := est.Estimate(e, red, p.Cost, p.TotalCost()+1, Budget{})
	if res.Failed || res.Incomplete {
		t.Fatalf("cut-augmented estimate degraded: %+v", res)
	}
	if res.Bound != 4 {
		t.Fatalf("cut-augmented bound = %d, want 4 (integer optimum)", res.Bound)
	}
	ctr := pool.Counters()
	if ctr.Separated != 2 || ctr.Active != 2 {
		t.Fatalf("expected exactly the two triangle cliques pooled: %+v", ctr)
	}
	if ctr.Applied < 2 || ctr.Rounds < 2 {
		t.Fatalf("fixpoint bookkeeping off: %+v", ctr)
	}
	if !st.bufs.ws.HasBasis() {
		t.Fatalf("clean fixpoint must keep the warm basis")
	}
	// The pooled cuts keep tightening subsequent (deeper) estimations.
	e.Decide(pb.PosLit(0))
	if e.Propagate() >= 0 {
		t.Fatalf("unexpected conflict after decision")
	}
	red2 := Extract(e)
	res2 := est.Estimate(e, red2, p.Cost, p.TotalCost()+1, Budget{})
	if res2.Failed {
		t.Fatalf("deep estimate failed")
	}
	// x0=1 satisfies the first triangle's cut partially: residual x1+x2 ≥ 1,
	// second cut untouched — the bound stays ≥ 3 for the remaining vars plus
	// nothing for x0... total completion cost ≥ 1+3 means bound ≥ 3.
	if res2.Bound < 3 {
		t.Fatalf("deep cut-augmented bound = %d, want ≥ 3", res2.Bound)
	}
}

// TestLPRCutsInterruptBetweenRounds is the regression for the warm-basis
// lease bug: a Budget interrupt firing between separation rounds abandons
// the loop after cut rows entered the tableau. The abandonment must
// invalidate the basis snapshot — otherwise the next estimation would
// warm-start from a tableau whose cut rows the returned Result never
// described.
func TestLPRCutsInterruptBetweenRounds(t *testing.T) {
	p := twoTriangles()
	e := engine.New(p)
	if e.SeedUnits() < 0 || e.Propagate() >= 0 {
		t.Fatalf("unexpected root conflict")
	}
	red := Extract(e)

	st := &LPRState{}
	pool := cuts.NewPool()
	est := LPR{State: st, Cuts: pool}
	calls := 0
	bud := Budget{Interrupt: func() bool {
		calls++
		return calls >= 2 // round 0 runs in full; round 1 is interrupted
	}}
	res := est.Estimate(e, red, p.Cost, p.TotalCost()+1, bud)
	if calls < 2 {
		t.Fatalf("interrupt consulted %d times; the separation loop never reached round 1", calls)
	}
	if pool.Counters().Separated == 0 {
		t.Fatalf("round 0 separated nothing; the regression scenario did not materialize")
	}
	if st.bufs.ws.HasBasis() {
		t.Fatalf("interrupted separation left the warm-basis lease pointing at the cut-augmented tableau")
	}
	// The interrupted result is still sound and still benefits from the
	// round-0 cuts it re-solved with.
	if res.Failed {
		t.Fatalf("interrupted estimate failed outright")
	}
	if res.Bound < 3 || res.Bound > 4 {
		t.Fatalf("interrupted bound = %d, want within [3,4]", res.Bound)
	}
	// The next estimation must work from a cold start and succeed.
	res2 := est.Estimate(e, red, p.Cost, p.TotalCost()+1, Budget{})
	if res2.Failed || res2.Bound != 4 {
		t.Fatalf("post-interrupt estimate: %+v, want clean bound 4", res2)
	}
	if st.ColdSolves() == 0 {
		t.Fatalf("post-interrupt estimate should have started cold")
	}
}

// TestLPRCutsInfeasibleResidual exercises the residualization fast path: a
// pooled cut whose unassigned literals cannot cover the residual degree
// refutes the node, with the cut's false literals as the explanation. (The
// injected cut is valid for the instance: x2+x3 ≥ 2 is implied by the two
// unit-ish rows below.)
func TestLPRCutsInfeasibleResidual(t *testing.T) {
	p := pb.NewProblem(4)
	for v := 0; v < 4; v++ {
		p.SetCost(pb.Var(v), 1)
	}
	// Loose covering row keeping all four vars in play, plus clause pairs
	// (x2∨x0)(x2∨¬x0) and (x3∨x1)(x3∨¬x1): by resolution they imply x2 and
	// x3 — hence the cut — yet nothing is unit at the root.
	_ = p.AddConstraint([]pb.Term{
		{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.PosLit(1)},
		{Coef: 1, Lit: pb.PosLit(2)}, {Coef: 1, Lit: pb.PosLit(3)},
	}, pb.GE, 1)
	clause := func(a, b pb.Lit) {
		_ = p.AddConstraint([]pb.Term{{Coef: 1, Lit: a}, {Coef: 1, Lit: b}}, pb.GE, 1)
	}
	clause(pb.PosLit(2), pb.PosLit(0))
	clause(pb.PosLit(2), pb.NegLit(0))
	clause(pb.PosLit(3), pb.PosLit(1))
	clause(pb.PosLit(3), pb.NegLit(1))

	e := engine.New(p)
	if e.SeedUnits() < 0 {
		t.Fatalf("unexpected unit conflict")
	}
	pool := cuts.NewPool()
	if !pool.Add(cuts.Cut{Terms: []pb.Term{
		{Coef: 1, Lit: pb.PosLit(2)}, {Coef: 1, Lit: pb.PosLit(3)},
	}, Degree: 2}) {
		t.Fatalf("cut rejected")
	}
	est := LPR{State: &LPRState{}, Cuts: pool}

	e.Decide(pb.NegLit(2)) // falsify x2: the cut's residual 1·x3 ≥ 2 is hopeless
	red := Extract(e)
	if red.Infeasible {
		t.Skipf("engine-level extraction already infeasible; cut path shadowed")
	}
	res := est.Estimate(e, red, p.Cost, p.TotalCost()+1, Budget{})
	if res.Bound != InfBound {
		t.Fatalf("bound = %d, want InfBound from the residual cut", res.Bound)
	}
	if len(res.ResponsibleLits) != 1 || res.ResponsibleLits[0] != pb.PosLit(2) {
		t.Fatalf("ResponsibleLits = %v, want [x2]", res.ResponsibleLits)
	}
}

// separateAtNextDeepNode advances pool's deep-node cadence so that the next
// estimation below the root runs a separation round: Probe turns true once
// per period, so probing up to one true, counting the probes to the next,
// and then probing one period less one leaves the next Probe true.
func separateAtNextDeepNode(pool *cuts.Pool) {
	for !pool.Probe(1) {
	}
	period := 1
	for !pool.Probe(1) {
		period++
	}
	for i := 1; i < period; i++ {
		pool.Probe(1)
	}
}

// TestLPRCutsSoundDownRandomPaths is the differential soundness sweep: with
// a persistent pool and warm state, estimates along random decision paths —
// each of which separates, at the root to a fixpoint and below it one
// round — never exceed the reduced problem's true optimum, and InfBound
// claims are genuine. The pool accumulates across nodes of the SAME
// instance (matching real use: one pool per solve).
func TestLPRCutsSoundDownRandomPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 150; iter++ {
		p := randomProblem(rng, 4+rng.Intn(5))
		pool := cuts.NewPool()
		est := LPR{State: &LPRState{}, Cuts: pool}
		e := engine.New(p)
		if e.SeedUnits() >= 0 && e.Propagate() < 0 {
			for depth := 0; depth < 4; depth++ {
				red := Extract(e)
				if red.Infeasible {
					break
				}
				if depth > 0 {
					separateAtNextDeepNode(pool)
				}
				res := est.Estimate(e, red, p.Cost, p.TotalCost()+1, Budget{})
				if res.Failed {
					continue
				}
				opt, feasible := bruteReduced(red, p.Cost)
				if res.Bound >= InfBound {
					if feasible {
						t.Fatalf("iter %d depth %d: InfBound but reduced optimum %d exists", iter, depth, opt)
					}
				} else if feasible && res.Bound > opt {
					t.Fatalf("iter %d depth %d: bound %d > reduced optimum %d", iter, depth, res.Bound, opt)
				}
				for _, l := range res.ResponsibleLits {
					if e.LitValue(l) != engine.False {
						t.Fatalf("iter %d: responsible cut literal %v not false", iter, l)
					}
				}
				// One random decision deeper.
				var free []pb.Var
				for v := 0; v < e.NumVars(); v++ {
					if e.Value(pb.Var(v)) == engine.Unassigned {
						free = append(free, pb.Var(v))
					}
				}
				if len(free) == 0 {
					break
				}
				e.Decide(pb.MkLit(free[rng.Intn(len(free))], rng.Intn(2) == 0))
				if e.Propagate() >= 0 {
					break
				}
			}
		}
	}
}
