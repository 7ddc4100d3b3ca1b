package bounds

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/pb"
)

// bruteReduced exhaustively minimizes Σ cost over the unassigned variables
// subject to the reduced rows. Returns (optimum, feasible).
func bruteReduced(red *Reduced, cost []int64) (int64, bool) {
	varSet := map[pb.Var]bool{}
	for _, r := range red.Rows {
		for _, t := range r.Terms {
			varSet[t.Lit.Var()] = true
		}
	}
	vars := make([]pb.Var, 0, len(varSet))
	for v := range varSet {
		vars = append(vars, v)
	}
	if len(vars) > 20 {
		panic("bruteReduced too large")
	}
	best := int64(math.MaxInt64)
	feasible := false
	for mask := 0; mask < 1<<len(vars); mask++ {
		val := map[pb.Var]bool{}
		for i, v := range vars {
			val[v] = mask&(1<<i) != 0
		}
		ok := true
		for _, r := range red.Rows {
			var lhs int64
			for _, t := range r.Terms {
				if t.Lit.Eval(val[t.Lit.Var()]) {
					lhs += t.Coef
				}
			}
			if lhs < r.Degree {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		var obj int64
		for _, v := range vars {
			if val[v] {
				obj += cost[v]
			}
		}
		if obj < best {
			best = obj
			feasible = true
		}
	}
	return best, feasible
}

// randomProblem builds a random covering-flavoured PBO instance.
func randomProblem(rng *rand.Rand, n int) *pb.Problem {
	p := pb.NewProblem(n)
	for v := 0; v < n; v++ {
		p.SetCost(pb.Var(v), int64(rng.Intn(8)))
	}
	m := 2 + rng.Intn(6)
	for i := 0; i < m; i++ {
		nt := 1 + rng.Intn(4)
		terms := make([]pb.Term, nt)
		for k := range terms {
			terms[k] = pb.Term{
				Coef: int64(1 + rng.Intn(4)),
				Lit:  pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(3) == 0),
			}
		}
		_ = p.AddConstraint(terms, pb.GE, int64(1+rng.Intn(5)))
	}
	return p
}

// decideRandom makes up to k random decisions with propagation; returns
// false if a conflict occurred (caller skips the iteration).
func decideRandom(e *engine.Engine, rng *rand.Rand, k int) bool {
	if e.SeedUnits() < 0 {
		return false
	}
	if e.Propagate() >= 0 {
		return false
	}
	for d := 0; d < k; d++ {
		var free []pb.Var
		for v := 0; v < e.NumVars(); v++ {
			if e.Value(pb.Var(v)) == engine.Unassigned {
				free = append(free, pb.Var(v))
			}
		}
		if len(free) == 0 {
			break
		}
		v := free[rng.Intn(len(free))]
		e.Decide(pb.MkLit(v, rng.Intn(2) == 0))
		if e.Propagate() >= 0 {
			return false
		}
	}
	return true
}

func estimators() []Estimator {
	return []Estimator{
		None{},
		MIS{},
		LPR{State: &LPRState{}},
		LGR{},
		LGR{Iterations: 10},
		LGR{WarmStart: true},
		LGR{WarmStart: true, Iterations: 1},
		LPR{State: &LPRState{}, maxIter: 3}, // anytime: iteration-capped partial bound
	}
}

// The dual-ascent warm start must never hurt: warm LGR ≥ cold LGR bound on
// covering-style problems at equal iteration budgets.
func TestLGRWarmStartAtLeastAsGood(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for iter := 0; iter < 200; iter++ {
		p := randomProblem(rng, 3+rng.Intn(5))
		e := engine.New(p)
		if !decideRandom(e, rng, rng.Intn(3)) {
			continue
		}
		red := Extract(e)
		if red.Infeasible {
			continue
		}
		cold := LGR{Iterations: 20}.Estimate(e, red, p.Cost, p.TotalCost()+1, Budget{})
		warm := LGR{Iterations: 20, WarmStart: true}.Estimate(e, red, p.Cost, p.TotalCost()+1, Budget{})
		if warm.Bound < cold.Bound {
			t.Fatalf("iter %d: warm %d < cold %d", iter, warm.Bound, cold.Bound)
		}
	}
}

// The central soundness property: every estimator's bound is ≤ the true
// optimum of the reduced problem (or the reduced problem is infeasible).
func TestBoundsNeverExceedReducedOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	ests := estimators()
	for iter := 0; iter < 500; iter++ {
		p := randomProblem(rng, 3+rng.Intn(6))
		e := engine.New(p)
		if !decideRandom(e, rng, rng.Intn(4)) {
			continue
		}
		red := Extract(e)
		opt, feasible := bruteReduced(red, p.Cost)
		for _, est := range ests {
			res := est.Estimate(e, red, p.Cost, p.TotalCost()+1, Budget{})
			if res.Bound < 0 {
				t.Fatalf("iter %d %s: negative bound %d", iter, est.Name(), res.Bound)
			}
			if !feasible {
				continue // any bound is fine; InfBound expected eventually
			}
			if res.Bound > opt {
				t.Fatalf("iter %d %s: bound %d exceeds reduced optimum %d",
					iter, est.Name(), res.Bound, opt)
			}
		}
	}
}

func TestExtractReducedProblem(t *testing.T) {
	p := pb.NewProblem(3)
	p.SetCost(0, 1)
	p.SetCost(1, 2)
	p.SetCost(2, 3)
	// 2x0 + 2x1 + 2x2 >= 4.
	if err := p.AddConstraint([]pb.Term{
		{Coef: 2, Lit: pb.PosLit(0)}, {Coef: 2, Lit: pb.PosLit(1)}, {Coef: 2, Lit: pb.PosLit(2)},
	}, pb.GE, 4); err != nil {
		t.Fatal(err)
	}
	e := engine.New(p)
	e.Decide(pb.PosLit(0))
	if e.Propagate() >= 0 {
		t.Fatal("conflict")
	}
	red := Extract(e)
	if len(red.Rows) != 1 {
		t.Fatalf("rows=%d", len(red.Rows))
	}
	r := red.Rows[0]
	if r.Degree != 2 || len(r.Terms) != 2 {
		t.Fatalf("row=%+v", r)
	}
	// Coefficients clipped to residual degree 2 (they are 2 already).
	for _, tm := range r.Terms {
		if tm.Coef != 2 {
			t.Fatalf("coef=%d", tm.Coef)
		}
	}
}

func TestExtractDetectsInfeasible(t *testing.T) {
	p := pb.NewProblem(2)
	_ = p.AddAtLeast([]pb.Lit{pb.PosLit(0), pb.PosLit(1)}, 2)
	e := engine.New(p)
	// Force x0 false without propagating (simulate the pre-fixpoint window).
	e.Decide(pb.NegLit(0))
	e.Decide(pb.NegLit(1))
	red := Extract(e)
	if !red.Infeasible {
		t.Fatal("expected infeasible flag")
	}
	for _, est := range estimators() {
		res := est.Estimate(e, red, p.Cost, 100, Budget{})
		if res.Bound != InfBound {
			t.Fatalf("%s: bound=%d want InfBound", est.Name(), res.Bound)
		}
		if len(res.Responsible) == 0 {
			t.Fatalf("%s: no responsible constraints", est.Name())
		}
	}
}

func TestMISClauseExample(t *testing.T) {
	// Two disjoint clauses: (x0:3 ∨ x1:5) and (x2:2 ∨ x3:4) with the given
	// costs ⇒ MIS bound = 3 + 2 = 5.
	p := pb.NewProblem(4)
	costs := []int64{3, 5, 2, 4}
	for v, c := range costs {
		p.SetCost(pb.Var(v), c)
	}
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
	_ = p.AddClause(pb.PosLit(2), pb.PosLit(3))
	e := engine.New(p)
	red := Extract(e)
	res := MIS{}.Estimate(e, red, p.Cost, 100, Budget{})
	if res.Bound != 5 {
		t.Fatalf("bound=%d want 5", res.Bound)
	}
	if len(res.Responsible) != 2 {
		t.Fatalf("responsible=%v want both clauses", res.Responsible)
	}
}

func TestMISNegativeLiteralIsFree(t *testing.T) {
	// Clause (x0:7 ∨ ¬x1): satisfiable for free by x1=0 ⇒ bound 0.
	p := pb.NewProblem(2)
	p.SetCost(0, 7)
	_ = p.AddClause(pb.PosLit(0), pb.NegLit(1))
	e := engine.New(p)
	red := Extract(e)
	res := MIS{}.Estimate(e, red, p.Cost, 100, Budget{})
	if res.Bound != 0 {
		t.Fatalf("bound=%d want 0", res.Bound)
	}
}

func TestMISOverlappingConstraintsPicksOne(t *testing.T) {
	// Two clauses sharing x1: only one can enter the MIS.
	p := pb.NewProblem(3)
	p.SetCost(0, 4)
	p.SetCost(1, 4)
	p.SetCost(2, 4)
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
	_ = p.AddClause(pb.PosLit(1), pb.PosLit(2))
	e := engine.New(p)
	red := Extract(e)
	res := MIS{}.Estimate(e, red, p.Cost, 100, Budget{})
	if res.Bound != 4 {
		t.Fatalf("bound=%d want 4", res.Bound)
	}
	if len(res.Responsible) != 1 {
		t.Fatalf("responsible=%v want exactly one", res.Responsible)
	}
}

func TestLPRFractionalExample(t *testing.T) {
	// min x0 + x1 s.t. 2x0+x1 >= 2, x0+2x1 >= 2 (no clipping: coef ≤ degree):
	// z_lpr = 4/3 at x0=x1=2/3 ⇒ bound ⌈4/3⌉ = 2 (= integer optimum).
	p := pb.NewProblem(2)
	p.SetCost(0, 1)
	p.SetCost(1, 1)
	_ = p.AddConstraint([]pb.Term{{Coef: 2, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.PosLit(1)}}, pb.GE, 2)
	_ = p.AddConstraint([]pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 2, Lit: pb.PosLit(1)}}, pb.GE, 2)
	e := engine.New(p)
	red := Extract(e)
	res := LPR{State: &LPRState{}}.Estimate(e, red, p.Cost, 100, Budget{})
	if res.Bound != 2 {
		t.Fatalf("bound=%d want 2", res.Bound)
	}
	if len(res.FracX) != 2 {
		t.Fatalf("FracX=%v", res.FracX)
	}
	for _, f := range res.FracX {
		if math.Abs(f.X-2.0/3.0) > 1e-5 {
			t.Fatalf("x%d=%v want 2/3", f.Var, f.X)
		}
	}
}

func TestLPRTighterThanMIS(t *testing.T) {
	// Interlocking clauses where MIS can pick only one but LPR sees all:
	// pairwise clauses over {x0,x1,x2} with unit costs. LP optimum is 1.5 ⇒
	// bound 2; MIS picks a single clause ⇒ bound 1.
	p := pb.NewProblem(3)
	for v := 0; v < 3; v++ {
		p.SetCost(pb.Var(v), 1)
	}
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
	_ = p.AddClause(pb.PosLit(1), pb.PosLit(2))
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(2))
	e := engine.New(p)
	red := Extract(e)
	mis := MIS{}.Estimate(e, red, p.Cost, 100, Budget{})
	lpr := LPR{State: &LPRState{}}.Estimate(e, red, p.Cost, 100, Budget{})
	if mis.Bound != 1 {
		t.Fatalf("mis=%d want 1", mis.Bound)
	}
	if lpr.Bound != 2 {
		t.Fatalf("lpr=%d want 2", lpr.Bound)
	}
}

func TestLGRReachesPositiveBound(t *testing.T) {
	// Same instance as the LPR fractional example: LGR should find ≥ 1 too
	// (the Lagrangian dual equals the LP bound for this LP).
	p := pb.NewProblem(2)
	p.SetCost(0, 1)
	p.SetCost(1, 1)
	_ = p.AddConstraint([]pb.Term{{Coef: 2, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.PosLit(1)}}, pb.GE, 2)
	_ = p.AddConstraint([]pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 2, Lit: pb.PosLit(1)}}, pb.GE, 2)
	e := engine.New(p)
	red := Extract(e)
	res := LGR{Iterations: 200}.Estimate(e, red, p.Cost, 2, Budget{})
	if res.Bound < 1 {
		t.Fatalf("bound=%d want >= 1", res.Bound)
	}
}

func TestLGRBoundAtMostLPR(t *testing.T) {
	// The Lagrangian dual of an LP cannot exceed the LP optimum; our
	// iterative LGR must respect that on random instances.
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 200; iter++ {
		p := randomProblem(rng, 3+rng.Intn(5))
		e := engine.New(p)
		if !decideRandom(e, rng, rng.Intn(3)) {
			continue
		}
		red := Extract(e)
		if red.Infeasible {
			continue
		}
		lpr := LPR{State: &LPRState{}}.Estimate(e, red, p.Cost, p.TotalCost()+1, Budget{})
		lgr := LGR{Iterations: 100}.Estimate(e, red, p.Cost, p.TotalCost()+1, Budget{})
		if lpr.Bound == 0 && lgr.Bound == 0 {
			continue
		}
		if lgr.Bound > lpr.Bound {
			t.Fatalf("iter %d: lgr %d > lpr %d", iter, lgr.Bound, lpr.Bound)
		}
	}
}

func TestResponsibleSetsAreUnsatisfiedConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 100; iter++ {
		p := randomProblem(rng, 4+rng.Intn(4))
		e := engine.New(p)
		if !decideRandom(e, rng, rng.Intn(3)) {
			continue
		}
		red := Extract(e)
		valid := map[int]bool{}
		for _, r := range red.Rows {
			valid[r.EngIdx] = true
		}
		for _, est := range estimators() {
			res := est.Estimate(e, red, p.Cost, p.TotalCost()+1, Budget{})
			for _, idx := range res.Responsible {
				if !valid[idx] {
					t.Fatalf("iter %d %s: responsible %d not an unsatisfied row", iter, est.Name(), idx)
				}
			}
		}
	}
}

func TestEmptyReducedProblem(t *testing.T) {
	p := pb.NewProblem(2)
	p.SetCost(0, 5)
	e := engine.New(p)
	red := Extract(e)
	for _, est := range estimators() {
		res := est.Estimate(e, red, p.Cost, 100, Budget{})
		if res.Bound != 0 {
			t.Fatalf("%s: bound=%d want 0 on empty problem", est.Name(), res.Bound)
		}
	}
}

func TestCeilBound(t *testing.T) {
	cases := []struct {
		in   float64
		want int64
	}{
		{-1, 0}, {0, 0}, {0.5, 1}, {0.9999999, 1}, {1.0000001, 1}, {1.1, 2},
		{2.0, 2}, {float64(InfBound) * 2, InfBound},
	}
	for _, c := range cases {
		if got := ceilBound(c.in); got != c.want {
			t.Errorf("ceilBound(%v)=%d want %d", c.in, got, c.want)
		}
	}
}

func TestEstimatorNames(t *testing.T) {
	if (None{}).Name() != "plain" || (MIS{}).Name() != "mis" ||
		(LPR{}).Name() != "lpr" || (LGR{}).Name() != "lgr" {
		t.Fatal("names wrong")
	}
}

func TestRowLPBoundExactForClause(t *testing.T) {
	cost := []int64{9, 4, 6}
	row := &Row{
		Terms:  []pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.PosLit(1)}, {Coef: 1, Lit: pb.PosLit(2)}},
		Degree: 1,
	}
	if b := rowLPBound(cost, row); math.Abs(b-4) > 1e-9 {
		t.Fatalf("bound=%v want 4 (cheapest literal)", b)
	}
}

func TestRowLPBoundFractional(t *testing.T) {
	// 2x0 + 3x1 >= 4 with costs 2,9: densities 1 and 3 ⇒ take x0 fully (2
	// weight, cost 2) then 2/3 of x1 (cost 6) ⇒ bound 8.
	cost := []int64{2, 9}
	row := &Row{
		Terms:  []pb.Term{{Coef: 2, Lit: pb.PosLit(0)}, {Coef: 3, Lit: pb.PosLit(1)}},
		Degree: 4,
	}
	if b := rowLPBound(cost, row); math.Abs(b-8) > 1e-9 {
		t.Fatalf("bound=%v want 8", b)
	}
}

// The relative epsilon in ceilBound matters at large magnitudes: one ULP at
// |v| ≈ 1e12 is ≈ 1.2e-4, above the historical fixed 1e-6 slack, so the old
// Ceil(v−1e-6) rounded accumulated simplex noise like 1e12+3e-4 UP to
// 1e12+1 — an unsound over-round that prunes a node whose true bound is 1e12.
func TestCeilBoundRelativeEpsAtLargeMagnitude(t *testing.T) {
	const big = 1e12
	for _, noise := range []float64{1.5e-6, 3e-4, 2e-3} {
		noisy := big + noise // simulated float noise on a true bound of 1e12
		got := ceilBound(noisy)
		if got > int64(big) {
			t.Fatalf("ceilBound(1e12+%v)=%d over-rounds above the true bound %d",
				noise, got, int64(big))
		}
		// The slack only weakens the bound (sound direction) and stays
		// proportional: 1e-9 relative ⇒ at most ~1e3+1 below at this scale.
		if got < int64(big)-2000 {
			t.Fatalf("ceilBound(1e12+%v)=%d weakened far beyond the 1e-9 relative slack", noise, got)
		}
	}
	// Small-magnitude behaviour is unchanged by the relative component.
	if got := ceilBound(0.9999999); got != 1 {
		t.Fatalf("ceilBound(0.9999999)=%d want 1", got)
	}
	// Corrupted values degrade to the trivial bound, never to garbage.
	if got := ceilBound(math.NaN()); got != 0 {
		t.Fatalf("ceilBound(NaN)=%d want 0", got)
	}
}

// completionCap/capToCompletion: a known feasible completion's cost is a
// ceiling no sound lower bound may pierce.
func TestCompletionCapClampsOverRound(t *testing.T) {
	// Reduced problem: x0 + x1 ≥ 1 with costs {3,5}. The completion x0=1,
	// x1=0 is feasible at cost 3, so no sound lower bound may exceed 3.
	red := &Reduced{Rows: []Row{{
		EngIdx: 0,
		Terms:  []pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.PosLit(1)}},
		Degree: 1,
	}}}
	cost := []int64{3, 5}
	c, ok := completionCap(red, cost, map[pb.Var]bool{0: true})
	if !ok || c != 3 {
		t.Fatalf("completionCap=%d,%v want 3,true", c, ok)
	}
	// An infeasible candidate (all-false violates the row) yields no cap.
	if _, ok := completionCap(red, cost, map[pb.Var]bool{}); ok {
		t.Fatal("infeasible candidate must not produce a cap")
	}

	xp := toXSpace(red, cost)
	alpha := make([]float64, len(xp.vars))
	for j, v := range xp.vars {
		if v == 0 {
			alpha[j] = -1 // minimizer sets x0=1
		} else {
			alpha[j] = 1
		}
	}
	if got := capToCompletion(4, xp, red, cost, alpha); got != 3 {
		t.Fatalf("capToCompletion(4)=%d want clamp to the feasible completion cost 3", got)
	}
	if got := capToCompletion(2, xp, red, cost, alpha); got != 2 {
		t.Fatalf("capToCompletion(2)=%d want unchanged (below the cap)", got)
	}
	if got := capToCompletion(5, xp, red, cost, nil); got != 5 {
		t.Fatalf("capToCompletion with nil alpha must be a no-op, got %d", got)
	}
	if got := capToCompletion(InfBound, xp, red, cost, alpha); got != InfBound {
		t.Fatalf("InfBound must pass through untouched, got %d", got)
	}
}

// End-to-end regression at objective magnitudes near 1e12: every estimator's
// bound must stay ≤ the true reduced optimum (the regime where the old
// fixed-epsilon rounding could over-round float noise into an unsound prune).
func TestBoundsSoundAtHugeObjective(t *testing.T) {
	costs := []int64{999_999_999_937, 1_000_000_000_039, 1_000_000_000_181, 999_999_999_989}
	p := pb.NewProblem(4)
	for v, c := range costs {
		p.SetCost(pb.Var(v), c)
	}
	add := func(terms []pb.Term, d int64) {
		if err := p.AddConstraint(terms, pb.GE, d); err != nil {
			t.Fatal(err)
		}
	}
	add([]pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.PosLit(1)}}, 1)
	add([]pb.Term{{Coef: 1, Lit: pb.PosLit(1)}, {Coef: 1, Lit: pb.PosLit(2)}}, 1)
	add([]pb.Term{{Coef: 2, Lit: pb.PosLit(2)}, {Coef: 3, Lit: pb.PosLit(3)}}, 3)

	e := engine.New(p)
	red := Extract(e)
	opt, feasible := bruteReduced(red, p.Cost)
	if !feasible {
		t.Fatal("instance should be feasible")
	}
	for _, est := range estimators() {
		res := est.Estimate(e, red, p.Cost, opt, Budget{})
		if res.Failed {
			t.Fatalf("%s: failed on huge-objective instance", est.Name())
		}
		if res.Bound > opt {
			t.Fatalf("%s: bound %d exceeds true optimum %d (unsound over-round at 1e12 scale)",
				est.Name(), res.Bound, opt)
		}
	}
}
