package core

import (
	"math/rand"
	"testing"

	"repro/internal/pb"
)

// allConfigs enumerates the solver configurations exercised by the
// cross-validation tests: the four bsolo lower-bound variants (with and
// without the §4/§5 techniques) plus the linear-search strategy.
func allConfigs() map[string]Options {
	return map[string]Options{
		"plain":           {LowerBound: LBNone},
		"mis":             {LowerBound: LBMIS},
		"lgr":             {LowerBound: LBLGR},
		"lpr":             {LowerBound: LBLPR},
		"lpr-nobranch":    {LowerBound: LBLPR, Tuning: Tuning{NoLPBranching: true}},
		"lpr-nocuts":      {LowerBound: LBLPR, Tuning: Tuning{NoKnapsackCuts: true}},
		"lpr-chrono":      {LowerBound: LBLPR, Tuning: Tuning{ChronologicalBounds: true}},
		"mis-chrono":      {LowerBound: LBMIS, Tuning: Tuning{ChronologicalBounds: true}},
		"lgr-alpha":       {LowerBound: LBLGR, Tuning: Tuning{LGRIterations: 20}},
		"lpr-cardinf":     {LowerBound: LBLPR, CardinalityInference: true},
		"lgr-cardinf":     {LowerBound: LBLGR, CardinalityInference: true},
		"linear":          {Strategy: StrategyLinearSearch},
		"linear-mis":      {Strategy: StrategyLinearSearch, LowerBound: LBMIS},
		"plain-norestart": {LowerBound: LBNone, RestartBase: -1},
		"pb-learning":     {LowerBound: LBNone, Tuning: Tuning{PBLearning: true}},
		"linear-pblearn":  {Strategy: StrategyLinearSearch, Tuning: Tuning{PBLearning: true}},
		"lpr-pblearn":     {LowerBound: LBLPR, Tuning: Tuning{PBLearning: true}},
		"lgr-coldstart":   {LowerBound: LBLGR, Tuning: Tuning{LGRColdStart: true}},
	}
}

func randomPBO(rng *rand.Rand, n, m int) *pb.Problem {
	p := pb.NewProblem(n)
	for v := 0; v < n; v++ {
		p.SetCost(pb.Var(v), int64(rng.Intn(8)))
	}
	for i := 0; i < m; i++ {
		nt := 1 + rng.Intn(4)
		terms := make([]pb.Term, nt)
		for k := range terms {
			terms[k] = pb.Term{
				Coef: int64(1 + rng.Intn(4)),
				Lit:  pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(3) == 0),
			}
		}
		cmp := pb.GE
		if rng.Intn(4) == 0 {
			cmp = pb.LE
		}
		_ = p.AddConstraint(terms, cmp, int64(rng.Intn(6)))
	}
	return p
}

// TestAllConfigsAgreeWithBruteForce is the central correctness test: every
// configuration must find the exact optimum (or prove unsatisfiability) of
// random small instances.
func TestAllConfigsAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	configs := allConfigs()
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(7)
		p := randomPBO(rng, n, 1+rng.Intn(8))
		want := pb.BruteForce(p)
		for name, opt := range configs {
			opt.MaxConflicts = 200000
			res := Solve(p, opt)
			if want.Feasible {
				if res.Status != StatusOptimal {
					t.Fatalf("iter %d %s: status=%v want optimal (brute=%+v)", iter, name, res.Status, want)
				}
				if res.Best != want.Optimum {
					t.Fatalf("iter %d %s: best=%d want %d\nproblem: %v", iter, name, res.Best, want.Optimum, p.Constraints)
				}
				if !p.Feasible(res.Values) {
					t.Fatalf("iter %d %s: returned infeasible assignment", iter, name)
				}
				if p.ObjectiveValue(res.Values) != res.Best {
					t.Fatalf("iter %d %s: assignment cost %d != reported %d",
						iter, name, p.ObjectiveValue(res.Values), res.Best)
				}
			} else {
				if res.Status != StatusUnsat {
					t.Fatalf("iter %d %s: status=%v want unsat", iter, name, res.Status)
				}
			}
		}
	}
}

// Pure satisfaction instances (no cost function): all bsolo variants must
// behave identically — lower bounding is never invoked (paper footnote a).
func TestPureSatisfactionSkipsLowerBounding(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 50; iter++ {
		n := 3 + rng.Intn(6)
		p := pb.NewProblem(n) // all costs zero
		for i := 0; i < 2+rng.Intn(6); i++ {
			nt := 1 + rng.Intn(4)
			terms := make([]pb.Term, nt)
			for k := range terms {
				terms[k] = pb.Term{Coef: int64(1 + rng.Intn(3)), Lit: pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0)}
			}
			_ = p.AddConstraint(terms, pb.GE, int64(1+rng.Intn(4)))
		}
		want := pb.BruteForce(p)
		for _, lb := range []Method{LBNone, LBMIS, LBLGR, LBLPR} {
			res := Solve(p, Options{LowerBound: lb, MaxConflicts: 100000})
			if want.Feasible {
				if res.Status != StatusSatisfiable {
					t.Fatalf("iter %d lb=%v: status=%v want satisfiable", iter, lb, res.Status)
				}
				if !p.Feasible(res.Values) {
					t.Fatalf("iter %d lb=%v: infeasible assignment", iter, lb)
				}
			} else if res.Status != StatusUnsat {
				t.Fatalf("iter %d lb=%v: status=%v want unsat", iter, lb, res.Status)
			}
			if res.Stats.BoundCalls != 0 {
				t.Fatalf("iter %d lb=%v: lower bounding invoked on a pure satisfaction instance", iter, lb)
			}
		}
	}
}

func TestSimpleOptimum(t *testing.T) {
	// min 3x0 + x1 + 2x2 s.t. x0+x1 >= 1, x1+x2 >= 1 ⇒ x1=1, optimum 1.
	p := pb.NewProblem(3)
	p.SetCost(0, 3)
	p.SetCost(1, 1)
	p.SetCost(2, 2)
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
	_ = p.AddClause(pb.PosLit(1), pb.PosLit(2))
	for _, lb := range []Method{LBNone, LBMIS, LBLGR, LBLPR} {
		res := Solve(p, Options{LowerBound: lb})
		if res.Status != StatusOptimal || res.Best != 1 {
			t.Fatalf("lb=%v: %+v", lb, res)
		}
		if !res.Values[1] || res.Values[0] || res.Values[2] {
			t.Fatalf("lb=%v: values=%v", lb, res.Values)
		}
	}
}

func TestUnsatInstance(t *testing.T) {
	p := pb.NewProblem(2)
	_ = p.AddClause(pb.PosLit(0))
	_ = p.AddClause(pb.NegLit(0))
	res := Solve(p, Options{})
	if res.Status != StatusUnsat {
		t.Fatalf("status=%v", res.Status)
	}
}

func TestCostOffsetPropagates(t *testing.T) {
	p := pb.NewProblem(1)
	p.SetCost(0, 5)
	p.CostOffset = 100
	_ = p.AddClause(pb.PosLit(0))
	res := Solve(p, Options{LowerBound: LBLPR})
	if res.Status != StatusOptimal || res.Best != 105 {
		t.Fatalf("%+v", res)
	}
}

func TestConflictBudgetReturnsLimit(t *testing.T) {
	// Pigeonhole 6→5 with costs: hard enough that 3 conflicts won't finish.
	const P, H = 6, 5
	p := pb.NewProblem(P * H)
	for pi := 0; pi < P; pi++ {
		lits := make([]pb.Lit, H)
		for h := 0; h < H; h++ {
			lits[h] = pb.PosLit(pb.Var(pi*H + h))
			p.SetCost(pb.Var(pi*H+h), 1)
		}
		_ = p.AddAtLeast(lits, 1)
	}
	for h := 0; h < H; h++ {
		lits := make([]pb.Lit, P)
		for pi := 0; pi < P; pi++ {
			lits[pi] = pb.PosLit(pb.Var(pi*H + h))
		}
		_ = p.AddAtMost(lits, 1)
	}
	res := Solve(p, Options{MaxConflicts: 3})
	if res.Status != StatusLimit {
		t.Fatalf("status=%v want limit", res.Status)
	}
}

func TestDecisionBudget(t *testing.T) {
	p := pb.NewProblem(20)
	for v := 0; v < 20; v++ {
		p.SetCost(pb.Var(v), 1)
	}
	for v := 0; v < 19; v++ {
		_ = p.AddClause(pb.PosLit(pb.Var(v)), pb.PosLit(pb.Var(v+1)))
	}
	res := Solve(p, Options{MaxDecisions: 2, LowerBound: LBNone})
	if res.Status != StatusLimit && res.Status != StatusOptimal {
		t.Fatalf("status=%v", res.Status)
	}
}

// Non-chronological backtracking on bound conflicts must actually engage on
// a structured instance: two independent blocks where the second block's
// cost explains the conflict, letting the search skip the first block's
// levels.
func TestBoundConflictNonChronological(t *testing.T) {
	// Block A: 6 free variables with zero cost (padding decisions).
	// Block B: clause (y0 ∨ y1) with costs 5, 6; optimum picks y0.
	p := pb.NewProblem(8)
	p.SetCost(6, 5)
	p.SetCost(7, 6)
	_ = p.AddClause(pb.PosLit(6), pb.PosLit(7))
	res := Solve(p, Options{LowerBound: LBLPR})
	if res.Status != StatusOptimal || res.Best != 5 {
		t.Fatalf("%+v", res)
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomPBO(rng, 8, 10)
	res := Solve(p, Options{LowerBound: LBLPR, MaxConflicts: 100000})
	if res.Status == StatusOptimal && res.Stats.Decisions == 0 && res.Stats.Solutions == 0 {
		t.Fatalf("stats empty: %+v", res.Stats)
	}
}

func TestKnapsackCutCounted(t *testing.T) {
	// An instance with several successively better solutions exercises
	// eq. 10 cut generation.
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 20; iter++ {
		p := randomPBO(rng, 8, 6)
		if !pb.BruteForce(p).Feasible {
			continue
		}
		res := Solve(p, Options{LowerBound: LBMIS, MaxConflicts: 100000})
		if res.Status != StatusOptimal {
			t.Fatalf("iter %d: %v", iter, res.Status)
		}
		if res.Stats.Solutions > 1 && res.Stats.KnapsackCuts == 0 {
			t.Fatalf("iter %d: %d solutions but no knapsack cuts", iter, res.Stats.Solutions)
		}
	}
}

// TestRootLeafBuildsNoIncumbentRows: when root propagation alone satisfies
// every constraint, the leaf is the optimum and the bound conflict at level 0
// ends the search, so no eq. 10 or eq. 13 row is built for it.
func TestRootLeafBuildsNoIncumbentRows(t *testing.T) {
	p := pb.NewProblem(3)
	p.SetCost(0, 3)
	p.SetCost(1, 1)
	p.SetCost(2, 2)
	_ = p.AddClause(pb.PosLit(0))
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(1), pb.PosLit(2))
	for _, lb := range []Method{LBNone, LBMIS} {
		res := Solve(p, Options{LowerBound: lb, CardinalityInference: true})
		if res.Status != StatusOptimal || res.Best != 3 || res.Stats.Decisions != 0 {
			t.Fatalf("%v: status %v best %d decisions %d, want optimal 3 at the root",
				lb, res.Status, res.Best, res.Stats.Decisions)
		}
		if res.Stats.KnapsackCuts != 0 || res.Stats.CardCuts != 0 {
			t.Fatalf("%v: %d eq. 10 and %d eq. 13 rows for a root leaf",
				lb, res.Stats.KnapsackCuts, res.Stats.CardCuts)
		}
	}
}

func TestCardinalityInferenceGeneratesCuts(t *testing.T) {
	// Σ x0..x3 ≥ 2 with positive costs ⇒ V > 0 ⇒ eq. 13 cuts on incumbents.
	p := pb.NewProblem(6)
	for v := 0; v < 6; v++ {
		p.SetCost(pb.Var(v), int64(v+1))
	}
	_ = p.AddAtLeast([]pb.Lit{pb.PosLit(0), pb.PosLit(1), pb.PosLit(2), pb.PosLit(3)}, 2)
	_ = p.AddClause(pb.PosLit(4), pb.PosLit(5))
	res := Solve(p, Options{LowerBound: LBMIS, CardinalityInference: true})
	if res.Status != StatusOptimal {
		t.Fatalf("status=%v", res.Status)
	}
	// optimum: x0+x1 (1+2) + x4 (5) = 8.
	if res.Best != 8 {
		t.Fatalf("best=%d want 8", res.Best)
	}
	if res.Stats.CardCuts == 0 {
		t.Fatal("no cardinality cuts generated")
	}
}

func TestMethodAndStatusStrings(t *testing.T) {
	if LBNone.String() != "plain" || LBMIS.String() != "mis" ||
		LBLGR.String() != "lgr" || LBLPR.String() != "lpr" {
		t.Fatal("method strings")
	}
	if StatusOptimal.String() != "optimal" || StatusSatisfiable.String() != "satisfiable" ||
		StatusUnsat.String() != "unsatisfiable" || StatusLimit.String() != "limit" {
		t.Fatal("status strings")
	}
}

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i)); got != w {
			t.Fatalf("luby(%d)=%d want %d", i, got, w)
		}
	}
}

// Larger structured instance: weighted set cover where LPR should prune
// dramatically better than plain; both must agree on the optimum.
func TestWeightedSetCoverAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const elems = 12
	const sets = 14
	p := pb.NewProblem(sets)
	covers := make([][]pb.Lit, elems)
	for s := 0; s < sets; s++ {
		p.SetCost(pb.Var(s), int64(1+rng.Intn(9)))
		for e := 0; e < elems; e++ {
			if rng.Intn(3) == 0 {
				covers[e] = append(covers[e], pb.PosLit(pb.Var(s)))
			}
		}
	}
	for e := 0; e < elems; e++ {
		if len(covers[e]) == 0 {
			covers[e] = []pb.Lit{pb.PosLit(pb.Var(rng.Intn(sets)))}
		}
		_ = p.AddClause(covers[e]...)
	}
	resPlain := Solve(p, Options{LowerBound: LBNone, MaxConflicts: 500000})
	resLPR := Solve(p, Options{LowerBound: LBLPR, MaxConflicts: 500000})
	if resPlain.Status != StatusOptimal || resLPR.Status != StatusOptimal {
		t.Fatalf("status plain=%v lpr=%v", resPlain.Status, resLPR.Status)
	}
	if resPlain.Best != resLPR.Best {
		t.Fatalf("optimum mismatch: plain=%d lpr=%d", resPlain.Best, resLPR.Best)
	}
	if resLPR.Stats.BoundPrunes == 0 {
		t.Fatal("LPR never pruned on a set-cover instance")
	}
}

// The α-filtered LGR explanation must stay sound under stress: dense random
// instances with large costs, many decisions deep.
func TestLGRAlphaFilterSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for iter := 0; iter < 150; iter++ {
		n := 4 + rng.Intn(6)
		p := pb.NewProblem(n)
		for v := 0; v < n; v++ {
			p.SetCost(pb.Var(v), int64(rng.Intn(50)))
		}
		for i := 0; i < 2+rng.Intn(8); i++ {
			nt := 2 + rng.Intn(3)
			terms := make([]pb.Term, nt)
			for k := range terms {
				terms[k] = pb.Term{Coef: int64(1 + rng.Intn(5)), Lit: pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(3) == 0)}
			}
			_ = p.AddConstraint(terms, pb.GE, int64(1+rng.Intn(7)))
		}
		want := pb.BruteForce(p)
		res := Solve(p, Options{LowerBound: LBLGR, MaxConflicts: 200000, Tuning: Tuning{LGRIterations: 30}})
		if want.Feasible {
			if res.Status != StatusOptimal || res.Best != want.Optimum {
				t.Fatalf("iter %d: got %v/%d want optimal/%d", iter, res.Status, res.Best, want.Optimum)
			}
		} else if res.Status != StatusUnsat {
			t.Fatalf("iter %d: got %v want unsat", iter, res.Status)
		}
	}
}
