package engine

import (
	"math/rand"
	"testing"

	"repro/internal/pb"
)

func mkProblem(t *testing.T, n int, build func(p *pb.Problem)) *pb.Problem {
	t.Helper()
	p := pb.NewProblem(n)
	build(p)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEnqueueAndPropagateClause(t *testing.T) {
	// x0 ∨ x1; assert ¬x0 ⇒ x1 propagated.
	p := mkProblem(t, 2, func(p *pb.Problem) {
		_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
	})
	e := New(p)
	e.Decide(pb.NegLit(0))
	if confl := e.Propagate(); confl != -1 {
		t.Fatalf("unexpected conflict %d", confl)
	}
	if e.Value(1) != True {
		t.Fatalf("x1 should be propagated true, got %v", e.Value(1))
	}
	if e.Level(1) != 1 {
		t.Fatalf("x1 level=%d want 1", e.Level(1))
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPropagatePBConstraint(t *testing.T) {
	// 3x0 + 2x1 + 1x2 >= 4: assigning ¬x0 forces x1 and x2
	// (slack without x0 is 3−4 <0? watchSum=3 < 4 ⇒ conflict!).
	// Correct example: 3x0 + 2x1 + 2x2 >= 4 with ¬x0: watchSum=4, slack=0,
	// both x1,x2 have coef 2 > 0 ⇒ both forced true.
	p := mkProblem(t, 3, func(p *pb.Problem) {
		if err := p.AddConstraint([]pb.Term{
			{Coef: 3, Lit: pb.PosLit(0)},
			{Coef: 2, Lit: pb.PosLit(1)},
			{Coef: 2, Lit: pb.PosLit(2)},
		}, pb.GE, 4); err != nil {
			t.Fatal(err)
		}
	})
	e := New(p)
	e.Decide(pb.NegLit(0))
	if confl := e.Propagate(); confl != -1 {
		t.Fatalf("unexpected conflict")
	}
	if e.Value(1) != True || e.Value(2) != True {
		t.Fatalf("x1=%v x2=%v want both true", e.Value(1), e.Value(2))
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPropagateConflict(t *testing.T) {
	// x0 + x1 >= 2 (both forced); decide ¬x0 ⇒ conflict.
	p := mkProblem(t, 2, func(p *pb.Problem) {
		if err := p.AddAtLeast([]pb.Lit{pb.PosLit(0), pb.PosLit(1)}, 2); err != nil {
			t.Fatal(err)
		}
	})
	e := New(p)
	e.Decide(pb.NegLit(0))
	if confl := e.Propagate(); confl == -1 {
		t.Fatal("expected conflict")
	}
}

func TestRootPropagation(t *testing.T) {
	// Unit clause at root: x0 forced without decisions.
	p := mkProblem(t, 2, func(p *pb.Problem) {
		_ = p.AddClause(pb.PosLit(0))
		_ = p.AddClause(pb.NegLit(0), pb.PosLit(1))
	})
	e := New(p)
	// Units are discovered lazily: kick propagation by re-adding watch scan.
	// The engine does not auto-propagate degree==coef constraints on AddCons;
	// seed by enqueueing nothing and calling PropagateUnits.
	if n := e.SeedUnits(); n < 0 {
		t.Fatal("seed units found conflict")
	}
	if confl := e.Propagate(); confl != -1 {
		t.Fatal("unexpected conflict")
	}
	if e.Value(0) != True || e.Value(1) != True {
		t.Fatalf("root propagation failed: x0=%v x1=%v", e.Value(0), e.Value(1))
	}
}

func TestBacktrackRestoresState(t *testing.T) {
	p := mkProblem(t, 4, func(p *pb.Problem) {
		_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
		_ = p.AddAtLeast([]pb.Lit{pb.PosLit(1), pb.PosLit(2), pb.PosLit(3)}, 2)
	})
	e := New(p)
	e.Decide(pb.NegLit(0))
	_ = e.Propagate()
	e.Decide(pb.NegLit(2))
	_ = e.Propagate()
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	e.BacktrackTo(0)
	if e.TrailSize() != 0 || e.DecisionLevel() != 0 {
		t.Fatalf("trail=%d level=%d", e.TrailSize(), e.DecisionLevel())
	}
	for v := pb.Var(0); v < 4; v++ {
		if e.Value(v) != Unassigned {
			t.Fatalf("x%d still assigned", v)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNumUnsatisfiedTracking(t *testing.T) {
	p := mkProblem(t, 2, func(p *pb.Problem) {
		_ = p.AddClause(pb.PosLit(0))
		_ = p.AddClause(pb.PosLit(1))
	})
	e := New(p)
	if e.NumUnsatisfied() != 2 {
		t.Fatalf("unsat=%d want 2", e.NumUnsatisfied())
	}
	e.Decide(pb.PosLit(0))
	_ = e.Propagate()
	if e.NumUnsatisfied() != 1 {
		t.Fatalf("unsat=%d want 1", e.NumUnsatisfied())
	}
	e.BacktrackTo(0)
	if e.NumUnsatisfied() != 2 {
		t.Fatalf("unsat=%d want 2 after backtrack", e.NumUnsatisfied())
	}
}

func TestAnalyzeProducesAssertingClause(t *testing.T) {
	// Classic diamond: deciding ¬x0 then ¬x1 triggers a conflict whose 1UIP
	// clause allows a non-chronological jump.
	p := mkProblem(t, 5, func(p *pb.Problem) {
		_ = p.AddClause(pb.PosLit(0), pb.PosLit(1), pb.PosLit(2)) // x0 ∨ x1 ∨ x2
		_ = p.AddClause(pb.PosLit(0), pb.PosLit(1), pb.PosLit(3)) // x0 ∨ x1 ∨ x3
		_ = p.AddClause(pb.NegLit(2), pb.NegLit(3))               // ¬x2 ∨ ¬x3
	})
	e := New(p)
	e.Decide(pb.NegLit(0))
	if c := e.Propagate(); c != -1 {
		t.Fatal("premature conflict")
	}
	e.Decide(pb.NegLit(1))
	confl := e.Propagate()
	if confl == -1 {
		t.Fatal("expected conflict")
	}
	res := e.AnalyzeConstraint(confl)
	if res.Unsat {
		t.Fatal("not unsat")
	}
	if len(res.Learnt) == 0 {
		t.Fatal("empty learnt clause")
	}
	idx := e.LearnAndBackjump(res)
	if idx < 0 {
		t.Fatal("learn failed")
	}
	// After backjump the asserting literal must be true.
	if e.LitValue(res.Learnt[0]) != True {
		t.Fatalf("asserting literal not true")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeAtLevelZeroIsUnsat(t *testing.T) {
	p := mkProblem(t, 1, func(p *pb.Problem) {
		_ = p.AddClause(pb.PosLit(0))
		_ = p.AddClause(pb.NegLit(0))
	})
	e := New(p)
	if n := e.SeedUnits(); n < 0 {
		return // conflict at seed — fine
	}
	confl := e.Propagate()
	if confl == -1 {
		t.Fatal("expected conflict at root")
	}
	res := e.AnalyzeConstraint(confl)
	if !res.Unsat {
		t.Fatal("expected Unsat")
	}
}

func TestAnalyzeClauseBoundConflictStyle(t *testing.T) {
	// Simulate a bound conflict: decide x0@1, x1@2, x2@3; ω_bc = {¬x0, ¬x2}
	// (x1 not responsible). Backtracking should jump over level 2.
	p := mkProblem(t, 3, func(p *pb.Problem) {
		// No constraints: pure decisions.
	})
	e := New(p)
	e.Decide(pb.PosLit(0))
	_ = e.Propagate()
	e.Decide(pb.PosLit(1))
	_ = e.Propagate()
	e.Decide(pb.PosLit(2))
	_ = e.Propagate()

	seed := []pb.Lit{pb.NegLit(0), pb.NegLit(2)}
	res := e.AnalyzeClause(seed)
	if res.Unsat {
		t.Fatal("unexpected unsat")
	}
	idx := e.LearnAndBackjump(res)
	if idx < 0 {
		t.Fatal("learn failed")
	}
	// Non-chronological: we must be at level 1 (x1's level skipped), with
	// ¬x2 asserted.
	if e.DecisionLevel() != 1 {
		t.Fatalf("level=%d want 1", e.DecisionLevel())
	}
	if e.Value(2) != False {
		t.Fatalf("x2=%v want false", e.Value(2))
	}
	if e.Value(1) != Unassigned {
		t.Fatalf("x1 should have been unassigned by the jump")
	}
}

func TestVSIDSPickHighestActivity(t *testing.T) {
	p := mkProblem(t, 3, func(p *pb.Problem) {})
	e := New(p)
	e.BumpVar(1)
	e.BumpVar(1)
	e.BumpVar(2)
	if v := e.PickBranchVar(); v != 1 {
		t.Fatalf("picked %d want 1", v)
	}
}

func TestPhaseSaving(t *testing.T) {
	p := mkProblem(t, 2, func(p *pb.Problem) {})
	e := New(p)
	if e.PreferredPhase(0) != False {
		t.Fatal("default phase should be False")
	}
	e.Decide(pb.PosLit(0))
	e.BacktrackTo(0)
	if e.PreferredPhase(0) != True {
		t.Fatal("phase not saved")
	}
}

// miniSolve is a complete CDCL SAT loop over the engine — used to validate
// engine behaviour end-to-end against brute force.
func miniSolve(e *Engine, maxConflicts int) (sat bool, ok bool) {
	if e.SeedUnits() < 0 {
		return false, true
	}
	conflicts := 0
	for {
		confl := e.Propagate()
		if confl >= 0 {
			conflicts++
			if conflicts > maxConflicts {
				return false, false
			}
			res := e.AnalyzeConstraint(confl)
			if res.Unsat {
				return false, true
			}
			if e.LearnAndBackjump(res) < 0 {
				return false, true
			}
			continue
		}
		if e.NumUnsatisfied() == 0 {
			return true, true
		}
		v := e.PickBranchVar()
		if v < 0 {
			// Fully assigned but some constraint unsatisfied: conflict must
			// have been caught earlier; treat as inconsistency.
			panic("fully assigned with unsatisfied constraints and no conflict")
		}
		e.Decide(pb.MkLit(v, e.PreferredPhase(v) == False))
	}
}

func TestMiniSolveRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 400; iter++ {
		n := 2 + rng.Intn(6)
		p := pb.NewProblem(n)
		m := 1 + rng.Intn(10)
		for i := 0; i < m; i++ {
			nt := 1 + rng.Intn(4)
			terms := make([]pb.Term, nt)
			for k := range terms {
				terms[k] = pb.Term{
					Coef: int64(1 + rng.Intn(4)),
					Lit:  pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0),
				}
			}
			_ = p.AddConstraint(terms, pb.GE, int64(1+rng.Intn(6)))
		}
		want := pb.BruteForce(p)
		e := New(p)
		sat, done := miniSolve(e, 10000)
		if !done {
			t.Fatalf("iter %d: conflict budget exhausted", iter)
		}
		if sat != want.Feasible {
			t.Fatalf("iter %d: engine sat=%v brute=%v", iter, sat, want.Feasible)
		}
		if sat {
			vals := e.Values()
			if !p.Feasible(vals) {
				t.Fatalf("iter %d: engine returned infeasible assignment", iter)
			}
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

func TestMiniSolveHardCardinality(t *testing.T) {
	// Pigeonhole-style: 4 pigeons, 3 holes — UNSAT, requires real conflict
	// analysis to terminate quickly.
	const P, H = 4, 3
	p := pb.NewProblem(P * H)
	v := func(pi, h int) pb.Var { return pb.Var(pi*H + h) }
	for pi := 0; pi < P; pi++ {
		lits := make([]pb.Lit, H)
		for h := 0; h < H; h++ {
			lits[h] = pb.PosLit(v(pi, h))
		}
		if err := p.AddAtLeast(lits, 1); err != nil {
			t.Fatal(err)
		}
	}
	for h := 0; h < H; h++ {
		lits := make([]pb.Lit, P)
		for pi := 0; pi < P; pi++ {
			lits[pi] = pb.PosLit(v(pi, h))
		}
		if err := p.AddAtMost(lits, 1); err != nil {
			t.Fatal(err)
		}
	}
	e := New(p)
	sat, done := miniSolve(e, 100000)
	if !done {
		t.Fatal("budget exhausted")
	}
	if sat {
		t.Fatal("pigeonhole should be UNSAT")
	}
}

func TestUnsatisfiedConsIteration(t *testing.T) {
	p := mkProblem(t, 3, func(p *pb.Problem) {
		_ = p.AddAtLeast([]pb.Lit{pb.PosLit(0), pb.PosLit(1), pb.PosLit(2)}, 2)
	})
	e := New(p)
	e.Decide(pb.PosLit(0))
	_ = e.Propagate()
	var got []int64
	e.UnsatisfiedCons(func(idx int, c Cons, residual int64) {
		got = append(got, residual)
	})
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("residuals=%v want [1]", got)
	}
	e.Decide(pb.PosLit(1))
	_ = e.Propagate()
	count := 0
	e.UnsatisfiedCons(func(int, Cons, int64) { count++ })
	if count != 0 {
		t.Fatalf("count=%d want 0", count)
	}
}

func TestEnqueueFalseLiteral(t *testing.T) {
	p := mkProblem(t, 1, func(p *pb.Problem) {})
	e := New(p)
	e.Decide(pb.PosLit(0))
	if e.Enqueue(pb.NegLit(0), NoReason) {
		t.Fatal("enqueue of false literal should fail")
	}
	if !e.Enqueue(pb.PosLit(0), NoReason) {
		t.Fatal("enqueue of true literal should succeed")
	}
}

func TestAddConsDuringSearch(t *testing.T) {
	p := mkProblem(t, 3, func(p *pb.Problem) {})
	e := New(p)
	e.Decide(pb.PosLit(0))
	_ = e.Propagate()
	// Add clause ¬x0 ∨ x1 mid-search: watch counters must reflect the
	// current assignment (x0 true ⇒ ¬x0 false).
	idx := e.AddCons([]pb.Term{{Coef: 1, Lit: pb.NegLit(0)}, {Coef: 1, Lit: pb.PosLit(1)}}, 1)
	c := e.Cons(idx)
	if c.Slack() != 0 {
		t.Fatalf("slack=%d want 0", c.Slack())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	p := mkProblem(t, 2, func(p *pb.Problem) {
		_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
	})
	e := New(p)
	e.Decide(pb.NegLit(0))
	_ = e.Propagate()
	if e.Stats.Decisions != 1 || e.Stats.Propagations == 0 {
		t.Fatalf("stats=%+v", e.Stats)
	}
}
