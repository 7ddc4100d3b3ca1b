package engine

import (
	"math/rand"
	"testing"

	"repro/internal/pb"
)

func TestReduceDBRemovesHalf(t *testing.T) {
	p := pb.NewProblem(10)
	e := New(p)
	for i := 0; i < 20; i++ {
		terms := []pb.Term{
			{Coef: 1, Lit: pb.PosLit(pb.Var(i % 10))},
			{Coef: 1, Lit: pb.NegLit(pb.Var((i + 3) % 10))},
		}
		e.AddCons(terms, 1, true)
	}
	prot := e.AddProtected([]pb.Term{{Coef: 1, Lit: pb.PosLit(0)}}, 1)
	removed := e.ReduceDB()
	if removed != 10 {
		t.Fatalf("removed=%d want 10 (half of 20 unprotected)", removed)
	}
	if e.Cons(prot).Removed() {
		t.Fatal("protected constraint removed")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReduceDBRefusesAboveRoot(t *testing.T) {
	p := pb.NewProblem(2)
	e := New(p)
	e.AddCons([]pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.PosLit(1)}}, 1, true)
	e.Decide(pb.PosLit(0))
	if n := e.ReduceDB(); n != 0 {
		t.Fatalf("ReduceDB above root removed %d", n)
	}
}

func TestReduceDBKeepsRootReasons(t *testing.T) {
	p := pb.NewProblem(3)
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
	e := New(p)
	// Learned unit-ish clause that forces x2 at the root.
	idx := e.AddCons([]pb.Term{{Coef: 1, Lit: pb.PosLit(2)}}, 1, true)
	if e.SeedUnits() < 0 || e.Propagate() >= 0 {
		t.Fatal("setup failed")
	}
	if e.Value(2) != True {
		t.Fatal("x2 not forced")
	}
	// Pad with removable learned clauses.
	for i := 0; i < 10; i++ {
		e.AddCons([]pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.NegLit(1)}}, 1, true)
	}
	e.ReduceDB()
	if e.Cons(idx).Removed() {
		t.Fatal("root reason was garbage-collected")
	}
}

// Solving with aggressive DB reduction must stay exact: run a CDCL loop
// that reduces at every restart point and compare against brute force.
func TestSolveWithReduceDBStaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 100; iter++ {
		n := 6 + rng.Intn(4)
		p := pb.NewProblem(n)
		m := int(4.3 * float64(n))
		for i := 0; i < m; i++ {
			lits := make([]pb.Lit, 3)
			for k := range lits {
				lits[k] = pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0)
			}
			_ = p.AddClause(lits...)
		}
		want := pb.BruteForce(p)
		e := New(p)
		if e.SeedUnits() < 0 {
			if want.Feasible {
				t.Fatalf("iter %d: seed claims unsat on feasible instance", iter)
			}
			continue
		}
		sat := false
		done := false
		for conflicts := 0; conflicts < 50000; {
			confl := e.Propagate()
			if confl >= 0 {
				conflicts++
				res := e.AnalyzeConstraint(confl)
				if res.Unsat {
					done = true
					break
				}
				if e.LearnAndBackjump(res) < 0 {
					done = true
					break
				}
				if conflicts%64 == 0 {
					e.BacktrackTo(0)
					e.ReduceDB()
				}
				continue
			}
			if e.NumUnsatisfied() == 0 {
				sat, done = true, true
				break
			}
			v := e.PickBranchVar()
			if v < 0 {
				break
			}
			e.Decide(pb.MkLit(v, e.PreferredPhase(v) == False))
		}
		if !done {
			t.Fatalf("iter %d: budget exhausted", iter)
		}
		if sat != want.Feasible {
			t.Fatalf("iter %d: sat=%v brute=%v", iter, sat, want.Feasible)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}
