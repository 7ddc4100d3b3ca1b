package engine

import (
	"math/rand"
	"slices"
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
		e.AddCons(terms, 1)
	}
	prot := e.AddProtected([]pb.Term{{Coef: 1, Lit: pb.PosLit(0)}}, 1)
	removed := e.ReduceDB()
	if removed != 10 {
		t.Fatalf("removed=%d want 10 (half of 20 unprotected)", removed)
	}
	if n := e.NumCons(); n != 11 {
		t.Fatalf("NumCons=%d after ReduceDB, want the 10 survivors + 1 protected", n)
	}
	// The protected row was added last, so it slides down behind the ten
	// survivors.
	if got := e.Moved(prot); got != 10 || !slices.Equal(e.Cons(got).Lits, []pb.Lit{pb.PosLit(0)}) {
		t.Fatalf("protected constraint %d moved to %d, which is not it", prot, got)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReduceDBRefusesAboveRoot(t *testing.T) {
	p := pb.NewProblem(2)
	e := New(p)
	e.AddCons([]pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.PosLit(1)}}, 1)
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
	idx := e.AddCons([]pb.Term{{Coef: 1, Lit: pb.PosLit(2)}}, 1)
	if e.SeedUnits() < 0 || e.Propagate() >= 0 {
		t.Fatal("setup failed")
	}
	if e.Value(2) != True {
		t.Fatal("x2 not forced")
	}
	// Pad with removable learned clauses.
	for i := 0; i < 10; i++ {
		e.AddCons([]pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.NegLit(1)}}, 1)
	}
	if e.ReduceDB() == 0 {
		t.Fatal("nothing deleted")
	}
	if got := e.Moved(idx); got < 0 || !slices.Equal(e.Cons(got).Lits, []pb.Lit{pb.PosLit(2)}) {
		t.Fatalf("root reason %d was garbage-collected (moved to %d)", idx, got)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReduceDBKeepsOnlyLiveRows drives random sequences of learning,
// imports, protected rows and ReduceDB calls. After each ReduceDB the store
// holds exactly the problem rows, the protected rows and the learned rows
// that survived, every engine index is valid (CheckInvariants), and Moved
// finds each protected row at its new index.
func TestReduceDBKeepsOnlyLiveRows(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	deletedRows, movedProt := 0, 0
	for iter := 0; iter < 60; iter++ {
		n := 8 + rng.Intn(6)
		p := pb.NewProblem(n)
		for i := 0; i < 3*n; i++ {
			_ = p.AddClause(pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0),
				pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0),
				pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0))
		}
		e := New(p)
		problem := e.NumCons()
		if e.SeedUnits() < 0 || e.Propagate() >= 0 {
			continue
		}
		// prot maps each protected row's index to its literals; learned
		// counts the unprotected learned rows in the store.
		prot := map[int][]pb.Lit{}
		learned := 0
		randLits := func(k int) []pb.Lit {
			var ls []pb.Lit
			for _, v := range rng.Perm(n)[:k] {
				ls = append(ls, pb.MkLit(pb.Var(v), rng.Intn(2) == 0))
			}
			return ls
		}
		for step := 0; step < 400; step++ {
			if confl := e.Propagate(); confl >= 0 {
				if terms, deg := e.AnalyzeCuttingPlane(confl); terms != nil && rng.Intn(2) == 0 {
					e.ScheduleCheck(e.AddCons(terms, deg))
					learned++
				}
				res := e.AnalyzeConstraint(confl)
				if e.LearnAndBackjump(res) < 0 {
					break
				}
				learned++
				continue
			}
			switch op := rng.Intn(10); {
			case op < 6:
				v := e.PickBranchVar()
				if v < 0 {
					e.BacktrackTo(0)
					continue
				}
				e.Decide(pb.MkLit(v, e.PreferredPhase(v) == False))
			case op < 7: // a protected row over free literals
				var terms []pb.Term
				for _, l := range randLits(3) {
					terms = append(terms, pb.Term{Coef: 1, Lit: l})
				}
				ci := e.AddProtected(terms, 1)
				e.ScheduleCheck(ci)
				prot[ci] = litsOf(e, ci)
			case op < 8: // an import at the root
				e.BacktrackTo(0)
				switch e.ImportClause(randLits(1 + rng.Intn(3))) {
				case ImportAdded, ImportUnit:
					learned++
				}
			default: // restart and reduce, with the last row's check pending
				e.BacktrackTo(0)
				e.ScheduleCheck(e.NumCons() - 1)
				deleted := e.ReduceDB()
				learned -= deleted
				deletedRows += deleted
				moved := map[int][]pb.Lit{}
				for old, ls := range prot {
					ci := e.Moved(old)
					if ci < 0 || !slices.Equal(litsOf(e, ci), ls) {
						t.Fatalf("iter %d: protected row %d lost (moved to %d)", iter, old, ci)
					}
					moved[ci] = ls
					if ci != old {
						movedProt++
					}
				}
				prot = moved
				if got, want := e.NumCons(), problem+len(prot)+learned; got != want {
					t.Fatalf("iter %d: NumCons=%d, want %d problem + %d protected + %d learned",
						iter, got, problem, len(prot), learned)
				}
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("iter %d step %d: %v", iter, step, err)
			}
		}
	}
	t.Logf("deleted %d learned rows; moved protected rows %d times", deletedRows, movedProt)
	if deletedRows == 0 || movedProt == 0 {
		t.Fatal("the sequences never deleted a row or never moved a protected one")
	}
}

// litsOf copies the literals of constraint ci.
func litsOf(e *Engine, ci int) []pb.Lit { return slices.Clone(e.Cons(ci).Lits) }

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
