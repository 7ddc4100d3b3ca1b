package engine

import (
	"testing"

	"repro/internal/pb"
)

// addCostCut installs Σ coefs[v]·¬x_v ≥ degree (the shape of the eq. 10
// incumbent cut) with unclipped coefficients.
func addCostCut(e *Engine, coefs []int64, degree int64) int {
	var terms []pb.Term
	for v, c := range coefs {
		if c > 0 {
			terms = append(terms, pb.Term{Coef: c, Lit: pb.NegLit(pb.Var(v))})
		}
	}
	// Sort descending as the engine requires.
	for i := 1; i < len(terms); i++ {
		for j := i; j > 0 && terms[j].Coef > terms[j-1].Coef; j-- {
			terms[j], terms[j-1] = terms[j-1], terms[j]
		}
	}
	return e.AddCons(terms, degree)
}

func TestUpdateDegreePropagates(t *testing.T) {
	// Costs (5,3,2); cut Σ c·¬x ≥ 0 is inert. Tightening to degree 8 forces
	// ¬x0 (coef 5 > slack 10−8=2) once x... with nothing assigned:
	// watchSum=10, slack=2, coef 5 and 3 > 2 ⇒ ¬x0 and ¬x1 implied.
	p := pb.NewProblem(3)
	e := New(p)
	idx := addCostCut(e, []int64{5, 3, 2}, 0)
	if confl := e.Propagate(); confl != -1 {
		t.Fatal("inert cut conflicted")
	}
	e.UpdateDegree(idx, 8)
	if confl := e.Propagate(); confl != -1 {
		t.Fatal("unexpected conflict")
	}
	if e.Value(0) != False || e.Value(1) != False {
		t.Fatalf("x0=%v x1=%v want both false", e.Value(0), e.Value(1))
	}
	if e.Value(2) != Unassigned {
		t.Fatalf("x2 should remain free (coef 2 ≤ slack)")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateDegreeConflicts(t *testing.T) {
	// Assign all variables true, then tighten the cut beyond reach.
	p := pb.NewProblem(2)
	e := New(p)
	idx := addCostCut(e, []int64{4, 4}, 0)
	e.Decide(pb.PosLit(0))
	if e.Propagate() >= 0 {
		t.Fatal("conflict")
	}
	e.Decide(pb.PosLit(1))
	if e.Propagate() >= 0 {
		t.Fatal("conflict")
	}
	// watchSum = 0 (both ¬x false); degree 1 ⇒ conflicting.
	e.UpdateDegree(idx, 1)
	confl := e.Propagate()
	if confl != idx {
		t.Fatalf("confl=%d want %d", confl, idx)
	}
	// Analysis must produce a clause and a backjump.
	res := e.AnalyzeConstraint(confl)
	if res.Unsat {
		t.Fatal("not unsat: level > 0")
	}
	if e.LearnAndBackjump(res) < 0 {
		t.Fatal("learn failed")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateDegreeSurvivesBacktrack(t *testing.T) {
	// Tighten while deep, conflict, backtrack: the pending check must fire
	// again at the shallower level and stay consistent.
	p := pb.NewProblem(3)
	e := New(p)
	idx := addCostCut(e, []int64{3, 3, 3}, 0)
	e.Decide(pb.PosLit(0))
	_ = e.Propagate()
	e.Decide(pb.PosLit(1))
	_ = e.Propagate()
	e.UpdateDegree(idx, 7) // watchSum = 3 (only ¬x2 non-false) < 7 ⇒ conflict
	confl := e.Propagate()
	if confl != idx {
		t.Fatalf("confl=%d want %d", confl, idx)
	}
	e.BacktrackTo(0)
	// At the root watchSum = 9 ≥ 7, slack = 2 < maxCoef 3 ⇒ all ¬x implied.
	if c := e.Propagate(); c != -1 {
		t.Fatalf("unexpected conflict %d", c)
	}
	for v := pb.Var(0); v < 3; v++ {
		if e.Value(v) != False {
			t.Fatalf("x%d=%v want false", v, e.Value(v))
		}
	}
}

func TestUpdateDegreeNoOpWhenSmaller(t *testing.T) {
	p := pb.NewProblem(1)
	e := New(p)
	idx := addCostCut(e, []int64{2}, 2)
	e.UpdateDegree(idx, 1) // weaker: ignored
	if e.Cons(idx).Degree != 2 {
		t.Fatalf("degree=%d want 2", e.Cons(idx).Degree)
	}
}
