package preprocess

import (
	"math/rand"
	"testing"

	"repro/internal/pb"
)

func TestFailedLiteralProbing(t *testing.T) {
	// x0 ∨ x1, x0 ∨ ¬x1 ⇒ probing ¬x0 conflicts ⇒ x0 fixed.
	p := pb.NewProblem(2)
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
	_ = p.AddClause(pb.PosLit(0), pb.NegLit(1))
	out, info, err := Apply(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.FixedLiterals == 0 {
		t.Fatal("expected a fixed literal")
	}
	// Semantics preserved.
	r1, r2 := pb.BruteForce(p), pb.BruteForce(out)
	if r1.Feasible != r2.Feasible {
		t.Fatalf("feasibility changed: %v vs %v", r1.Feasible, r2.Feasible)
	}
}

func TestProbingProvesUnsat(t *testing.T) {
	p := pb.NewProblem(2)
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
	_ = p.AddClause(pb.PosLit(0), pb.NegLit(1))
	_ = p.AddClause(pb.NegLit(0), pb.PosLit(1))
	_ = p.AddClause(pb.NegLit(0), pb.NegLit(1))
	out, info, err := Apply(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.ProvedUnsat {
		t.Fatal("expected ProvedUnsat")
	}
	if pb.BruteForce(out).Feasible {
		t.Fatal("output should be unsatisfiable")
	}
}

func TestStrengtheningAddsImplications(t *testing.T) {
	// x0 ⇒ x1 via clause (¬x0 ∨ x1) is already there; use a PB constraint
	// where implication is only visible to propagation:
	// 2x1 + 1x2 >= 2 forces x1; probing ¬x1 conflicts. Instead craft:
	// 2¬x0 + 2x1 + 1x2 >= 3: assigning x0 ⇒ need 2x1+x2 >= 3 ⇒ x1 and x2.
	p := pb.NewProblem(3)
	if err := p.AddConstraint([]pb.Term{
		{Coef: 2, Lit: pb.NegLit(0)}, {Coef: 2, Lit: pb.PosLit(1)}, {Coef: 1, Lit: pb.PosLit(2)},
	}, pb.GE, 3); err != nil {
		t.Fatal(err)
	}
	out, info, err := Apply(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Implications == 0 {
		t.Fatal("expected implications")
	}
	// Semantics preserved on all assignments.
	for mask := 0; mask < 8; mask++ {
		vals := []bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}
		if p.Feasible(vals) != out.Feasible(vals) {
			t.Fatalf("mask %d: semantics changed", mask)
		}
	}
}

func TestSubsumption(t *testing.T) {
	p := pb.NewProblem(3)
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(1), pb.PosLit(2)) // subsumed
	_ = p.AddClause(pb.NegLit(2))                             // unrelated unit
	out, info, err := Apply(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.SubsumedRemoved != 1 {
		t.Fatalf("removed=%d want 1", info.SubsumedRemoved)
	}
	// Probing may add implication clauses, but the subsumed ternary clause
	// must be gone.
	for _, c := range out.Constraints {
		if len(c.Terms) == 3 {
			t.Fatalf("subsumed clause kept: %v", c)
		}
	}
}

func TestPreprocessingPreservesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for iter := 0; iter < 200; iter++ {
		n := 3 + rng.Intn(5)
		p := pb.NewProblem(n)
		for v := 0; v < n; v++ {
			p.SetCost(pb.Var(v), int64(rng.Intn(6)))
		}
		for i := 0; i < 2+rng.Intn(7); i++ {
			nt := 1 + rng.Intn(4)
			terms := make([]pb.Term, nt)
			for k := range terms {
				terms[k] = pb.Term{Coef: int64(1 + rng.Intn(3)), Lit: pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0)}
			}
			_ = p.AddConstraint(terms, pb.GE, int64(1+rng.Intn(4)))
		}
		out, _, err := Apply(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		r1, r2 := pb.BruteForce(p), pb.BruteForce(out)
		if r1.Feasible != r2.Feasible {
			t.Fatalf("iter %d: feasibility changed %v→%v", iter, r1.Feasible, r2.Feasible)
		}
		if r1.Feasible && r1.Optimum != r2.Optimum {
			t.Fatalf("iter %d: optimum changed %d→%d", iter, r1.Optimum, r2.Optimum)
		}
	}
}

func TestMaxProbeVarsCap(t *testing.T) {
	p := pb.NewProblem(10)
	for v := 0; v < 9; v++ {
		_ = p.AddClause(pb.PosLit(pb.Var(v)), pb.PosLit(pb.Var(v+1)))
	}
	_, _, err := Apply(p, Options{MaxProbeVars: 2})
	if err != nil {
		t.Fatal(err)
	}
}
