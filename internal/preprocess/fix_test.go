package preprocess

import (
	"math/rand"
	"testing"

	"repro/internal/pb"
)

func randomFixProblem(rng *rand.Rand, n int) *pb.Problem {
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
	return p
}

// TestFixVariablesPreservesOptimum is the core soundness property: solving
// the reduced problem and lifting must reproduce the original optimum, and
// the lifted optimum witness must be feasible for the ORIGINAL problem.
func TestFixVariablesPreservesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(456))
	fixedTotal := 0
	for iter := 0; iter < 300; iter++ {
		n := 3 + rng.Intn(5)
		p := randomFixProblem(rng, n)
		orig := pb.BruteForce(p)
		f, err := FixVariables(p)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		fixedTotal += f.NumFixed()
		red := pb.BruteForce(f.Problem)
		if orig.Feasible != red.Feasible {
			t.Fatalf("iter %d: feasibility changed %v→%v (fixed=%d unsat=%v)",
				iter, orig.Feasible, red.Feasible, f.NumFixed(), f.ProvedUnsat)
		}
		if !orig.Feasible {
			if !f.ProvedUnsat && f.Problem.NumVars == 0 {
				// Presolve may legitimately leave an UNSAT instance to search;
				// only a 0-var reduced problem must carry the proof.
				t.Fatalf("iter %d: empty reduced problem without ProvedUnsat", iter)
			}
			continue
		}
		if f.ProvedUnsat {
			t.Fatalf("iter %d: ProvedUnsat on feasible instance", iter)
		}
		// BruteForce optima include CostOffset, so they must agree directly.
		if red.Optimum != orig.Optimum {
			t.Fatalf("iter %d: optimum changed %d→%d (fixed=%d)",
				iter, orig.Optimum, red.Optimum, f.NumFixed())
		}
		lifted := f.Lift(red.Values)
		if len(lifted) != n {
			t.Fatalf("iter %d: lifted length %d want %d", iter, len(lifted), n)
		}
		if !p.Feasible(lifted) {
			t.Fatalf("iter %d: lifted witness infeasible for original", iter)
		}
		if got := p.ObjectiveValue(lifted); got != orig.Optimum {
			t.Fatalf("iter %d: lifted witness cost %d want %d", iter, got, orig.Optimum)
		}
	}
	if fixedTotal == 0 {
		t.Fatal("presolve never fixed a variable across 300 random instances")
	}
}

// TestFixVariablesMapping checks the NewToOld/OldToNew inverse relationship
// and FixedValue consistency with Lift.
func TestFixVariablesMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(789))
	for iter := 0; iter < 100; iter++ {
		p := randomFixProblem(rng, 4+rng.Intn(4))
		f, err := FixVariables(p)
		if err != nil {
			t.Fatal(err)
		}
		if f.ProvedUnsat {
			continue
		}
		if len(f.NewToOld) != f.Problem.NumVars {
			t.Fatalf("NewToOld len %d vs NumVars %d", len(f.NewToOld), f.Problem.NumVars)
		}
		if p.NumVars-f.NumFixed() != f.Problem.NumVars {
			t.Fatalf("fixed=%d orig=%d reduced=%d inconsistent",
				f.NumFixed(), p.NumVars, f.Problem.NumVars)
		}
		for nv, ov := range f.NewToOld {
			if f.OldToNew[ov] != int32(nv) {
				t.Fatalf("OldToNew[%d]=%d want %d", ov, f.OldToNew[ov], nv)
			}
			if _, fixed := f.FixedValue(ov); fixed {
				t.Fatalf("surviving var %d reported fixed", ov)
			}
			if f.Problem.Cost[nv] != p.Cost[ov] {
				t.Fatalf("cost mismatch for new %d / old %d", nv, ov)
			}
		}
		// Lift must agree with FixedValue on fixed vars regardless of the
		// reduced assignment.
		vals := make([]bool, f.Problem.NumVars)
		for i := range vals {
			vals[i] = rng.Intn(2) == 0
		}
		lifted := f.Lift(vals)
		for v := 0; v < p.NumVars; v++ {
			if fv, fixed := f.FixedValue(pb.Var(v)); fixed {
				if lifted[v] != fv {
					t.Fatalf("lifted[%d]=%v but FixedValue=%v", v, lifted[v], fv)
				}
			} else if lifted[v] != vals[f.OldToNew[v]] {
				t.Fatalf("lifted[%d] does not copy reduced value", v)
			}
		}
	}
}

// TestFixVariablesPersistency pins the two persistency rules on hand-built
// instances.
func TestFixVariablesPersistency(t *testing.T) {
	// v1 appears only negatively (and costs 2): must be fixed to 0.
	// v2 appears only positively with cost 0: must be fixed to 1, satisfying
	// its row, which in turn frees v0's row... here v0 stays (mixed polarity).
	p := pb.NewProblem(3)
	p.SetCost(0, 1)
	p.SetCost(1, 2)
	p.SetCost(2, 0)
	_ = p.AddConstraint([]pb.Term{
		{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.NegLit(1)},
	}, pb.GE, 1)
	_ = p.AddConstraint([]pb.Term{
		{Coef: 1, Lit: pb.NegLit(0)}, {Coef: 1, Lit: pb.PosLit(2)},
	}, pb.GE, 1)
	f, err := FixVariables(p)
	if err != nil {
		t.Fatal(err)
	}
	// No literal fails its probe here: every fix below is persistency's.
	if f.ProbeFixed != 0 || f.PersistencyFixed != 3 {
		t.Fatalf("ProbeFixed=%d PersistencyFixed=%d, want 0 and 3", f.ProbeFixed, f.PersistencyFixed)
	}
	if v, ok := f.FixedValue(1); !ok || v {
		t.Fatalf("v1: fixed=%v val=%v want fixed false", ok, v)
	}
	if v, ok := f.FixedValue(2); !ok || !v {
		t.Fatalf("v2: fixed=%v val=%v want fixed true", ok, v)
	}
	// With ¬v1 true and v2 true both rows are satisfied; v0 becomes pure
	// (appears in no active row) and is fixed to its free polarity 0.
	if v, ok := f.FixedValue(0); !ok || v {
		t.Fatalf("v0: fixed=%v val=%v want fixed false (cascade)", ok, v)
	}
	if f.Problem.NumVars != 0 {
		t.Fatalf("reduced NumVars=%d want 0", f.Problem.NumVars)
	}
	if f.Problem.CostOffset != 0 {
		t.Fatalf("CostOffset=%d want 0 (only cost-0 var fixed true)", f.Problem.CostOffset)
	}
}

// TestFixVariablesCostOffset: fixing a costly variable to true via probing
// must surface its cost in CostOffset.
func TestFixVariablesCostOffset(t *testing.T) {
	// Unit row forces v0 true; v0 costs 7.
	p := pb.NewProblem(2)
	p.SetCost(0, 7)
	p.SetCost(1, 1)
	_ = p.AddClause(pb.PosLit(0))
	_ = p.AddConstraint([]pb.Term{
		{Coef: 1, Lit: pb.PosLit(1)}, {Coef: 1, Lit: pb.NegLit(0)},
	}, pb.GE, 1)
	f, err := FixVariables(p)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := f.FixedValue(0); !ok || !v {
		t.Fatalf("v0 not fixed true: fixed=%v val=%v", ok, v)
	}
	// With v0=1 the second row is unit on x1, so root propagation fixes v1
	// true as well: CostOffset carries both costs (7 + 1).
	if f.Problem.CostOffset != 8 {
		t.Fatalf("CostOffset=%d want 8", f.Problem.CostOffset)
	}
	red := pb.BruteForce(f.Problem)
	orig := pb.BruteForce(p)
	if !red.Feasible || red.Optimum != orig.Optimum {
		t.Fatalf("reduced optimum %d (feasible=%v) want %d", red.Optimum, red.Feasible, orig.Optimum)
	}
}

// TestFixVariablesUnsat: presolve must prove root-level infeasibility and
// return an explicitly contradictory problem.
func TestFixVariablesUnsat(t *testing.T) {
	p := pb.NewProblem(2)
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
	_ = p.AddClause(pb.PosLit(0), pb.NegLit(1))
	_ = p.AddClause(pb.NegLit(0), pb.PosLit(1))
	_ = p.AddClause(pb.NegLit(0), pb.NegLit(1))
	f, err := FixVariables(p)
	if err != nil {
		t.Fatal(err)
	}
	if !f.ProvedUnsat {
		t.Fatal("expected ProvedUnsat")
	}
	if pb.BruteForce(f.Problem).Feasible {
		t.Fatal("reduced problem should be unsatisfiable")
	}
}

// TestFixVariablesNamesPreserved: surviving variables keep their names.
func TestFixVariablesNamesPreserved(t *testing.T) {
	p := pb.NewProblem(3)
	p.Names = []string{"a", "b", "c"}
	p.SetCost(1, 3)
	// v0 forced true; v1, v2 survive (mixed polarity keeps them unfixed).
	_ = p.AddClause(pb.PosLit(0))
	_ = p.AddConstraint([]pb.Term{
		{Coef: 1, Lit: pb.PosLit(1)}, {Coef: 1, Lit: pb.NegLit(2)},
	}, pb.GE, 1)
	_ = p.AddConstraint([]pb.Term{
		{Coef: 1, Lit: pb.NegLit(1)}, {Coef: 1, Lit: pb.PosLit(2)},
	}, pb.GE, 1)
	f, err := FixVariables(p)
	if err != nil {
		t.Fatal(err)
	}
	// Root propagation fixes v0; the persistency rule finds no pure
	// variable, so the names of two survivors are checked.
	if f.ProbeFixed != 1 || f.PersistencyFixed != 0 {
		t.Fatalf("ProbeFixed=%d PersistencyFixed=%d, want 1 and 0", f.ProbeFixed, f.PersistencyFixed)
	}
	if _, ok := f.FixedValue(0); !ok {
		t.Fatal("v0 should be fixed")
	}
	for nv, ov := range f.NewToOld {
		want := p.Names[ov]
		if nv >= len(f.Problem.Names) || f.Problem.Names[nv] != want {
			t.Fatalf("name for new var %d: got %q want %q", nv, f.Problem.Names, want)
		}
	}
}
