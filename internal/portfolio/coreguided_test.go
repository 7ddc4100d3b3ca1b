package portfolio

import (
	"math/rand"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/pb"
	"repro/internal/wbo"
)

func randomWBO(rng *rand.Rand) *wbo.Instance {
	n := 2 + rng.Intn(4)
	in := &wbo.Instance{NumVars: n}
	clause := func() []pb.Term {
		nt := 1 + rng.Intn(3)
		terms := make([]pb.Term, nt)
		for k := range terms {
			terms[k] = pb.Term{Coef: 1, Lit: pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0)}
		}
		return terms
	}
	for i := rng.Intn(3); i > 0; i-- {
		in.Hard = append(in.Hard, wbo.HardCons{Terms: clause(), Cmp: pb.GE, Rhs: 1})
	}
	for i := 1 + rng.Intn(4); i > 0; i-- {
		in.Soft = append(in.Soft, wbo.SoftCons{
			Weight: int64(1 + rng.Intn(9)), Terms: clause(), Cmp: pb.GE, Rhs: 1})
	}
	return in
}

// TestMixedPortfolioCoreGuided races the core-guided member against
// branch-and-bound on random WBO instances under the exhaustive auditor:
// both must prove the same optimum (or agree on hard-UNSAT), and every
// published incumbent and terminal claim must survive the audit.
func TestMixedPortfolioCoreGuided(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for iter := 0; iter < 40; iter++ {
		in := randomWBO(rng)
		b, err := in.Builder()
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.Problem()
		if err != nil {
			t.Fatal(err)
		}
		want := pb.BruteForce(p)

		aud := audit.New(p)
		configs := []Config{
			{Name: "core-guided", CoreGuided: &CoreGuided{Instance: in}},
			{Name: "mis", Options: core.Options{LowerBound: core.LBMIS, Seed: 2}},
		}
		res := SolveOpts(p, configs, Options{Audit: aud})
		if !want.Feasible {
			if res.Status != core.StatusUnsat {
				t.Fatalf("iter %d: status=%v want unsat (winner %s)", iter, res.Status, res.Winner)
			}
		} else if res.Status != core.StatusOptimal || res.Best != want.Optimum {
			t.Fatalf("iter %d: got %v/%d want optimal/%d (winner %s)",
				iter, res.Status, res.Best, want.Optimum, res.Winner)
		}
		if rep := aud.Snapshot(); !rep.Ok() {
			t.Fatalf("iter %d: audit violations:\n%s", iter, rep.String())
		}
	}
}

// TestCoreGuidedMemberAloneProvesOptimum pins the member in isolation: it
// must win the race outright (no B&B member present) with a verified
// compiled-space witness.
func TestCoreGuidedMemberAloneProvesOptimum(t *testing.T) {
	in := &wbo.Instance{
		NumVars: 2,
		Hard:    []wbo.HardCons{{Terms: []pb.Term{{Coef: 1, Lit: pb.NegLit(0)}, {Coef: 1, Lit: pb.NegLit(1)}}, Cmp: pb.GE, Rhs: 1}},
		Soft: []wbo.SoftCons{
			{Weight: 7, Terms: []pb.Term{{Coef: 1, Lit: pb.PosLit(0)}}, Cmp: pb.GE, Rhs: 1},
			{Weight: 2, Terms: []pb.Term{{Coef: 1, Lit: pb.PosLit(1)}}, Cmp: pb.GE, Rhs: 1},
		},
	}
	b, err := in.Builder()
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Problem()
	if err != nil {
		t.Fatal(err)
	}
	res := SolveOpts(p, []Config{{CoreGuided: &CoreGuided{Instance: in}}}, Options{})
	if res.Status != core.StatusOptimal || res.Best != 2 {
		t.Fatalf("got %v/%d want optimal/2", res.Status, res.Best)
	}
	if res.Winner != "core-guided" {
		t.Fatalf("winner=%q want core-guided", res.Winner)
	}
	if !res.HasSolution || !p.Feasible(res.Values) {
		t.Fatal("winner must carry a feasible compiled-space witness")
	}
}

// TestVerifyClaimCoreGuided drives the core-guided claim mapping and the
// verifier with claims a buggy (or mismatched) core-guided member could
// emit: an optimal verdict without a witness, with an infeasible witness, or
// with a cost that does not match the claim must all demote to StatusLimit.
func TestVerifyClaimCoreGuided(t *testing.T) {
	in := &wbo.Instance{
		NumVars: 1,
		Soft: []wbo.SoftCons{
			{Weight: 3, Terms: []pb.Term{{Coef: 1, Lit: pb.PosLit(0)}}, Cmp: pb.GE, Rhs: 1}},
	}
	b, err := in.Builder()
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Problem()
	if err != nil {
		t.Fatal(err)
	}
	claim := func(r wbo.Result) core.Result { return verifyClaim(p, false, coreGuidedClaim(in, r)) }

	// No witness at all.
	r := claim(wbo.Result{Status: core.StatusOptimal, Best: 0})
	if r.Status != core.StatusLimit || r.HasSolution {
		t.Fatalf("witnessless optimal: got %v/%v want limit without solution", r.Status, r.HasSolution)
	}

	// Witness feasible but the claimed optimum disagrees with its cost:
	// x0=0 violates the soft (compiled cost 3) while the claim says 0.
	r = claim(wbo.Result{
		Status: core.StatusOptimal, Best: 0, HasSolution: true, Values: []bool{false}})
	if r.Status != core.StatusLimit {
		t.Fatalf("cost-mismatched optimal: status=%v want limit", r.Status)
	}
	if r.HasSolution {
		t.Fatalf("a witness whose cost differs from the claim must be dropped: best=%d", r.Best)
	}

	// Unsat without the HardUnsat marker (assumption-relative refusal) must
	// not become an unsatisfiability verdict for the compiled problem.
	r = claim(wbo.Result{Status: core.StatusUnsat})
	if r.Status != core.StatusLimit {
		t.Fatalf("non-hard unsat: status=%v want limit", r.Status)
	}

	// A consistent optimal claim passes through.
	r = claim(wbo.Result{
		Status: core.StatusOptimal, Best: 0, HasSolution: true, Values: []bool{true}})
	if r.Status != core.StatusOptimal || r.Best != 0 {
		t.Fatalf("consistent optimal: got %v/%d want optimal/0", r.Status, r.Best)
	}
}
