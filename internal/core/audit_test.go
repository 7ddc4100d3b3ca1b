package core

import (
	"math/rand"
	"testing"

	"repro/internal/audit"
	"repro/internal/pb"
)

// randomAuditProblem builds a small random instance within the auditor's
// exhaustive replay gate.
func randomAuditProblem(rng *rand.Rand, n int) *pb.Problem {
	p := pb.NewProblem(n)
	for v := 0; v < n; v++ {
		p.SetCost(pb.Var(v), int64(rng.Intn(9)))
	}
	m := 2 + rng.Intn(2*n)
	for i := 0; i < m; i++ {
		nt := 1 + rng.Intn(4)
		terms := make([]pb.Term, nt)
		for k := range terms {
			terms[k] = pb.Term{
				Coef: int64(1 + rng.Intn(5)),
				Lit:  pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(3) == 0),
			}
		}
		cmp := pb.GE
		if rng.Intn(5) == 0 {
			cmp = pb.LE
		}
		_ = p.AddConstraint(terms, cmp, int64(1+rng.Intn(6)))
	}
	return p
}

// Every artifact of every configuration must replay cleanly against the
// original problem on random small instances — the auditor acting as a
// white-box oracle over the full solver matrix.
func TestAuditedSolvesAreClean(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	methods := []Method{LBNone, LBMIS, LBLGR, LBLPR}
	for iter := 0; iter < 30; iter++ {
		p := randomAuditProblem(rng, 4+rng.Intn(7))
		want := pb.BruteForce(p)
		for _, m := range methods {
			for _, opt := range []Options{
				{LowerBound: m, MaxConflicts: 200000},
				{LowerBound: m, Strategy: StrategyLinearSearch, MaxConflicts: 200000},
				{LowerBound: m, CardinalityInference: true, MaxConflicts: 200000, Tuning: Tuning{PBLearning: true}},
			} {
				a := audit.New(p)
				opt.Audit = a
				res := Solve(p, opt)
				rep := a.Snapshot()
				if !rep.Ok() {
					t.Fatalf("iter %d lb=%v strat=%v: audit violations:\n%s\nstatus=%v",
						iter, m, opt.Strategy, rep.String(), res.Status)
				}
				if res.Status == StatusOptimal && res.Best != want.Optimum {
					t.Fatalf("iter %d lb=%v: optimum %d != brute %d", iter, m, res.Best, want.Optimum)
				}
				if res.Status == StatusUnsat && want.Feasible {
					t.Fatalf("iter %d lb=%v: claimed unsat, brute found cost %d", iter, m, want.Optimum)
				}
				if rep.Counts.Terminations == 0 && res.Status != StatusLimit {
					t.Fatalf("iter %d lb=%v: conclusive solve did not audit its termination", iter, m)
				}
			}
		}
	}
}

// The auditor must catch a deliberately corrupted artifact — a canary that
// the hooks are actually live, not silently skipped.
func TestAuditCatchesInjectedUnsoundClause(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for tries := 0; tries < 50; tries++ {
		p := randomAuditProblem(rng, 5)
		want := pb.BruteForce(p)
		if !want.Feasible {
			continue
		}
		a := audit.New(p)
		// Forge a "learned" unit clause that excludes the brute optimum.
		var bad pb.Lit
		found := false
		for v := 0; v < p.NumVars; v++ {
			cand := pb.MkLit(pb.Var(v), want.Values[v]) // negation of the optimum's value
			bad = cand
			found = true
			break
		}
		if !found {
			continue
		}
		a.LearnedClause([]pb.Lit{bad}, 0, false)
		// The clause eliminates the optimum; unless another optimum satisfies
		// it, the auditor must flag it. Verify only when uniquely optimal.
		alt := false
		n := p.NumVars
		vals := make([]bool, n)
		for mask := 0; mask < 1<<n; mask++ {
			for v := 0; v < n; v++ {
				vals[v] = mask&(1<<v) != 0
			}
			if p.Feasible(vals) && p.ObjectiveValue(vals) == want.Optimum && bad.Eval(vals[bad.Var()]) {
				alt = true
				break
			}
		}
		if alt {
			continue
		}
		if a.Ok() {
			t.Fatalf("auditor missed a clause excluding the unique optimum (try %d)", tries)
		}
		return
	}
	t.Skip("no uniquely-optimal instance generated")
}

// A shared auditor across portfolio-style concurrent solves must stay clean
// and race-free (exercised further by internal/fuzz and -race CI).
func TestAuditSharedAcrossSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomAuditProblem(rng, 8)
	a := audit.New(p)
	done := make(chan Result, 4)
	for _, m := range []Method{LBNone, LBMIS, LBLGR, LBLPR} {
		go func(m Method) {
			done <- Solve(p, Options{LowerBound: m, MaxConflicts: 100000, Audit: a})
		}(m)
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if rep := a.Snapshot(); !rep.Ok() {
		t.Fatalf("shared auditor violations:\n%s", rep.String())
	}
}
