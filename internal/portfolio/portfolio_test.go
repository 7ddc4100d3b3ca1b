package portfolio

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pb"
)

func randomPBO(rng *rand.Rand, n, m int) *pb.Problem {
	p := pb.NewProblem(n)
	for v := 0; v < n; v++ {
		p.SetCost(pb.Var(v), int64(rng.Intn(7)))
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
		_ = p.AddConstraint(terms, pb.GE, int64(rng.Intn(6)))
	}
	return p
}

func TestPortfolioAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for iter := 0; iter < 60; iter++ {
		p := randomPBO(rng, 2+rng.Intn(7), 1+rng.Intn(8))
		want := pb.BruteForce(p)
		res := SolveOpts(p, nil, Options{}) // default four-member portfolio
		if want.Feasible {
			if res.Status != core.StatusOptimal {
				t.Fatalf("iter %d: status=%v want optimal", iter, res.Status)
			}
			if res.Best != want.Optimum {
				t.Fatalf("iter %d: best=%d want %d (winner %s)", iter, res.Best, want.Optimum, res.Winner)
			}
			if res.Winner == "" {
				t.Fatalf("iter %d: no winner recorded", iter)
			}
		} else if res.Status != core.StatusUnsat {
			t.Fatalf("iter %d: status=%v want unsat", iter, res.Status)
		}
	}
}

func TestPortfolioAllLimitsReturnsIncumbent(t *testing.T) {
	// A large covering instance with a 1-conflict budget per member: nobody
	// proves optimality, but incumbents exist.
	rng := rand.New(rand.NewSource(2))
	const n = 40
	p := pb.NewProblem(n)
	for v := 0; v < n; v++ {
		p.SetCost(pb.Var(v), int64(1+rng.Intn(9)))
	}
	for i := 0; i < 80; i++ {
		var lits []pb.Lit
		for v := 0; v < n; v++ {
			if rng.Intn(8) == 0 {
				lits = append(lits, pb.PosLit(pb.Var(v)))
			}
		}
		if len(lits) == 0 {
			lits = append(lits, pb.PosLit(pb.Var(rng.Intn(n))))
		}
		_ = p.AddClause(lits...)
	}
	configs := DefaultConfigs()
	for i := range configs {
		configs[i].Options.MaxConflicts = 1
	}
	res := SolveOpts(p, configs, Options{})
	if res.Status == core.StatusOptimal {
		return // solved before the first conflict: acceptable
	}
	if res.Status != core.StatusLimit {
		t.Fatalf("status=%v", res.Status)
	}
	if !res.HasSolution {
		t.Fatal("expected an incumbent from at least one member")
	}
	if !p.Feasible(res.Values) {
		t.Fatal("incumbent infeasible")
	}
}

func TestPortfolioCancellationStopsLosers(t *testing.T) {
	// One instant member (tiny instance budgeted generously) plus one
	// hopeless member (huge budget but cancelled): the call must return
	// promptly rather than wait out the loser.
	p := pb.NewProblem(3)
	p.SetCost(0, 1)
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
	configs := []Config{
		{Name: "fast", Options: core.Options{LowerBound: core.LBNone}},
		{Name: "slow", Options: core.Options{LowerBound: core.LBLPR, Deadline: time.Now().Add(30 * time.Second)}},
	}
	start := time.Now()
	res := SolveOpts(p, configs, Options{})
	if res.Status != core.StatusOptimal {
		t.Fatalf("status=%v", res.Status)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not stop the losing member promptly")
	}
}

func TestConfigNameFallback(t *testing.T) {
	c := Config{Options: core.Options{LowerBound: core.LBLGR}}
	if c.name() != "lgr" {
		t.Fatalf("name=%q", c.name())
	}
}

// TestMixedPortfolioAgreesWithBruteForce is the acceptance gate for the
// local-search member: one UB-only LS worker racing one B&B member per
// lower-bound method (shared board), under the auditor, must prove exactly
// the brute-force verdict — the LS member accelerates the incumbent but can
// never fake the proof.
func TestMixedPortfolioAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, lb := range []core.Method{core.LBNone, core.LBMIS, core.LBLGR, core.LBLPR} {
		for iter := 0; iter < 8; iter++ {
			p := randomPBO(rng, 2+rng.Intn(7), 1+rng.Intn(8))
			want := pb.BruteForce(p)
			aud := audit.New(p)
			members := []Config{
				{Name: lb.String(), Options: core.Options{LowerBound: lb,
					Seed: 1, RandomBranchFreq: 0.02}},
				LSConfig("ls", 7, 0),
			}
			res := SolveOpts(p, members, Options{MaxConcurrent: 2, Audit: aud})
			if rep := aud.Snapshot(); !rep.Ok() {
				t.Fatalf("%s iter %d: audit: %v", lb, iter, rep.Violations)
			}
			if want.Feasible {
				if res.Status != core.StatusOptimal {
					t.Fatalf("%s iter %d: status=%v want optimal (winner %q)", lb, iter, res.Status, res.Winner)
				}
				if res.Best != want.Optimum {
					t.Fatalf("%s iter %d: best=%d want %d", lb, iter, res.Best, want.Optimum)
				}
				if res.Winner == "ls" {
					t.Fatalf("%s iter %d: UB-only member declared the optimality winner", lb, iter)
				}
				if !p.Feasible(res.Values) {
					t.Fatalf("%s iter %d: infeasible certificate", lb, iter)
				}
			} else if res.Status != core.StatusUnsat {
				t.Fatalf("%s iter %d: status=%v want unsat", lb, iter, res.Status)
			}
			// Roster bookkeeping: the LS member is flagged UB-only and its
			// status is never an exhaustion verdict.
			var sawLS bool
			for _, m := range res.Members {
				if m.Name == "ls" {
					sawLS = true
					if !m.UBOnly {
						t.Fatalf("%s iter %d: ls member not flagged UBOnly", lb, iter)
					}
					if m.Status == core.StatusOptimal || m.Status == core.StatusUnsat {
						t.Fatalf("%s iter %d: UB-only member reported %v", lb, iter, m.Status)
					}
				}
			}
			if !sawLS {
				t.Fatalf("%s iter %d: ls member missing from roster", lb, iter)
			}
		}
	}
}

// TestLSOnlyPortfolioNeverConcludes: a portfolio of only UB-only members on
// an objective instance can deliver an incumbent but never a verdict.
func TestLSOnlyPortfolioNeverConcludes(t *testing.T) {
	p := randomPBO(rand.New(rand.NewSource(77)), 8, 6)
	want := pb.BruteForce(p)
	if !want.Feasible {
		t.Skip("generator produced an UNSAT instance")
	}
	res := SolveOpts(p, []Config{LSConfig("ls", 3, 30_000)}, Options{MaxConcurrent: 1})
	if res.Status != core.StatusLimit {
		t.Fatalf("status=%v, a UB-only portfolio must end at StatusLimit", res.Status)
	}
	if !res.HasSolution {
		t.Fatal("no incumbent from the LS member")
	}
	if res.Best < want.Optimum {
		t.Fatalf("incumbent %d undercuts the optimum %d", res.Best, want.Optimum)
	}
	if !p.Feasible(res.Values) {
		t.Fatal("infeasible incumbent")
	}
}

// TestLSOnlyPortfolioSatWitness: on objective-free instances a verified LS
// witness IS a sound conclusive answer.
func TestLSOnlyPortfolioSatWitness(t *testing.T) {
	p := pb.NewProblem(3)
	_ = p.AddConstraint([]pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.PosLit(1)}}, pb.GE, 1)
	_ = p.AddConstraint([]pb.Term{{Coef: 2, Lit: pb.PosLit(2)}}, pb.GE, 2)
	aud := audit.New(p)
	res := SolveOpts(p, []Config{LSConfig("ls", 1, 20_000)}, Options{MaxConcurrent: 1, Audit: aud})
	if rep := aud.Snapshot(); !rep.Ok() {
		t.Fatalf("audit: %v", rep.Violations)
	}
	if res.Status != core.StatusSatisfiable {
		t.Fatalf("status=%v want satisfiable", res.Status)
	}
	if !p.Feasible(res.Values) {
		t.Fatal("witness infeasible")
	}
}

// TestVerifyClaimUBOnly pins the demotion of a UB-only member's claims:
// exhaustion verdicts and unverifiable SAT claims collapse to StatusLimit.
func TestVerifyClaimUBOnly(t *testing.T) {
	p := pb.NewProblem(2)
	p.SetCost(0, 1)
	_ = p.AddConstraint([]pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.PosLit(1)}}, pb.GE, 1)
	feas := []bool{true, false}
	cases := []struct {
		name string
		in   core.Result
		want core.Status
	}{
		{"optimal demoted", core.Result{Status: core.StatusOptimal, HasSolution: true, Best: 1, Values: feas}, core.StatusLimit},
		{"unsat demoted", core.Result{Status: core.StatusUnsat}, core.StatusLimit},
		{"sat with objective demoted", core.Result{Status: core.StatusSatisfiable, HasSolution: true, Best: 1, Values: feas}, core.StatusLimit},
		{"limit passes through", core.Result{Status: core.StatusLimit, HasSolution: true, Best: 1, Values: feas}, core.StatusLimit},
		{"error passes through", core.Result{Status: core.StatusError}, core.StatusError},
	}
	for _, tc := range cases {
		if got := verifyClaim(p, true, tc.in); got.Status != tc.want {
			t.Errorf("%s: status=%v want %v", tc.name, got.Status, tc.want)
		}
	}
	// Objective-free: a verified witness survives, a bogus one does not.
	pf := pb.NewProblem(2)
	_ = pf.AddConstraint([]pb.Term{{Coef: 1, Lit: pb.PosLit(0)}}, pb.GE, 1)
	ok := core.Result{Status: core.StatusSatisfiable, HasSolution: true, Values: []bool{true, false}}
	if got := verifyClaim(pf, true, ok); got.Status != core.StatusSatisfiable {
		t.Errorf("verified witness demoted: %v", got.Status)
	}
	bad := core.Result{Status: core.StatusSatisfiable, HasSolution: true, Values: []bool{false, false}}
	if got := verifyClaim(pf, true, bad); got.Status != core.StatusLimit {
		t.Errorf("infeasible witness not demoted: %v", got.Status)
	}
}

// TestVerifyClaimBranchAndBound pins the check on a complete member: a
// consistent proof passes, while a witness that breaks a constraint, costs
// something other than Best, or has the wrong length is dropped and the
// claim demoted to StatusLimit.
func TestVerifyClaimBranchAndBound(t *testing.T) {
	p := pb.NewProblem(2)
	p.SetCost(0, 1)
	p.SetCost(1, 2)
	_ = p.AddConstraint([]pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.PosLit(1)}}, pb.GE, 1)
	cases := []struct {
		name    string
		in      core.Result
		want    core.Status
		witness bool
	}{
		{"consistent optimal", core.Result{Status: core.StatusOptimal, HasSolution: true, Best: 1, Values: []bool{true, false}}, core.StatusOptimal, true},
		{"unsat from a complete member", core.Result{Status: core.StatusUnsat}, core.StatusUnsat, false},
		{"optimal without witness", core.Result{Status: core.StatusOptimal, Best: 1}, core.StatusLimit, false},
		{"witness breaks a constraint", core.Result{Status: core.StatusOptimal, HasSolution: true, Best: 0, Values: []bool{false, false}}, core.StatusLimit, false},
		{"cost differs from Best", core.Result{Status: core.StatusOptimal, HasSolution: true, Best: 1, Values: []bool{false, true}}, core.StatusLimit, false},
		{"short witness", core.Result{Status: core.StatusOptimal, HasSolution: true, Best: 1, Values: []bool{true}}, core.StatusLimit, false},
		{"limit with a bad witness", core.Result{Status: core.StatusLimit, HasSolution: true, Best: 2, Values: []bool{true, true}}, core.StatusLimit, false},
		{"satisfiable on an objective", core.Result{Status: core.StatusSatisfiable, HasSolution: true, Best: 1, Values: []bool{true, false}}, core.StatusLimit, true},
	}
	for _, tc := range cases {
		got := verifyClaim(p, false, tc.in)
		if got.Status != tc.want || got.HasSolution != tc.witness || (!got.HasSolution && got.Values != nil) {
			t.Errorf("%s: status=%v witness=%v want %v/%v", tc.name, got.Status, got.HasSolution, tc.want, tc.witness)
		}
	}
}

// TestDecidedRaceStartsNoMember runs the default roster one member at a
// time on a problem the first member (plain) proves at once: every later
// member must report a not-run limit without building anything — no solve
// start in the trace, no propagation, no decision.
func TestDecidedRaceStartsNoMember(t *testing.T) {
	p := pb.NewProblem(3)
	for v := 0; v < 3; v++ {
		p.SetCost(pb.Var(v), int64(v+1))
	}
	_ = p.AddConstraint([]pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.PosLit(2)}}, pb.GE, 1)
	tr := obs.NewTracer(1 << 10)
	res := SolveOpts(p, nil, Options{MaxConcurrent: 1, Trace: tr})
	if res.Status != core.StatusOptimal || res.Best != 1 || res.Winner != "plain" {
		t.Fatalf("status %v best %d winner %q, want optimal 1 by plain", res.Status, res.Best, res.Winner)
	}
	for _, m := range res.Members[1:] {
		if m.Status != core.StatusLimit || m.HasSolution || m.Stats.Propagations != 0 || m.Stats.Decisions != 0 {
			t.Errorf("member %s ran after the race was decided: %v, %+v", m.Name, m.Status, m.Stats)
		}
	}
	for _, ev := range tr.Snapshot() {
		if ev.Member != "plain" {
			t.Errorf("member %s emitted %v after the race was decided", ev.Member, ev.Kind)
		}
	}
}
