package core_test

import (
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/milp"
	"repro/internal/obs"
	"repro/internal/pb"
)

// auditedSolve solves p with an auditor attached and fails the test on any
// violation.
func auditedSolve(t *testing.T, name string, p *pb.Problem, opt core.Options) core.Result {
	t.Helper()
	a := audit.New(p)
	opt.Audit = a
	res := core.Solve(p, opt)
	if rep := a.Snapshot(); !rep.Ok() {
		t.Fatalf("%s: audit violations:\n%s", name, rep.String())
	}
	return res
}

// TestLPIncumbentClosesRoot: on small synthesis and covering instances the
// root LP point rounds to an optimal assignment, so LPR proves the optimum
// at the root with no decision, and that optimum is milp's. The incumbent
// rows (eq. 10, eq. 13) are not built for an incumbent the same node proves
// optimal; under NoLPIncumbent the search branches and installs both.
func TestLPIncumbentClosesRoot(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		synth, err := gen.Synthesis(gen.SynthesisConfig{Nodes: 10, Impls: 4, Fanout: 2.0, Incompat: 0.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		mcnc, err := gen.MinCover(gen.MinCoverConfig{Inputs: 6, OnDensity: 0.3, DcDensity: 0.1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range []struct {
			name string
			p    *pb.Problem
		}{{fmt.Sprintf("synth-%d", seed), synth}, {fmt.Sprintf("mcnc-%d", seed), mcnc}} {
			res := auditedSolve(t, in.name, in.p, core.Options{LowerBound: core.LBLPR, CardinalityInference: true})
			ref := milp.Solve(in.p, milp.Options{})
			if res.Status != core.StatusOptimal || !ref.HasSolution || res.Best != ref.Best {
				t.Fatalf("%s: status %v best %d, milp best %d", in.name, res.Status, res.Best, ref.Best)
			}
			if res.Stats.Decisions != 0 || res.Stats.LPIncumbents < 1 {
				t.Fatalf("%s: decisions %d, LP incumbents %d: the root did not close",
					in.name, res.Stats.Decisions, res.Stats.LPIncumbents)
			}
			if res.Stats.KnapsackCuts != 0 || res.Stats.CardCuts != 0 {
				t.Fatalf("%s: closed at the root but built %d eq. 10 and %d eq. 13 rows",
					in.name, res.Stats.KnapsackCuts, res.Stats.CardCuts)
			}
			off := auditedSolve(t, in.name, in.p, core.Options{
				LowerBound:           core.LBLPR,
				CardinalityInference: true,
				Tuning:               core.Tuning{NoLPIncumbent: true},
			})
			if off.Status != core.StatusOptimal || off.Best != res.Best || off.Stats.LPIncumbents != 0 {
				t.Fatalf("%s: NoLPIncumbent: status %v best %d, LP incumbents %d",
					in.name, off.Status, off.Best, off.Stats.LPIncumbents)
			}
			if off.Stats.Decisions == 0 || off.Stats.KnapsackCuts == 0 || off.Stats.CardCuts == 0 {
				t.Fatalf("%s: NoLPIncumbent: decisions %d, eq. 10 rows %d, eq. 13 rows %d; want a branching search with both kinds",
					in.name, off.Stats.Decisions, off.Stats.KnapsackCuts, off.Stats.CardCuts)
			}
		}
	}
}

// TestLPIncumbentRoundingInfeasible: on the odd cycle x0+x1 ≥ 1, x1+x2 ≥ 1,
// x0+x2 ≥ 1 with at most two of the three set and equal costs, the root LP
// point is (½,½,½) and rounds to all ones, which breaks the at-most-two row.
// No LP incumbent is taken and the search still proves the optimum 2. Cuts
// are off: separation would tighten the root LP to an integral point.
func TestLPIncumbentRoundingInfeasible(t *testing.T) {
	p := pb.NewProblem(3)
	lits := []pb.Lit{pb.PosLit(0), pb.PosLit(1), pb.PosLit(2)}
	for v := range lits {
		p.SetCost(pb.Var(v), 1)
	}
	_ = p.AddClause(lits[0], lits[1])
	_ = p.AddClause(lits[1], lits[2])
	_ = p.AddClause(lits[0], lits[2])
	_ = p.AddAtMost(lits, 2)
	tr := obs.NewTracer(64)
	res := auditedSolve(t, "odd-cycle", p, core.Options{LowerBound: core.LBLPR, Trace: tr, Tuning: core.Tuning{NoCuts: true}})
	if res.Status != core.StatusOptimal || res.Best != 2 {
		t.Fatalf("status %v best %d, want optimal 2", res.Status, res.Best)
	}
	if res.Stats.LPIncumbents != 0 {
		t.Fatalf("%d LP incumbents from an infeasible rounding", res.Stats.LPIncumbents)
	}
	// The root LP ran before the first incumbent, which came from a leaf.
	var kinds []string
	for _, e := range tr.Snapshot() {
		switch e.Kind {
		case obs.EvBound:
			kinds = append(kinds, "bound")
		case obs.EvIncumbent:
			kinds = append(kinds, "incumbent:"+e.Note)
		}
	}
	if len(kinds) < 2 || kinds[0] != "bound" || kinds[1] != "incumbent:local" {
		t.Fatalf("bound/incumbent events %v, want the root bound first, then a leaf incumbent", kinds)
	}
}

// TestLearnedCountsOnlyLearning: learned_clauses counts the constraints
// conflict analysis derived — the clauses the auditor replays plus the
// PBLearning cutting planes — and not the eq. 10/13 incumbent rows, which
// the search installs from an incumbent. The configurations cover both
// kinds of incumbent row and a solve with no conflict at all.
func TestLearnedCountsOnlyLearning(t *testing.T) {
	synth, err := gen.Synthesis(gen.SynthesisConfig{Nodes: 10, Impls: 4, Fanout: 2.0, Incompat: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := int64(0)
	for _, c := range []struct {
		name string
		opt  core.Options
	}{
		{"lpr", core.Options{LowerBound: core.LBLPR, CardinalityInference: true}},
		{"lpr-no-lp-incumbent", core.Options{LowerBound: core.LBLPR, CardinalityInference: true, Tuning: core.Tuning{NoLPIncumbent: true}}},
		{"mis", core.Options{LowerBound: core.LBMIS}},
		{"plain-pb-learning", core.Options{LowerBound: core.LBNone, Tuning: core.Tuning{PBLearning: true}}},
	} {
		a := audit.New(synth)
		c.opt.Audit = a
		res := core.Solve(synth, c.opt)
		rep := a.Snapshot()
		if res.Status != core.StatusOptimal || !rep.Ok() {
			t.Fatalf("%s: status %v, audit %s", c.name, res.Status, rep.String())
		}
		want := rep.Counts.LearnedClauses + res.Stats.PBLearned
		if res.Stats.LearnedClauses != want {
			t.Errorf("%s: learned_clauses %d, want %d (%d learned clauses + %d cutting planes); %d eq. 10 and %d eq. 13 row installs or tightenings",
				c.name, res.Stats.LearnedClauses, want, rep.Counts.LearnedClauses, res.Stats.PBLearned,
				res.Stats.KnapsackCuts, res.Stats.CardCuts)
		}
		rows += res.Stats.KnapsackCuts + res.Stats.CardCuts
	}
	if rows == 0 {
		t.Fatal("no configuration installed an incumbent row")
	}
}
