// Package fuzz is the differential-fuzzing harness of the reproduction: it
// runs small instances through every solver configuration — the four
// lower-bound methods, the linear-search strategy, the incremental-reduction
// and warm-LP ablations, and the cooperative portfolio with sharing on and
// off — each under the internal/audit invariant auditor, compares every
// conclusive answer against the exhaustive pb.BruteForce oracle, and shrinks
// any mismatch to a minimal OPB reproducer.
//
// Three layers consume it:
//
//   - go test fuzz targets (FuzzDifferential) mutate raw OPB text;
//   - cmd/pbfuzz generates gen.AdversarialOPB instances in bulk and saves
//     shrunk reproducers under testdata/fuzz-corpus/;
//   - TestFuzzCorpus replays every committed reproducer on each run, so a
//     once-found bug stays fixed.
package fuzz

import (
	"fmt"
	"strings"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/opb"
	"repro/internal/pb"
	"repro/internal/portfolio"
	"repro/internal/preprocess"
	"repro/internal/verify"
)

// MaxVars gates the differential run: beyond this, pb.BruteForce and the
// auditor's exhaustive replay are too slow to be useful oracles. (opb's
// complement normalization inflates the variable count, so generators should
// stay well below this.)
const MaxVars = 16

// MaxCons gates pathological constraint blowups from fuzzer-mutated text.
const MaxCons = 64

// DefaultBudget is the per-configuration conflict budget. Instances within
// MaxVars essentially always finish long before it; the cap only stops a
// runaway configuration (which would itself be a finding worth shrinking,
// surfaced as a StatusLimit skip rather than a hang).
const DefaultBudget = 50_000

// Mismatch is one configuration's disagreement with the oracle (or with its
// own auditor).
type Mismatch struct {
	// Config names the offending configuration ("lpr", "portfolio-shared", …).
	Config string
	// Detail describes the disagreement.
	Detail string
}

func (m Mismatch) String() string { return m.Config + ": " + m.Detail }

// configs is the single-solver half of the differential matrix: all four
// lower-bound methods, both strategies, and the ablation toggles whose
// "never changes results" claims are exactly what a fuzzer should test.
func configs(budget int64) []struct {
	name string
	opt  core.Options
} {
	return []struct {
		name string
		opt  core.Options
	}{
		{"plain", core.Options{LowerBound: core.LBNone, MaxConflicts: budget}},
		{"mis", core.Options{LowerBound: core.LBMIS, MaxConflicts: budget}},
		{"lgr", core.Options{LowerBound: core.LBLGR, MaxConflicts: budget}},
		{"lpr", core.Options{LowerBound: core.LBLPR, MaxConflicts: budget}},
		{"lpr-linear", core.Options{LowerBound: core.LBLPR, Strategy: core.StrategyLinearSearch, MaxConflicts: budget}},
		{"plain-linear-pb", core.Options{LowerBound: core.LBNone, Strategy: core.StrategyLinearSearch, MaxConflicts: budget, Tuning: core.Tuning{PBLearning: true}}},
		{"lpr-nocuts", core.Options{LowerBound: core.LBLPR, MaxConflicts: budget, Tuning: core.Tuning{NoCuts: true}}},
		{"lgr-chrono", core.Options{LowerBound: core.LBLGR, MaxConflicts: budget, Tuning: core.Tuning{ChronologicalBounds: true}}},
		{"mis-cuts", core.Options{LowerBound: core.LBMIS, CardinalityInference: true, MaxConflicts: budget, Tuning: core.Tuning{PBLearning: true}}},
	}
}

// Check runs the full differential matrix on p with the given per-config
// conflict budget (0 = DefaultBudget) and returns every mismatch found
// (nil/empty = clean). Instances outside the oracle gates return nil.
func Check(p *pb.Problem, budget int64) []Mismatch {
	if p.NumVars > MaxVars || len(p.Constraints) > MaxCons {
		return nil
	}
	if err := p.Validate(); err != nil {
		// A parsed problem failing validation is an opb bug, surfaced as a
		// mismatch of its own rather than fed to solvers.
		return []Mismatch{{Config: "validate", Detail: err.Error()}}
	}
	if budget <= 0 {
		budget = DefaultBudget
	}
	want := pb.BruteForce(p)
	ix := verify.NewIndex(p)

	var out []Mismatch
	judge := func(name string, res core.Result, aud *audit.Auditor) {
		if rep := aud.Snapshot(); !rep.Ok() {
			for _, v := range rep.Violations {
				out = append(out, Mismatch{Config: name, Detail: "audit: " + v.String()})
			}
		}
		switch res.Status {
		case core.StatusError:
			out = append(out, Mismatch{Config: name, Detail: "crashed: " + firstLine(res.Err)})
		case core.StatusLimit:
			// Budget-bound: no verdict to compare. (An incumbent, if any, is
			// still audit-verified above.)
		case core.StatusUnsat:
			if want.Feasible {
				out = append(out, Mismatch{Config: name,
					Detail: fmt.Sprintf("claimed UNSAT, brute force found optimum %d", want.Optimum)})
			}
		case core.StatusSatisfiable, core.StatusOptimal:
			if !want.Feasible {
				out = append(out, Mismatch{Config: name, Detail: "claimed a solution on an UNSAT instance"})
				return
			}
			if res.Status == core.StatusOptimal && res.Best != want.Optimum {
				out = append(out, Mismatch{Config: name,
					Detail: fmt.Sprintf("claimed optimum %d, brute force says %d", res.Best, want.Optimum)})
			}
			if res.Values == nil {
				out = append(out, Mismatch{Config: name, Detail: "conclusive solution without values"})
				return
			}
			// Model round-trip through the value-line format: what a
			// downstream checker would actually see.
			a, err := ix.ParseValueLine(verify.FormatValueLine(p, res.Values))
			if err != nil {
				out = append(out, Mismatch{Config: name, Detail: "value line round-trip: " + err.Error()})
				return
			}
			rep := verify.Check(p, a.Values)
			if !rep.Feasible {
				out = append(out, Mismatch{Config: name,
					Detail: fmt.Sprintf("model violates constraint %d", rep.ViolatedIdx)})
			} else if res.Status == core.StatusOptimal && rep.Objective != res.Best {
				out = append(out, Mismatch{Config: name,
					Detail: fmt.Sprintf("model costs %d, solver claimed %d", rep.Objective, res.Best)})
			}
		}
	}

	for _, c := range configs(budget) {
		aud := audit.New(p)
		opt := c.opt
		opt.Audit = aud
		judge(c.name, core.SafeSolve(p, opt), aud)
	}

	// Presolve half of the matrix: FixVariables rewrites the instance over
	// the unfixed variables (different numbering, possibly fewer vars), each
	// lower-bound method solves the REDUCED problem under its own auditor,
	// and the solution is lifted back and judged against the ORIGINAL
	// problem's oracle and value-line round-trip. Any error in the fixing
	// rules, the CostOffset bookkeeping, or the Lift mapping shows up as a
	// presolve-vs-plain disagreement.
	fx, ferr := preprocess.FixVariables(p)
	if ferr != nil {
		out = append(out, Mismatch{Config: "presolve", Detail: ferr.Error()})
	} else {
		if fx.ProvedUnsat && want.Feasible {
			out = append(out, Mismatch{Config: "presolve",
				Detail: fmt.Sprintf("proved UNSAT, brute force found optimum %d", want.Optimum)})
		}
		for _, lb := range []core.Method{core.LBNone, core.LBMIS, core.LBLGR, core.LBLPR} {
			name := "presolve-" + lb.String()
			aud := audit.New(fx.Problem)
			res := core.SafeSolve(fx.Problem, core.Options{
				LowerBound: lb, MaxConflicts: budget, Audit: aud,
			})
			if rep := aud.Snapshot(); !rep.Ok() {
				for _, v := range rep.Violations {
					out = append(out, Mismatch{Config: name, Detail: "audit: " + v.String()})
				}
			}
			switch res.Status {
			case core.StatusError:
				out = append(out, Mismatch{Config: name, Detail: "crashed: " + firstLine(res.Err)})
			case core.StatusLimit:
				// No verdict to compare.
			case core.StatusUnsat:
				if want.Feasible {
					out = append(out, Mismatch{Config: name,
						Detail: fmt.Sprintf("claimed UNSAT, brute force found optimum %d", want.Optimum)})
				}
			case core.StatusSatisfiable, core.StatusOptimal:
				if !want.Feasible {
					out = append(out, Mismatch{Config: name, Detail: "claimed a solution on an UNSAT instance"})
					continue
				}
				// A proved StatusSatisfiable on a reduced problem whose
				// objective presolve fully absorbed is an optimum claim in
				// the original space.
				conclusive := res.Status == core.StatusOptimal ||
					(res.Status == core.StatusSatisfiable && p.HasObjective())
				// Best already includes the reduced CostOffset, which absorbs
				// the costs of presolve-fixed-true variables: directly
				// comparable to the original-space optimum.
				if conclusive && res.Best != want.Optimum {
					out = append(out, Mismatch{Config: name,
						Detail: fmt.Sprintf("claimed optimum %d, brute force says %d", res.Best, want.Optimum)})
				}
				if res.Values == nil {
					out = append(out, Mismatch{Config: name, Detail: "conclusive solution without values"})
					continue
				}
				lifted := fx.Lift(res.Values)
				a, err := ix.ParseValueLine(verify.FormatValueLine(p, lifted))
				if err != nil {
					out = append(out, Mismatch{Config: name, Detail: "lifted value line round-trip: " + err.Error()})
					continue
				}
				rep := verify.Check(p, a.Values)
				if !rep.Feasible {
					out = append(out, Mismatch{Config: name,
						Detail: fmt.Sprintf("lifted model violates original constraint %d", rep.ViolatedIdx)})
				} else if conclusive && rep.Objective != res.Best {
					out = append(out, Mismatch{Config: name,
						Detail: fmt.Sprintf("lifted model costs %d in original space, solver claimed %d", rep.Objective, res.Best)})
				}
			}
		}
	}

	// Portfolio: cooperative (sharing) and isolated, each with the audit
	// attached to every member. MaxConcurrent 2 keeps real interleaving (and
	// therefore real clause/incumbent exchange) while bounding fuzz cost.
	for _, shared := range []bool{true, false} {
		name := "portfolio-isolated"
		if shared {
			name = "portfolio-shared"
		}
		aud := audit.New(p)
		members := make([]portfolio.Config, 0, 4)
		for i, lb := range []core.Method{core.LBNone, core.LBMIS, core.LBLGR, core.LBLPR} {
			members = append(members, portfolio.Config{
				Name: lb.String(),
				Options: core.Options{LowerBound: lb, MaxConflicts: budget,
					Seed: int64(i + 1), RandomBranchFreq: 0.02},
			})
		}
		pres := portfolio.SolveOpts(p, members, portfolio.Options{
			NoSharing:     !shared,
			MaxConcurrent: 2,
			Audit:         aud,
		})
		judge(name, pres.Result, aud)
	}

	// Mixed portfolio: one UB-only local-search member racing one B&B member
	// per lower-bound method, shared and isolated. The judge treats any
	// conclusive verdict as a proof claim, so these cells pin the UB-only
	// contract end to end: the LS member's incumbents may accelerate (or,
	// shared, tighten) the B&B member, but the portfolio's verdict must
	// still match the brute-force oracle exactly — in particular, an LS
	// incumbent must never surface as a fake UNSAT/optimality proof.
	for _, shared := range []bool{true, false} {
		for i, lb := range []core.Method{core.LBNone, core.LBMIS, core.LBLGR, core.LBLPR} {
			name := "mixed-" + lb.String() + "-isolated"
			if shared {
				name = "mixed-" + lb.String() + "-shared"
			}
			aud := audit.New(p)
			members := []portfolio.Config{
				{Name: lb.String(), Options: core.Options{LowerBound: lb, MaxConflicts: budget,
					Seed: int64(i + 1), RandomBranchFreq: 0.02}},
				portfolio.LSConfig("ls", int64(100+i), 10_000),
			}
			pres := portfolio.SolveOpts(p, members, portfolio.Options{
				NoSharing:     !shared,
				MaxConcurrent: 2,
				Audit:         aud,
			})
			judge(name, pres.Result, aud)
		}
	}
	return out
}

// CheckText parses OPB text and runs the differential matrix on it. Parse
// errors are not findings (the adversarial generator deliberately produces
// overflowing inputs the parser must reject) — ok=false reports "nothing to
// check".
func CheckText(text string, budget int64) (mismatches []Mismatch, ok bool) {
	p, err := opb.ParseString(text)
	if err != nil {
		return nil, false
	}
	return Check(p, budget), true
}

// ShrinkFailure shrinks p, on which Check reported ms, and returns the
// shrunk instance with the mismatches from the shrink predicate's last
// firing — the ones Check reported for that very instance. Re-running Check
// on the result instead would lose an intermittent mismatch (a race) and
// report the instance with no finding attached.
func ShrinkFailure(p *pb.Problem, ms []Mismatch, budget int64) (*pb.Problem, []Mismatch) {
	return shrinkFailure(p, ms, func(q *pb.Problem) []Mismatch { return Check(q, budget) })
}

func shrinkFailure(p *pb.Problem, ms []Mismatch, check func(*pb.Problem) []Mismatch) (*pb.Problem, []Mismatch) {
	last := ms
	small := Shrink(p, func(q *pb.Problem) bool {
		qm := check(q)
		if len(qm) == 0 {
			return false
		}
		last = qm
		return true
	})
	return small, last
}

// Describe renders a mismatch list plus the instance for reproducer headers
// and failure messages.
func Describe(p *pb.Problem, ms []Mismatch) string {
	var sb strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&sb, "* mismatch %s\n", m)
	}
	sb.WriteString(opb.WriteString(p))
	return sb.String()
}

func firstLine(err error) string {
	if err == nil {
		return "unknown"
	}
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}
