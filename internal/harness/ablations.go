package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/preprocess"
)

// AblationID names one of the DESIGN.md §4 ablation experiments.
type AblationID string

// The eight ablations (A1–A8).
const (
	AblationBoundConflicts AblationID = "A1-bound-conflicts"
	AblationLPBranching    AblationID = "A2-lp-branching"
	AblationKnapsack       AblationID = "A3-knapsack-cut"
	AblationCardInference  AblationID = "A4-card-inference"
	AblationLGRIterations  AblationID = "A5-lgr-convergence"
	AblationPreprocess     AblationID = "A6-preprocess"
	AblationLPRCuts        AblationID = "A7-lpr-cuts"
	AblationLPIncumbent    AblationID = "A8-lp-incumbent"
)

// Ablations lists all ablation ids in order.
func Ablations() []AblationID {
	return []AblationID{
		AblationBoundConflicts, AblationLPBranching, AblationKnapsack,
		AblationCardInference, AblationLGRIterations, AblationPreprocess,
		AblationLPRCuts, AblationLPIncumbent,
	}
}

// AblationResult is one configuration's aggregate over the ablation suite.
type AblationResult struct {
	Ablation  AblationID
	Variant   string
	Solved    int
	Total     int
	Decisions int64
	Duration  time.Duration
}

// ablationVariant is one (variant label, solver options, preprocessing) cell.
type ablationVariant struct {
	name string
	opt  core.Options
	pre  bool
}

func ablationVariants(id AblationID) []ablationVariant {
	base := core.Options{LowerBound: core.LBLPR, CardinalityInference: true}
	switch id {
	case AblationBoundConflicts:
		chrono := base
		chrono.ChronologicalBounds = true
		return []ablationVariant{{"ncb", base, false}, {"chronological", chrono, false}}
	case AblationLPBranching:
		vsids := base
		vsids.NoLPBranching = true
		return []ablationVariant{{"lp-branching", base, false}, {"vsids-only", vsids, false}}
	case AblationKnapsack:
		noCut := base
		noCut.NoKnapsackCuts = true
		return []ablationVariant{{"knapsack-cut", base, false}, {"no-cut", noCut, false}}
	case AblationCardInference:
		on := core.Options{LowerBound: core.LBMIS, CardinalityInference: true}
		off := core.Options{LowerBound: core.LBMIS}
		return []ablationVariant{{"inference", on, false}, {"off", off, false}}
	case AblationLGRIterations:
		mk := func(iters int, cold bool) core.Options {
			return core.Options{
				LowerBound:           core.LBLGR,
				CardinalityInference: true,
				Tuning:               core.Tuning{LGRIterations: iters, LGRColdStart: cold},
			}
		}
		return []ablationVariant{
			{"cold-10", mk(10, true), false},
			{"cold-50", mk(50, true), false},
			{"cold-200", mk(200, true), false},
			{"warm-10", mk(10, false), false},
			{"warm-50", mk(50, false), false},
		}
	case AblationPreprocess:
		return []ablationVariant{{"preprocess", base, true}, {"raw", base, false}}
	case AblationLPRCuts:
		noCuts := base
		noCuts.NoCuts = true
		return []ablationVariant{{"cuts", base, false}, {"no-cuts", noCuts, false}}
	case AblationLPIncumbent:
		branchOnly := base
		branchOnly.NoLPIncumbent = true
		return []ablationVariant{{"lp-incumbent", base, false}, {"branching-only", branchOnly, false}}
	default:
		return nil
	}
}

// RunAblation executes one ablation over the given instances with per-run
// budgets, returning one aggregate row per variant.
func RunAblation(id AblationID, insts []Instance, timeLimit time.Duration, maxConflicts int64) []AblationResult {
	var out []AblationResult
	for _, variant := range ablationVariants(id) {
		row := AblationResult{Ablation: id, Variant: variant.name}
		start := time.Now()
		for _, inst := range insts {
			prob := inst.Prob
			if variant.pre {
				if p2, info, err := preprocess.Apply(prob, preprocess.Options{
					Probing: true, Strengthening: true, Subsumption: true,
				}); err == nil && !info.ProvedUnsat {
					prob = p2
				}
			}
			opt := variant.opt
			if timeLimit > 0 {
				opt.Deadline = time.Now().Add(timeLimit)
			}
			opt.MaxConflicts = maxConflicts
			res := core.Solve(prob, opt)
			row.Total++
			if res.Status == core.StatusOptimal || res.Status == core.StatusSatisfiable ||
				res.Status == core.StatusUnsat {
				row.Solved++
			}
			row.Decisions += res.Stats.Decisions
		}
		row.Duration = time.Since(start)
		out = append(out, row)
	}
	return out
}

// AblationInstances generates the default ablation suite (the optimization
// families at a reduced scale).
func AblationInstances(sc Scale) ([]Instance, error) {
	return Instances([]Family{FamilyGrout, FamilySynth, FamilyMcnc}, sc)
}

// FormatAblations renders ablation rows as an aligned table.
func FormatAblations(rows []AblationResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %-14s %8s %12s %10s\n",
		"ablation", "variant", "solved", "decisions", "time")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s %-14s %4d/%-3d %12d %10s\n",
			r.Ablation, r.Variant, r.Solved, r.Total, r.Decisions,
			r.Duration.Round(time.Millisecond))
	}
	return sb.String()
}
