package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/pb"
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

// ablationVariant is one (variant label, solver options, reduction) cell.
// reduce, when non-nil, rewrites each instance before the solve and counts
// toward the variant's time.
type ablationVariant struct {
	name   string
	opt    core.Options
	reduce func(*pb.Problem) (*pb.Problem, error)
}

// preprocessed applies the §6 probing/strengthening/subsumption pipeline
// (ablation A6).
func preprocessed(p *pb.Problem) (*pb.Problem, error) {
	out, info, err := preprocess.Apply(p, preprocess.Options{})
	if err != nil || info.ProvedUnsat {
		return p, err
	}
	return out, nil
}

// coverReduced applies the §5 covering reductions of internal/cover
// (essential columns, row and column dominance; ablation A8).
func coverReduced(p *pb.Problem) (*pb.Problem, error) {
	out, _, err := cover.Reduce(p)
	return out, err
}

func ablationVariants(id AblationID) []ablationVariant {
	// The shared base is the paper's bsolo-LPR: the LP point only picks the
	// branching variable (§5). With LP-point incumbents the bench-scale rows
	// close at the root, and A1–A3 would compare two runs of 0 decisions.
	base := core.Options{LowerBound: core.LBLPR, CardinalityInference: true,
		Tuning: core.Tuning{NoLPIncumbent: true}}
	switch id {
	case AblationBoundConflicts:
		chrono := base
		chrono.ChronologicalBounds = true
		return []ablationVariant{{"ncb", base, nil}, {"chronological", chrono, nil}}
	case AblationLPBranching:
		vsids := base
		vsids.NoLPBranching = true
		return []ablationVariant{{"lp-branching", base, nil}, {"vsids-only", vsids, nil}}
	case AblationKnapsack:
		// Without the eq. 11–13 inferences: with them on, they subsume
		// eq. 10 on the ablation suite and both variants read the same.
		base.CardinalityInference = false
		noCut := base
		noCut.NoKnapsackCuts = true
		return []ablationVariant{{"knapsack-cut", base, nil}, {"no-cut", noCut, nil}}
	case AblationCardInference:
		on := core.Options{LowerBound: core.LBMIS, CardinalityInference: true}
		off := core.Options{LowerBound: core.LBMIS}
		return []ablationVariant{{"inference", on, nil}, {"off", off, nil}}
	case AblationLGRIterations:
		// The cold short-iteration variants do not close the grout rows. A
		// decision cap ends those cells the same way on every run, long
		// before the per-instance deadline, which would otherwise decide
		// where they stop; the rows they solve take at most ~700 decisions.
		const maxDecisions = 2000
		mk := func(iters int, cold bool) core.Options {
			return core.Options{
				LowerBound:           core.LBLGR,
				CardinalityInference: true,
				MaxDecisions:         maxDecisions,
				Tuning:               core.Tuning{LGRIterations: iters, LGRColdStart: cold},
			}
		}
		return []ablationVariant{
			{"cold-10", mk(10, true), nil},
			{"cold-50", mk(50, true), nil},
			{"cold-200", mk(200, true), nil},
			{"warm-10", mk(10, false), nil},
			{"warm-50", mk(50, false), nil},
		}
	case AblationPreprocess:
		return []ablationVariant{{"preprocess", base, preprocessed}, {"raw", base, nil}}
	case AblationLPRCuts:
		noCuts := base
		noCuts.NoCuts = true
		return []ablationVariant{{"cuts", base, nil}, {"no-cuts", noCuts, nil}}
	case AblationLPIncumbent:
		lpInc := base
		lpInc.NoLPIncumbent = false
		return []ablationVariant{
			{"lp-incumbent", lpInc, nil},
			{"branching-only", base, nil},
			{"branching-only+cover", base, coverReduced},
		}
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
			if variant.reduce != nil {
				if p2, err := variant.reduce(prob); err == nil {
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

// AblationInstances generates the suite ablation id runs over: the
// optimization families at a reduced scale, except for A7, which runs on
// 3·PerFamily rows of the LPR-gap family. The stock families' LP relaxations
// are near tight at that scale, so separation finds nothing to cut there and
// both A7 variants read the same decisions.
func AblationInstances(id AblationID, sc Scale) ([]Instance, error) {
	if id == AblationLPRCuts {
		n := sc.PerFamily
		if n == 0 {
			n = DefaultScale().PerFamily
		}
		return LPRGapInstances(3 * n), nil
	}
	return Instances([]Family{FamilyGrout, FamilySynth, FamilyMcnc}, sc)
}

// FamilyLPRGap (beyond Table 1) is the synthetic LPR-gap family of
// lprGapInstance. It exists for the cut-separation measurements (A7 and
// `make bench-cuts`) and is not part of Families().
const FamilyLPRGap Family = "lprgap"

// lprGapTriangles is the LPR-gap family's size: 16 triangles, 48 variables.
const lprGapTriangles = 16

// LPRGapInstances generates n rows of the LPR-gap family, seeds 0..n-1.
func LPRGapInstances(n int) []Instance {
	out := make([]Instance, n)
	for seed := range out {
		out[seed] = Instance{
			Name:   fmt.Sprintf("lprgap-%d-%d", lprGapTriangles, seed),
			Family: FamilyLPRGap,
			Prob:   lprGapInstance(int64(seed)),
		}
	}
	return out
}

// lprGapInstance builds one instance of the synthetic LPR-gap family:
// disjoint vertex-cover triangles (each an odd cycle whose LP relaxation
// sits at the half-integral 3/2 while the integer optimum is 2 — the
// canonical clique-cut gap) plus coefficient-heavy knapsack rows
// (3a+3b+2c >= 5) whose fractional vertices feed cover separation. The stock
// Table 1 families have near-tight LP relaxations at reproduction scale, so
// they cannot show what separation buys; this family has a real root gap by
// construction.
func lprGapInstance(seed int64) *pb.Problem {
	const nTri = lprGapTriangles
	rng := rand.New(rand.NewSource(seed))
	n := 3 * nTri
	p := pb.NewProblem(n)
	for v := 0; v < n; v++ {
		p.SetCost(pb.Var(v), int64(1+rng.Intn(3)))
	}
	for t := 0; t < nTri; t++ {
		a, b, c := pb.Var(3*t), pb.Var(3*t+1), pb.Var(3*t+2)
		for _, pr := range [][2]pb.Var{{a, b}, {b, c}, {a, c}} {
			_ = p.AddConstraint([]pb.Term{
				{Coef: 1, Lit: pb.PosLit(pr[0])},
				{Coef: 1, Lit: pb.PosLit(pr[1])},
			}, pb.GE, 1)
		}
	}
	for i := 0; i < nTri; i++ {
		terms := []pb.Term{
			{Coef: 3, Lit: pb.PosLit(pb.Var(rng.Intn(n)))},
			{Coef: 3, Lit: pb.PosLit(pb.Var(rng.Intn(n)))},
			{Coef: 2, Lit: pb.PosLit(pb.Var(rng.Intn(n)))},
		}
		_ = p.AddConstraint(terms, pb.GE, 5)
	}
	return p
}

// FormatAblations renders ablation rows as an aligned table.
func FormatAblations(rows []AblationResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %-20s %8s %12s %10s\n",
		"ablation", "variant", "solved", "decisions", "time")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s %-20s %4d/%-3d %12d %10s\n",
			r.Ablation, r.Variant, r.Solved, r.Total, r.Decisions,
			r.Duration.Round(time.Millisecond))
	}
	return sb.String()
}
