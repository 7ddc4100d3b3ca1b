// Package baseline packages the two published PBO solvers the paper compares
// bsolo against, reconstructed on top of the shared CDCL engine (see the
// substitution table in DESIGN.md):
//
//   - PBS (Aloul et al. [2]): SAT-based linear search on the cost function
//     with clause learning — no lower bounding, no preprocessing, restarts
//     only when a new solution tightens the cost constraint.
//   - Galena (Chai & Kuehlmann [4]): the same linear-search organization but
//     with pseudo-Boolean-aware strengthening — probing-based preprocessing,
//     implication strengthening, clause subsumption — and Luby restarts.
//
// Both add the eq. 10 constraint Σ c_j·x_j ≤ upper−1 after each solution and
// restart, so the search is the classic "next solution must be cheaper"
// linear sweep of [3].
package baseline

import (
	"time"

	"repro/internal/core"
	"repro/internal/pb"
	"repro/internal/preprocess"
)

// Limits bounds a baseline run.
type Limits struct {
	MaxConflicts int64
	MaxDecisions int64
	// Deadline is the absolute wall-clock stop time (zero = none).
	Deadline time.Time
	// Tuning is handed to the bsolo columns unchanged (ablation runs:
	// incremental bound pipeline, warm LP, cuts); PBS and Galena keep their
	// own fixed configurations.
	Tuning core.Tuning
}

// PBS runs the PBS-style linear-search solver.
func PBS(p *pb.Problem, lim Limits) core.Result {
	return core.Solve(p, core.Options{
		Strategy:     core.StrategyLinearSearch,
		LowerBound:   core.LBNone,
		MaxConflicts: lim.MaxConflicts,
		MaxDecisions: lim.MaxDecisions,
		Deadline:     lim.Deadline,
		RestartBase:  -1, // no Luby restarts; restart only on new solutions
	})
}

// Galena runs the Galena-style linear-search solver with preprocessing.
func Galena(p *pb.Problem, lim Limits) core.Result {
	pre, info, err := preprocess.Apply(p, preprocess.Options{
		MaxProbeVars: 2000,
	})
	if err != nil {
		// Preprocessing failure falls back to the raw instance.
		pre = p
	} else if info.ProvedUnsat {
		return core.Result{Status: core.StatusUnsat}
	}
	return core.Solve(pre, core.Options{
		Strategy:     core.StrategyLinearSearch,
		LowerBound:   core.LBNone,
		MaxConflicts: lim.MaxConflicts,
		MaxDecisions: lim.MaxDecisions,
		Deadline:     lim.Deadline,
		// Galena's distinguishing cutting-plane learning.
		Tuning: core.Tuning{PBLearning: true},
	})
}

// Bsolo runs the paper's solver with the given lower-bound method and the
// §4–§5 techniques enabled (the Table 1 bsolo columns).
func Bsolo(p *pb.Problem, method core.Method, lim Limits) core.Result {
	return core.Solve(p, core.Options{
		Strategy:             core.StrategyBranchBound,
		LowerBound:           method,
		MaxConflicts:         lim.MaxConflicts,
		MaxDecisions:         lim.MaxDecisions,
		Deadline:             lim.Deadline,
		CardinalityInference: true,
		Tuning:               lim.Tuning,
	})
}
