// Package audit implements the in-search invariant auditor: an opt-in hook
// (core.Options.Audit, surfaced as `bsolo -audit`) that replays every
// soundness-critical artifact the solver produces — learned clauses, §4
// bound-based conflicts (ω_pp ∪ ω_pl), imported clauses, adopted incumbents
// and terminal claims — against the *original* problem, recording violations
// in a structured Report instead of panicking.
//
// The auditor is the oracle half of the differential-fuzzing harness
// (internal/fuzz, cmd/pbfuzz): a status/optimum mismatch between
// configurations tells you *that* something is unsound; the auditor's replay
// tells you *which* artifact first broke, on which witness assignment.
//
// # What each check means
//
// Learned clause. Every clause the solver learns is implied by
// problem ∧ (cost ≤ upper−1): the incumbent cuts (eq. 10/13) and, under
// sharing, imported clauses participate in conflict analysis, so the
// implication is relative to the weakest cost assumption in force (the
// caller passes it). The auditor enumerates all assignments (gated by
// Config.MaxExhaustiveVars) and flags any *feasible* assignment cheaper than
// the assumption that falsifies the clause — such an assignment is a
// solution the clause unsoundly cuts off.
//
// Bound conflict. A §4 bound conflict claims every completion of the current
// partial assignment costs ≥ path + lower. The auditor enumerates the
// completions of the trail and flags any feasible completion costing less —
// the node the solver pruned contained a solution better than the bound
// admitted.
//
// Imported clause. Same implication as a learned clause, but relative to the
// sharing board's upper bound at import time (the publisher's incumbent was
// on the board before the clause entered the ring; the board's UB only
// decreases, so it under-approximates every assumption behind the clause —
// see DESIGN.md §9).
//
// Incumbent. Every adopted solution — local, foreign, or terminal — must
// re-verify against the original constraints with exactly the claimed
// objective (internal/verify.Check; always cheap, never gated).
//
// Termination. "optimal <v>" must equal the exhaustive optimum;
// "unsatisfiable" must mean no feasible assignment exists.
//
// # Cost model
//
// The exhaustive checks precompute one feasibility/cost table of size
// 2^NumVars at construction and share it across all events, so a per-event
// replay is a table scan, not a constraint-store walk. Instances above
// MaxExhaustiveVars skip the exhaustive checks (counted in Counts.Skipped);
// the incumbent re-verification has no size gate. All methods are safe on a
// nil *Auditor (no-ops), so call sites need no guards, and the struct is
// internally locked so one auditor can serve every member of a portfolio.
package audit

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/pb"
	"repro/internal/verify"
)

// Kind classifies a violation by the artifact that produced it.
type Kind int

const (
	// KindLearnedClause: a learned clause eliminates a feasible assignment
	// cheaper than the cost assumption it was learned under.
	KindLearnedClause Kind = iota
	// KindBoundConflict: a feasible completion of the partial assignment
	// costs less than the claimed path + lower.
	KindBoundConflict
	// KindImportedClause: an imported clause eliminates a feasible
	// assignment cheaper than the board's upper bound.
	KindImportedClause
	// KindIncumbent: an adopted solution violates a constraint or its
	// objective differs from the claimed value.
	KindIncumbent
	// KindTermination: the terminal status/optimum disagrees with the
	// exhaustive reference.
	KindTermination
	// KindPooledCut: a cutting plane accepted into the LPR cut pool
	// eliminates a feasible assignment. Pooled cuts must be implied by the
	// original problem alone — the pool outlives incumbents, so no
	// upper-bound assumption is admissible.
	KindPooledCut
)

func (k Kind) String() string {
	switch k {
	case KindLearnedClause:
		return "learned-clause"
	case KindBoundConflict:
		return "bound-conflict"
	case KindImportedClause:
		return "imported-clause"
	case KindIncumbent:
		return "incumbent"
	case KindTermination:
		return "termination"
	case KindPooledCut:
		return "pooled-cut"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Violation is one audited artifact that failed its replay.
type Violation struct {
	Kind Kind
	// Detail is a human-readable description of what broke.
	Detail string
	// Clause is the offending clause for the clause-shaped kinds (a copy).
	Clause []pb.Lit
	// Witness, when non-nil, is a full assignment demonstrating the
	// violation (a feasible solution the artifact wrongly excludes).
	Witness []bool
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s", v.Kind, v.Detail)
}

// Counts tallies audited events per artifact class.
type Counts struct {
	LearnedClauses  int64
	BoundConflicts  int64
	ImportedClauses int64
	Incumbents      int64
	Terminations    int64
	PooledCuts      int64
	// Skipped counts events whose exhaustive replay was skipped because the
	// instance exceeds MaxExhaustiveVars (incumbent checks are never
	// skipped).
	Skipped int64
}

// Report is the auditor's cumulative outcome.
type Report struct {
	Counts     Counts
	Violations []Violation
}

// Ok reports whether no violation was recorded.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// String renders a compact multi-line summary ("c audit: ..." friendly).
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "audited %d learned, %d bound conflicts, %d imports, %d incumbents, %d cuts, %d terminations (%d skipped)",
		r.Counts.LearnedClauses, r.Counts.BoundConflicts, r.Counts.ImportedClauses,
		r.Counts.Incumbents, r.Counts.PooledCuts, r.Counts.Terminations, r.Counts.Skipped)
	if r.Ok() {
		sb.WriteString("; no violations")
		return sb.String()
	}
	fmt.Fprintf(&sb, "; %d VIOLATIONS", len(r.Violations))
	for _, v := range r.Violations {
		sb.WriteString("\n  ")
		sb.WriteString(v.String())
	}
	return sb.String()
}

// Config tunes an Auditor.
type Config struct {
	// MaxExhaustiveVars gates the 2^n replay table (default 20 ≈ 1M rows,
	// ~9MB). Instances above the gate still get incumbent re-verification;
	// the exhaustive checks count as Skipped.
	MaxExhaustiveVars int
	// MaxViolations caps recorded violations (default 64); events past the
	// cap are still counted but their violations dropped — a single unsound
	// clause otherwise floods the report at every subsequent conflict.
	MaxViolations int
}

// DefaultMaxExhaustiveVars is the default replay-table gate.
const DefaultMaxExhaustiveVars = 20

const defaultMaxViolations = 64

// Auditor replays solver artifacts against one problem. Safe for concurrent
// use; all methods are no-ops on a nil receiver.
type Auditor struct {
	mu  sync.Mutex
	p   *pb.Problem
	ix  *verify.Index
	cfg Config

	// exhaustive is set when the replay table below was built. feas[m] and
	// cost[m] are feasibility and *internal* objective (CostOffset excluded)
	// of the assignment where variable v is true iff bit v of m is set.
	exhaustive bool
	feas       []bool
	cost       []int64

	rep Report
}

// New builds an auditor for p with default configuration.
func New(p *pb.Problem) *Auditor { return NewWith(p, Config{}) }

// NewWith builds an auditor for p with the given configuration.
func NewWith(p *pb.Problem, cfg Config) *Auditor {
	if cfg.MaxExhaustiveVars <= 0 {
		cfg.MaxExhaustiveVars = DefaultMaxExhaustiveVars
	}
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = defaultMaxViolations
	}
	a := &Auditor{p: p, ix: verify.NewIndex(p), cfg: cfg}
	if n := p.NumVars; n <= cfg.MaxExhaustiveVars && n < 31 {
		a.exhaustive = true
		size := 1 << n
		a.feas = make([]bool, size)
		a.cost = make([]int64, size)
		values := make([]bool, n)
		for m := 0; m < size; m++ {
			var c int64
			for v := 0; v < n; v++ {
				values[v] = m&(1<<v) != 0
				if values[v] {
					c += p.Cost[v]
				}
			}
			a.cost[m] = c
			a.feas[m] = p.Feasible(values)
		}
	}
	return a
}

// Snapshot returns a copy of the cumulative report.
func (a *Auditor) Snapshot() Report {
	if a == nil {
		return Report{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := a.rep
	rep.Violations = append([]Violation(nil), a.rep.Violations...)
	return rep
}

// Ok reports whether no violation has been recorded so far.
func (a *Auditor) Ok() bool {
	if a == nil {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rep.Ok()
}

func (a *Auditor) violate(v Violation) {
	if len(a.rep.Violations) < a.cfg.MaxViolations {
		a.rep.Violations = append(a.rep.Violations, v)
	}
}

// witness expands mask m into a full assignment slice.
func (a *Auditor) witness(m int) []bool {
	out := make([]bool, a.p.NumVars)
	for v := range out {
		out[v] = m&(1<<v) != 0
	}
	return out
}

// clauseSat reports whether the clause holds under assignment mask m.
func clauseSat(lits []pb.Lit, m int) bool {
	for _, l := range lits {
		if l.Eval(m&(1<<l.Var()) != 0) {
			return true
		}
	}
	return false
}

// satAdd adds without wrapping (bounds can be pb-space sentinels like
// bounds.InfBound; path is a real cost — their sum must not overflow into a
// vacuous comparison).
func satAdd(a, b int64) int64 {
	s := a + b
	if a > 0 && b > 0 && s < 0 {
		return math.MaxInt64
	}
	if a < 0 && b < 0 && s >= 0 {
		return math.MinInt64
	}
	return s
}

// LearnedClause audits one freshly learned clause. assumedUB is the weakest
// cost assumption the clause may rely on (the solver's current upper bound,
// further lowered by any sharing import — see core's assumedUB tracking);
// hasUB=false means the clause must be implied by the problem alone.
func (a *Auditor) LearnedClause(lits []pb.Lit, assumedUB int64, hasUB bool) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rep.Counts.LearnedClauses++
	a.checkClauseImplied(KindLearnedClause, lits, assumedUB, hasUB)
}

// ImportedClause audits one clause drained from the sharing board under the
// board's upper bound at import time.
func (a *Auditor) ImportedClause(lits []pb.Lit, boardUB int64, hasUB bool) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rep.Counts.ImportedClauses++
	a.checkClauseImplied(KindImportedClause, lits, boardUB, hasUB)
}

// PooledCut audits one cutting plane accepted into the LPR cut pool: every
// feasible assignment of the original problem must satisfy Σ terms ≥ degree,
// with no cost assumption whatsoever (the pool persists across incumbents
// and tightens every node LP, so a cut valid only under some upper bound
// would silently corrupt bounds for the rest of the run).
func (a *Auditor) PooledCut(terms []pb.Term, degree int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rep.Counts.PooledCuts++
	if !a.exhaustive {
		a.rep.Counts.Skipped++
		return
	}
	for m := range a.feas {
		if !a.feas[m] {
			continue
		}
		var lhs int64
		for _, t := range terms {
			if t.Lit.Eval(m&(1<<t.Lit.Var()) != 0) {
				lhs += t.Coef
			}
		}
		if lhs < degree {
			lits := make([]pb.Lit, len(terms))
			for i, t := range terms {
				lits[i] = t.Lit
			}
			a.violate(Violation{
				Kind: KindPooledCut,
				Detail: fmt.Sprintf("pooled cut %v >= %d eliminates feasible assignment (lhs=%d, internal cost %d)",
					terms, degree, lhs, a.cost[m]),
				Clause:  lits,
				Witness: a.witness(m),
			})
			return
		}
	}
}

// checkClauseImplied verifies that every feasible assignment strictly below
// the cost assumption satisfies the clause. Caller holds the lock.
func (a *Auditor) checkClauseImplied(kind Kind, lits []pb.Lit, ub int64, hasUB bool) {
	if !a.exhaustive {
		a.rep.Counts.Skipped++
		return
	}
	for m := range a.feas {
		if !a.feas[m] || (hasUB && a.cost[m] >= ub) {
			continue
		}
		if !clauseSat(lits, m) {
			detail := fmt.Sprintf("clause %s eliminates feasible assignment of internal cost %d",
				a.clauseString(lits), a.cost[m])
			if hasUB {
				detail += fmt.Sprintf(" (below the assumed upper bound %d)", ub)
			}
			a.violate(Violation{
				Kind:    kind,
				Detail:  detail,
				Clause:  append([]pb.Lit(nil), lits...),
				Witness: a.witness(m),
			})
			return
		}
	}
}

// BoundConflict audits one §4 bound conflict: assigned is the trail at the
// conflict, and the solver claims every feasible completion of it costs at
// least path + lower (internal objective space). lower may be a huge
// infeasibility sentinel (bounds.InfBound), in which case the claim is that
// no feasible completion exists at all.
func (a *Auditor) BoundConflict(assigned []pb.Lit, path, lower int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rep.Counts.BoundConflicts++
	if !a.exhaustive {
		a.rep.Counts.Skipped++
		return
	}
	claimed := satAdd(path, lower)
	// Completions of the trail: fixed bits from assigned literals, free bits
	// enumerated by sub-mask.
	fixedMask, fixedVal := 0, 0
	for _, l := range assigned {
		bit := 1 << l.Var()
		fixedMask |= bit
		if !l.IsNeg() {
			fixedVal |= bit
		}
	}
	var free []int
	for v := 0; v < a.p.NumVars; v++ {
		if fixedMask&(1<<v) == 0 {
			free = append(free, v)
		}
	}
	for sub := 0; sub < 1<<len(free); sub++ {
		m := fixedVal
		for i, v := range free {
			if sub&(1<<i) != 0 {
				m |= 1 << v
			}
		}
		if a.feas[m] && a.cost[m] < claimed {
			a.violate(Violation{
				Kind: KindBoundConflict,
				Detail: fmt.Sprintf("feasible completion of internal cost %d beats claimed bound path(%d)+lower(%d)",
					a.cost[m], path, lower),
				Witness: a.witness(m),
			})
			return
		}
	}
}

// Incumbent audits one adopted solution (local find, foreign adoption, or
// the terminal assignment): it must satisfy every original constraint and
// cost exactly the claimed external objective (CostOffset included). Never
// gated by instance size.
func (a *Auditor) Incumbent(externalCost int64, values []bool) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rep.Counts.Incumbents++
	if len(values) != a.p.NumVars {
		a.violate(Violation{
			Kind:   KindIncumbent,
			Detail: fmt.Sprintf("assignment has %d values, problem has %d variables", len(values), a.p.NumVars),
		})
		return
	}
	rep := verify.Check(a.p, values)
	if !rep.Feasible {
		a.violate(Violation{
			Kind:    KindIncumbent,
			Detail:  fmt.Sprintf("adopted incumbent violates constraint %d: %v", rep.ViolatedIdx, rep.Violated),
			Witness: append([]bool(nil), values...),
		})
		return
	}
	if rep.Objective != externalCost {
		a.violate(Violation{
			Kind:    KindIncumbent,
			Detail:  fmt.Sprintf("adopted incumbent costs %d, solver claims %d", rep.Objective, externalCost),
			Witness: append([]bool(nil), values...),
		})
	}
}

// Claim is a solver's terminal verdict, audited by Termination.
type Claim struct {
	// Optimal: the solver proved Best (external objective) optimal.
	Optimal bool
	// Satisfiable: objective-free instance proved satisfiable.
	Satisfiable bool
	// Unsat: the solver proved the constraints unsatisfiable.
	Unsat bool
	// UpperBound: a UB-only member (local search) claims Best is achieved by
	// some feasible assignment — an upper bound on the optimum, never an
	// exhaustion proof. Mutually exclusive with the verdicts above.
	UpperBound bool
	// Best is the claimed optimum (meaningful with Optimal) or achieved
	// upper bound (meaningful with UpperBound).
	Best int64
}

// Termination audits a terminal claim against the exhaustive reference.
// Inconclusive outcomes (limits, errors) carry no claim and should not be
// audited.
func (a *Auditor) Termination(c Claim) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rep.Counts.Terminations++
	if !a.exhaustive {
		a.rep.Counts.Skipped++
		return
	}
	feasible := false
	best := int64(math.MaxInt64)
	bestM := -1
	for m := range a.feas {
		if a.feas[m] && a.cost[m] < best {
			feasible = true
			best = a.cost[m]
			bestM = m
		}
	}
	switch {
	case c.Unsat && feasible:
		a.violate(Violation{
			Kind:    KindTermination,
			Detail:  fmt.Sprintf("claimed unsatisfiable, but a feasible assignment of internal cost %d exists", best),
			Witness: a.witness(bestM),
		})
	case (c.Optimal || c.Satisfiable) && !feasible:
		a.violate(Violation{
			Kind:   KindTermination,
			Detail: "claimed a solution, but the instance is infeasible",
		})
	case c.Optimal && feasible && c.Best != satAdd(best, a.p.CostOffset):
		a.violate(Violation{
			Kind: KindTermination,
			Detail: fmt.Sprintf("claimed optimum %d, exhaustive optimum is %d",
				c.Best, satAdd(best, a.p.CostOffset)),
			Witness: a.witness(bestM),
		})
	case c.UpperBound && !feasible:
		a.violate(Violation{
			Kind:   KindTermination,
			Detail: "claimed an upper bound, but the instance is infeasible",
		})
	case c.UpperBound && feasible && c.Best < satAdd(best, a.p.CostOffset):
		// An upper bound may exceed the optimum (local search is not a
		// proof) — but never undercut it: no feasible assignment achieves
		// a cost below the exhaustive minimum.
		a.violate(Violation{
			Kind: KindTermination,
			Detail: fmt.Sprintf("claimed achieved upper bound %d below the exhaustive optimum %d",
				c.Best, satAdd(best, a.p.CostOffset)),
			Witness: a.witness(bestM),
		})
	}
}

func (a *Auditor) clauseString(lits []pb.Lit) string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, l := range lits {
		if i > 0 {
			sb.WriteString(" ∨ ")
		}
		if l.IsNeg() {
			sb.WriteByte('¬')
		}
		sb.WriteString(a.p.VarName(l.Var()))
	}
	sb.WriteByte(')')
	return sb.String()
}
