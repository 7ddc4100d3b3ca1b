// Package bounds implements the three lower-bound estimation procedures the
// paper integrates into bsolo (§3): the maximum-independent-set-of-constraints
// approximation (MIS), linear-programming relaxation (LPR) and Lagrangian
// relaxation (LGR). All three operate on the *reduced problem* at a search
// node — the unsatisfied constraints with assigned literals substituted,
// restricted to unassigned variables — and return, alongside the numeric
// bound, the set of constraints responsible for it, from which the
// bound-conflict explanation ω_pl of §4 is assembled.
//
// Soundness note. Rather than trusting the floating-point LP objective
// directly, the LPR and LGR estimators recompute the bound from the dual
// multipliers restricted to the responsible set S via the Lagrangian formula
//
//	z_S = Σ_{i∈S} y_i·d_i + Σ_j min(0, c_j − Σ_{i∈S} y_i·G_ij)
//
// which is a valid lower bound for *any* y ≥ 0 (weak duality), so numerical
// error in the simplex can only weaken the bound, never unsound-ify the
// pruning or the learned explanation clause.
package bounds

import (
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/pb"
)

// Budget bounds a single estimation call. The zero value means "no limit".
// The search derives a per-node budget from its remaining wall-clock
// allowance and threads it into the LP simplex (lp.Problem.Deadline) and the
// LGR subgradient loop, so a cycling LP or a slowly converging ascent cannot
// eat the whole node (let alone run) budget.
type Budget struct {
	// Deadline, when non-zero, is the wall-clock point at which the
	// estimator must return with whatever (sound, possibly weaker) bound it
	// has accumulated.
	Deadline time.Time
	// Cancel, when non-nil, aborts the estimation as soon as the channel is
	// closed (the search is being cancelled; any bound is fine).
	Cancel <-chan struct{}
	// Interrupt, when non-nil, is consulted on *every* Expired call (it is
	// required to be cheap — the portfolio wires an atomic board load);
	// returning true ends the estimation early with its best-so-far (sound)
	// bound, marked Incomplete. The cooperative portfolio wires this to "a
	// foreign incumbent arrived below the bound target": the target this
	// estimation was asked to beat just dropped, so finishing the full
	// computation is wasted work — return, let the search adopt the tighter
	// upper bound, and re-check the prune.
	Interrupt func() bool

	// polls amortizes the cost of the wall-clock check only: the system
	// clock is consulted every budgetPollStride-th call (and on the first),
	// keeping time.Now off the profiles of tight estimator loops. expired
	// latches the verdict.
	polls   uint32
	expired bool
}

// budgetPollStride is how many Expired calls share one real clock
// consultation. Estimator loops may therefore overshoot their *deadline* by
// up to stride−1 iterations — microseconds, far below the budget's
// granularity. Interrupt and Cancel are exempt from the stride: both are a
// single atomic load / non-blocking channel receive, and their signals are
// latency-sensitive (a foreign incumbent should stop an in-flight
// estimation on the very next poll, not up to stride−1 calls later — a lag
// the sharing benchmarks could actually observe; see TestBudgetInterrupt
// DetectionLag).
const budgetPollStride = 8

// Expired reports whether the budget is exhausted. Interrupt and Cancel are
// checked immediately on every call (worst-case detection lag: zero calls);
// only the time.Now deadline check is amortized behind budgetPollStride.
// Once expired, the result is sticky.
func (b *Budget) Expired() bool {
	if b.expired {
		return true
	}
	if b.Interrupt != nil && b.Interrupt() {
		b.expired = true
		return true
	}
	if b.Cancel != nil {
		select {
		case <-b.Cancel:
			b.expired = true
			return true
		default:
		}
	}
	if b.Deadline.IsZero() {
		return false
	}
	b.polls++
	if b.polls&(budgetPollStride-1) != 1 {
		return false
	}
	if time.Now().After(b.Deadline) {
		b.expired = true
		return true
	}
	return false
}

// InfBound is the bound value returned when the reduced problem is detected
// infeasible (the search node admits no completion at all). It is large
// enough to trigger any bound conflict yet far from int64 overflow.
const InfBound int64 = math.MaxInt64 / 4

// Row is one reduced constraint: Σ Terms ≥ Degree over unassigned variables
// only, with coefficients clipped to the residual degree.
type Row struct {
	// EngIdx is the index of the originating constraint in the engine store,
	// used to assemble the ω_pl explanation.
	EngIdx int
	Terms  []pb.Term
	Degree int64
}

// Reduced is the reduced problem at a search node.
type Reduced struct {
	Rows []Row
	// Infeasible is set when some residual constraint cannot be satisfied
	// even with all its unassigned literals true. (Propagation normally
	// detects this first; the flag guards the window between a decision and
	// the next propagation fixpoint.)
	Infeasible bool
	// InfeasibleRow is the engine index of the witnessing constraint.
	InfeasibleRow int
}

// Extract builds the reduced problem from the engine's current assignment.
// Only problem (non-learned) constraints participate: learned bound clauses
// and incumbent cuts depend on the current upper bound and would make the
// explanation circular.
func Extract(e *engine.Engine) *Reduced {
	red := &Reduced{}
	e.UnsatisfiedCons(func(idx int, c engine.Cons, residual int64) {
		row := Row{EngIdx: idx, Degree: residual}
		var sum int64
		for k, l := range c.Lits {
			if e.LitValue(l) != engine.Unassigned {
				continue
			}
			coef := c.Coefs[k]
			if coef > residual {
				coef = residual
			}
			row.Terms = append(row.Terms, pb.Term{Coef: coef, Lit: l})
			sum += coef
		}
		if sum < residual && !red.Infeasible {
			red.Infeasible = true
			red.InfeasibleRow = idx
		}
		red.Rows = append(red.Rows, row)
	})
	return red
}

// Result is the outcome of a lower-bound estimation.
type Result struct {
	// Bound is a valid lower bound on the cost of any completion of the
	// current partial assignment restricted to unassigned variables
	// (0 when nothing can be inferred; InfBound when the node is hopeless).
	Bound int64
	// Responsible lists the engine constraint indices whose current false
	// literals explain the bound (the set S of §4.2/§4.3).
	Responsible []int
	// ResponsibleLits lists currently-false literals that explain the bound
	// directly, without an engine constraint to point at: the false literals
	// of pooled cutting planes whose rows carry the LP bound. Cuts are valid
	// for the original problem, so any node keeping these literals false
	// keeps the cut's contribution — exactly the ω_pl contract, with the
	// cut's own literals standing in for a constraint's.
	ResponsibleLits []pb.Lit
	// ExcludedVars, when non-nil, lists assigned variables that the §4.3
	// α-filter proves irrelevant: their false literals may be dropped from
	// ω_pl even though they appear in responsible constraints.
	ExcludedVars map[pb.Var]bool
	// FracX, when non-nil, lists the unassigned variables with their
	// LP-relaxation values, in x-space order; the §5 LP-guided branching
	// heuristic selects the variable closest to 0.5.
	FracX []FracVar
	// Failed reports that the procedure failed outright (numerical
	// corruption, solver error): Bound is zero and Responsible is empty.
	// The search's fallback ladder reacts by re-estimating with a cheaper
	// procedure and, after enough consecutive failures, demoting the
	// configured method for the rest of the run.
	Failed bool
	// Incomplete reports that the procedure hit its iteration or wall-clock
	// budget: Bound is still sound, merely weaker than the converged value.
	Incomplete bool
}

// FracVar is one unassigned variable's value in the LP relaxation.
type FracVar struct {
	Var pb.Var
	X   float64
}

// Estimator is a lower-bound procedure (§3.1–§3.2, or the MIS of [5,9]).
type Estimator interface {
	// Estimate returns a lower bound for the reduced problem. cost is the
	// global per-variable cost vector; only unassigned variables matter.
	// target is the bound that would suffice to prune (upper − path);
	// iterative estimators may stop early once they reach it. bud bounds
	// the call's wall-clock cost (Budget{} = unlimited); on expiry the
	// estimator returns its best-so-far bound with Incomplete set.
	Estimate(e *engine.Engine, red *Reduced, cost []int64, target int64, bud Budget) Result
	// Name identifies the estimator in logs and stats.
	Name() string
}

// litCost returns the cost of making literal l true: the variable's cost for
// a positive literal (x=1 pays c), zero for a negative one (x=0 is free).
func litCost(cost []int64, l pb.Lit) int64 {
	if l.IsNeg() {
		return 0
	}
	return cost[l.Var()]
}

// ceilRelEps scales the rounding tolerance of ceilBound with the bound's
// magnitude. Floating error in the simplex / subgradient recomputation is
// *relative*: at |v| ≈ 1e12 one ULP is ≈ 1.2e-4, far above the historical
// fixed 1e-6 slack, so `Ceil(v − 1e-6)` could round an accumulated-noise
// value like 1e12 + 3e-4 UP to 1e12+1 — an unsound over-round that prunes a
// node whose true bound is 1e12. A relative component can only weaken the
// bound (sound direction) while absorbing magnitude-proportional noise.
const ceilRelEps = 1e-9

// ceilBound converts a floating lower bound into a sound integer bound:
// any value within numeric noise below an integer rounds to that integer,
// where "noise" scales with |v| (see ceilRelEps). Corrupted values (NaN —
// e.g. from an injected or genuine numerical failure upstream) degrade to
// the trivial bound 0, never to garbage: int64(NaN) is platform-defined in
// Go and must not reach the pruning test.
func ceilBound(v float64) int64 {
	if math.IsNaN(v) || v <= 0 {
		return 0
	}
	if v >= float64(InfBound) {
		return InfBound
	}
	b := int64(math.Ceil(v - (1e-6 + v*ceilRelEps)))
	if b < 0 {
		return 0
	}
	return b
}

// completionCap evaluates a candidate completion of the reduced problem in
// exact integer arithmetic: if the candidate (xTrue per unassigned variable;
// variables outside the map take 0, their cheapest polarity) satisfies every
// reduced row, it returns the completion's cost and true.
//
// LPR and LGR feed the Lagrangian minimizer x_j = 1 ⇔ α_j < 0 through this:
// when that x happens to be feasible, weak duality guarantees the true bound
// is ≤ its cost, so a *rounded* bound exceeding it is a provable over-round
// (float noise) and is clamped — a known feasible completion's cost is a
// ceiling no sound lower bound may pierce.
func completionCap(red *Reduced, cost []int64, xTrue map[pb.Var]bool) (int64, bool) {
	for _, row := range red.Rows {
		var lhs int64
		for _, t := range row.Terms {
			if t.Lit.Eval(xTrue[t.Lit.Var()]) {
				lhs += t.Coef
			}
		}
		if lhs < row.Degree {
			return 0, false
		}
	}
	var c int64
	for v, tv := range xTrue {
		if tv {
			c += cost[v]
		}
	}
	return c, true
}

// capToCompletion clamps a rounded bound to the Lagrangian minimizer's cost
// when that minimizer is a feasible completion (see completionCap). alpha is
// indexed like xp.vars; the candidate is built in xp's scratch map.
func capToCompletion(bound int64, xp *xProblem, red *Reduced, cost []int64, alpha []float64) int64 {
	if bound <= 0 || bound >= InfBound || alpha == nil {
		return bound
	}
	if xp.xTrue == nil {
		xp.xTrue = make(map[pb.Var]bool, len(xp.vars))
	}
	clear(xp.xTrue)
	for j, v := range xp.vars {
		xp.xTrue[v] = alpha[j] < 0
	}
	if c, ok := completionCap(red, cost, xp.xTrue); ok && bound > c {
		return c
	}
	return bound
}

// None is the "plain" configuration: no lower bound estimation (the paper's
// bsolo-plain column). It always returns a zero bound.
type None struct{}

// Name implements Estimator.
func (None) Name() string { return "plain" }

// Estimate implements Estimator: no information.
func (None) Estimate(e *engine.Engine, red *Reduced, cost []int64, target int64, bud Budget) Result {
	if red.Infeasible {
		return Result{Bound: InfBound, Responsible: allRows(red)}
	}
	return Result{}
}

func allRows(red *Reduced) []int {
	out := make([]int, len(red.Rows))
	for i, r := range red.Rows {
		out[i] = r.EngIdx
	}
	return out
}
