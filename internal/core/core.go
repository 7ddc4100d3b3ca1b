// Package core implements bsolo, the paper's pseudo-Boolean optimizer: a
// branch-and-bound search built on a SAT-style engine (boolean constraint
// propagation, conflict-based learning, non-chronological backtracking),
// extended with
//
//   - lower bound estimation at every search node (§3): plain (none), MIS,
//     linear-programming relaxation, or Lagrangian relaxation;
//   - bound-based conflicts (§4): when path + lower ≥ upper, the clause
//     ω_bc = ω_pp ∪ ω_pl is built from the assignments responsible for the
//     path cost and for the lower bound, and analyzed like an ordinary
//     conflict, enabling non-chronological backtracking;
//   - the additional techniques of §5: LP-guided branching, the incumbent
//     knapsack constraint (eq. 10) and cardinality-based cost inference
//     (eqs. 11–13).
//
// The same search loop, run with StrategyLinearSearch, reproduces the
// SAT-based linear search on the cost function used by PBS and Galena
// (§3, [2,4]): each solution adds the constraint cost ≤ upper−1 and search
// restarts, until unsatisfiability proves the last solution optimal.
package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/bounds"
	"repro/internal/cuts"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pb"
)

// Method selects the lower bound estimation procedure (§3).
type Method int

const (
	// LBNone disables lower bounding (the paper's "plain" column).
	LBNone Method = iota
	// LBMIS uses the maximum-independent-set approximation.
	LBMIS
	// LBLGR uses Lagrangian relaxation.
	LBLGR
	// LBLPR uses linear-programming relaxation.
	LBLPR
)

func (m Method) String() string {
	switch m {
	case LBNone:
		return "plain"
	case LBMIS:
		return "mis"
	case LBLGR:
		return "lgr"
	default:
		return "lpr"
	}
}

// Strategy selects the overall search organization.
type Strategy int

const (
	// StrategyBranchBound is bsolo's branch-and-bound: solutions update the
	// incumbent in-place and search continues from a bound conflict.
	StrategyBranchBound Strategy = iota
	// StrategyLinearSearch is the PBS/Galena organization: each solution
	// adds cost ≤ upper−1 and the search restarts from the root.
	StrategyLinearSearch
)

// Options configures a solve. The zero value is bsolo-plain with no limits.
type Options struct {
	LowerBound Method
	Strategy   Strategy

	// MaxConflicts bounds the total number of conflicts (BCP + bound);
	// 0 means unlimited.
	MaxConflicts int64
	// MaxDecisions bounds the number of decisions; 0 means unlimited.
	MaxDecisions int64
	// Deadline is the absolute wall-clock time at which the search stops
	// (StatusLimit with the best incumbent); the zero value means none. The
	// entry point sets it once, so every layer and portfolio member under it
	// shares the same clock.
	Deadline time.Time

	// CardinalityInference enables the eq. 11–13 inference on new
	// incumbents.
	CardinalityInference bool

	// Tuning holds the ablation and tuning switches. It is one value so a
	// front end (CLI, harness, portfolio member) hands it on in one
	// assignment instead of copying the switches one by one.
	Tuning

	// RestartBase is the Luby restart unit in conflicts (default 128;
	// 0 uses the default, negative disables restarts).
	RestartBase int

	// OnIncumbent, when non-nil, is invoked with the objective value
	// (including CostOffset) each time a better solution is found —
	// matching the "ub" progress reporting of the paper's Table 1.
	OnIncumbent func(best int64)

	// Cancel, when non-nil, aborts the search (StatusLimit with the best
	// incumbent) as soon as the channel is closed. Used by the portfolio
	// driver to stop the losing configurations and by the CLI's signal
	// handler. The channel is polled between nodes and, via the engine's
	// Interrupt hook, inside long propagation fixpoints.
	Cancel <-chan struct{}

	// Share, when non-nil, connects this solve to a cooperative-portfolio
	// board (see Sharer): incumbents are published and adopted, learned
	// clauses exchanged, and bound estimations interrupted by foreign upper
	// bounds. nil (the default) is the fully isolated — and deterministic —
	// mode.
	Share Sharer

	// Audit, when non-nil, replays every soundness-critical artifact of the
	// search — learned clauses, §4 bound conflicts, sharing imports, adopted
	// incumbents and the terminal claim — against the original problem
	// (see internal/audit). Violations are recorded in the auditor's Report,
	// never panicked on. Expensive (exhaustive replay per event on small
	// instances): meant for the differential fuzzer, `bsolo -audit`, and
	// debugging, not production solves. One auditor may be shared by every
	// member of a portfolio (it locks internally). nil = zero overhead.
	Audit *audit.Auditor

	// Trace, when non-nil, receives structured search lifecycle events
	// (restarts, ReduceDB, bound estimations with method/value/outcome,
	// prunes, bound conflicts, incumbent updates, sharing traffic,
	// fallback-ladder demotions) into a bounded ring; see internal/obs.
	// nil (the default) is zero cost: every emission site is one nil check.
	// Portfolio members receive Named handles of one shared tracer.
	Trace *obs.Tracer

	// Live, when non-nil, receives complete, internally consistent metrics
	// snapshots (the unified obs schema) at solver checkpoints — every
	// 16th node at a ≥50ms cadence, plus one terminal publish carrying the
	// verdict. Concurrent scrapers (the -debug-addr endpoint) read through
	// one atomic pointer, so they can never observe a torn counter block
	// while the search mutates its stats. nil (the default) is zero cost.
	Live *obs.Live

	// Seed seeds the engine's explicit RNG; meaningful only with a positive
	// RandomBranchFreq. Runs are reproducible for a fixed (Seed,
	// RandomBranchFreq) pair — the engine contains no other randomness, and
	// portfolio members receive explicit per-member seeds so repeated runs
	// are deterministic across processes.
	Seed int64
	// RandomBranchFreq is the probability that a decision branches on a
	// random unassigned variable instead of the VSIDS maximum (portfolio
	// diversification). 0 (the default) disables randomization entirely.
	RandomBranchFreq float64

	// Assumptions are literals the search must satisfy on top of the
	// problem's constraints. They are placed as decisions, in order, before
	// any real branching, and re-placed after every backjump that unassigns
	// them — so whenever the search branches, every assumption already holds.
	// If the constraints entail the negation of some assumption, Solve
	// returns StatusUnsat with Result.FailedAssumptions carrying an unsat
	// core: a subset of the assumptions that is jointly contradictory with
	// the constraints (engine.AnalyzeFinal). StatusUnsat with an empty
	// FailedAssumptions means the constraints alone are unsatisfiable.
	//
	// Assumption solving is meant for feasibility queries (the core-guided
	// WBO loop in internal/wbo): combining Assumptions with an objective is
	// supported but a proved optimum is then "optimal under the assumptions",
	// and the terminal audit claim is suppressed for assumption-relative
	// UNSAT answers because they are not claims about the bare problem.
	Assumptions []pb.Lit
}

// Tuning is the set of ablation and tuning switches of a solve: everything
// that changes how the search works but not what it is limited by or which
// portfolio member it is. The zero value is the default bsolo
// configuration.
type Tuning struct {
	// ChronologicalBounds disables §4's conflict analysis on bound
	// conflicts: the explanation degrades to the full set of decision
	// assignments, forcing chronological backtracking (ablation A1).
	ChronologicalBounds bool
	// NoLPBranching disables the §5 branching heuristic (branch on the LP
	// variable closest to 0.5) even when LowerBound is LBLPR.
	NoLPBranching bool
	// NoKnapsackCuts disables the eq. 10 incumbent constraint.
	NoKnapsackCuts bool
	// NoLPIncumbent restores the paper's use of the LPR point, which only
	// picks the branching variable (§5). By default an LPR run also solves
	// the root LP before the first incumbent and turns LP points into
	// verified incumbents: the root point rounded at 0.5, and an integral
	// point at any node. Kept for ablation A8.
	NoLPIncumbent bool

	// LGRIterations bounds subgradient iterations per bound call
	// (default 50; ablation A5).
	LGRIterations int
	// LGRColdStart disables the greedy dual-ascent warm start of the
	// Lagrangian multipliers, leaving the plain subgradient scheme of the
	// paper's reference [12] — whose slow convergence the paper reports
	// (ablation A5).
	LGRColdStart bool

	// PBLearning additionally derives a cutting-plane (pseudo-Boolean)
	// constraint at every conflict, Galena-style [4], alongside the 1UIP
	// clause: the clause drives the backjump, the cutting plane adds
	// pruning power. At most 20,000 such constraints are retained
	// (maxPBLearned); beyond that only clauses are learned.
	PBLearning bool

	// NoCuts disables cutting-plane separation for LBLPR: node LPs are
	// solved over the reduced rows alone, with no pool. Cuts are on by
	// default for LBLPR (mirroring warm starts); the flag exists for
	// ablation and differential testing — cuts tighten bounds but never
	// change optima (every pooled cut is implied by the problem; the
	// auditor's PooledCut hook replays that claim).
	NoCuts bool
}

// Status reports how a solve ended.
type Status int

const (
	// StatusOptimal: an optimal solution was found and proved.
	StatusOptimal Status = iota
	// StatusSatisfiable: the instance has no objective and a satisfying
	// assignment was found.
	StatusSatisfiable
	// StatusUnsat: the constraints are unsatisfiable.
	StatusUnsat
	// StatusLimit: a budget expired; Result carries the best incumbent.
	StatusLimit
	// StatusError: the solve crashed (a panic was recovered by SafeSolve);
	// Result.Err carries the panic value and stack. A portfolio member
	// ending in StatusError degrades the race instead of aborting it.
	StatusError
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusSatisfiable:
		return "satisfiable"
	case StatusUnsat:
		return "unsatisfiable"
	case StatusError:
		return "error"
	default:
		return "limit"
	}
}

// Result is the outcome of Solve.
type Result struct {
	Status Status
	// HasSolution reports whether any feasible assignment was found.
	HasSolution bool
	// Best is the objective value (including the problem's CostOffset) of
	// the best solution found; only meaningful when HasSolution.
	Best int64
	// Values is the best assignment (length NumVars).
	Values []bool
	Stats  Stats
	// Err is set with StatusError: the recovered panic value and stack of a
	// crashed solve (see SafeSolve).
	Err error
	// FailedAssumptions, set only with StatusUnsat under Options.Assumptions,
	// is an unsat core: a subset of the assumptions jointly contradictory
	// with the constraints. Empty with StatusUnsat means the constraints are
	// unsatisfiable on their own (hard UNSAT).
	FailedAssumptions []pb.Lit
}

const upperInf = int64(math.MaxInt64 / 2)

// maxPBLearned caps how many cutting-plane constraints PBLearning retains.
// A variable, not a constant, so a test can lower it.
var maxPBLearned int64 = 20000

// fallbackAfter is the circuit-breaker threshold: after this many
// consecutive *failed* primary bound calls (panics or numerical failures)
// the solver demotes LowerBound to MIS for the remainder of the run.
// Individual failed calls always fall back to MIS for that node regardless
// of the breaker state. A variable, not a constant, so a test can lower it.
var fallbackAfter = 8

type solver struct {
	prob *pb.Problem
	opt  Options
	eng  *engine.Engine
	est  bounds.Estimator
	// fallback is the cheaper rung of the lower-bound ladder (MIS when the
	// primary is LPR/LGR; nil otherwise). consecFails counts consecutive
	// failed primary calls toward the fallbackAfter circuit breaker.
	fallback    bounds.Estimator
	consecFails int

	// reducer is the persistent incremental reduced-problem builder (nil
	// with LBNone, which never reduces).
	reducer *bounds.Reducer
	// lprState carries the LP warm-start basis between LPR calls (nil
	// unless LowerBound is LBLPR, and after a demotion). Each solve
	// owns a fresh one, so its counters are this solve's own; its LP
	// buffers are borrowed from a pool and released when the solve ends.
	lprState *bounds.LPRState
	// cutPool is the managed cut store threaded into LPR (nil unless
	// LowerBound is LBLPR and cuts are enabled). One pool per solve: pooled
	// cuts are derived from THIS problem's rows and must not leak across
	// instances.
	cutPool *cuts.Pool
	// bstats aggregates the bound pipeline's observability (surfaced as
	// Stats.Bounds). lastEst names the estimator whose result the last
	// estimate() call returned, for per-estimator prune attribution.
	bstats  obs.BoundsStats
	lastEst string

	upper    int64 // best objective found so far, excluding CostOffset
	bestVals []bool
	// rootLPDone records that the root LP before the first incumbent has
	// run (see boundNode).
	rootLPDone bool
	// upperForeign marks an incumbent adopted from the sharing board (reset
	// whenever a locally found solution takes over); prunes under a foreign
	// incumbent are attributed to sharing in the stats.
	upperForeign bool

	stats        Stats
	expired      bool  // sticky: deadline passed or Cancel closed
	lastPropSeen int64 // engine propagation count at the last wall-clock check
	nodeCounter  int
	restartIdx   int64
	conflictsCur int64 // conflicts since last restart
	lastReduceAt int64 // learnedRows at the last ReduceDB
	// incumbentRows counts the eq. 10/13 rows installed: learned rows that
	// the engine's Stats.Learned leaves out but the ReduceDB schedule counts.
	incumbentRows int64

	// cardSets are the eq. 11–13 cardinality sets, chosen at the first
	// incumbent (prepareCardSets); costTerms is the sorted eq. 10 row that
	// the eq. 10 and eq. 13 rows are built from (costOrder).
	cardSets  []cardSet
	costTerms []pb.Term

	// knapCut is the engine index of the eq. 10 incumbent constraint
	// (created at the first incumbent, tightened in place afterwards;
	// -1 until created). cardCutIdx likewise for the eq. 13 cuts. These are
	// the only learned-row indices held outside the engine, so maybeRestart
	// maps them through each ReduceDB's renumbering.
	knapCut    int
	cardCutIdx []int

	// aud is the optional invariant auditor (Options.Audit; nil = off).
	// minImportUB tracks the weakest cost assumption any sharing import may
	// have carried (the board UB at the time of each drain): clauses learned
	// after an import are implied by problem ∧ cost < min(upper, minImportUB),
	// which is the bound the auditor replays them under. Maintained only when
	// auditing.
	aud         *audit.Auditor
	minImportUB int64

	// trace is the structured event sink (Options.Trace; nil = disabled —
	// every emit is one nil check inside obs.Tracer). lastLive throttles
	// live metrics publishes to the liveInterval cadence.
	trace    *obs.Tracer
	lastLive time.Time
}

// liveInterval is the minimum spacing between mid-run live metrics
// publishes (each publish deep-copies the stats block; 50ms keeps that off
// hot profiles while staying far below human scrape granularity).
const liveInterval = 50 * time.Millisecond

type cardSet struct {
	inK []bool // per variable
	v   int64  // sum of the U smallest costs within K
	// sumOutside is Σ c_j over j ∉ K (the eq. 13 left-hand side total).
	sumOutside int64
}

// Solve runs the configured search on p and returns the result. The input
// problem is not modified.
//
// Solve does not recover panics; callers that must survive a crashing
// configuration (the portfolio, the harness, cmd/bsolo) should use SafeSolve.
func Solve(p *pb.Problem, opt Options) Result {
	// fault point "core.solve", keyed by the lower-bound method: lets tests
	// crash one portfolio member while the others race on.
	fault.Fire("core.solve", opt.LowerBound.String())
	// Refuse instances whose achievable objective can reach the engine's
	// sentinel values (upperInf, bounds.InfBound): on such inputs the "no
	// incumbent yet" state is indistinguishable from a real upper bound and
	// the search prunes every feasible solution into a wrong UNSAT (found by
	// the differential fuzzer; see pb.MaxObjective and testdata/fuzz-corpus).
	// pb.Validate — called by opb.Parse — rejects these at the input layer;
	// this guard turns a bypassing caller's silent unsoundness into a loud
	// error.
	if tc := p.TotalCost(); tc > pb.MaxObjective {
		return Result{Status: StatusError,
			Err: fmt.Errorf("core: worst-case objective %d exceeds solver headroom %d: %w",
				tc, pb.MaxObjective, pb.ErrOverflow)}
	}
	s := &solver{prob: p, opt: opt, upper: upperInf, knapCut: -1,
		aud: opt.Audit, minImportUB: upperInf, trace: opt.Trace}
	s.trace.Emit(obs.EvSolveStart, opt.LowerBound.String(), int64(p.NumVars), int64(len(p.Constraints)), "")
	switch opt.LowerBound {
	case LBMIS:
		s.est = bounds.MIS{}
	case LBLGR:
		s.est = bounds.LGR{Iterations: opt.LGRIterations, WarmStart: !opt.LGRColdStart}
		s.fallback = bounds.MIS{}
	case LBLPR:
		s.lprState = &bounds.LPRState{}
		if !opt.NoCuts {
			s.cutPool = cuts.NewPool()
			// Every cut accepted into the pool is observable (trace) and
			// replayable (audit): the pool feeds every subsequent node LP, so
			// an invalid cut here corrupts the whole run — exactly what the
			// auditor's PooledCut hook exists to catch.
			s.cutPool.OnAdd = func(terms []pb.Term, degree int64) {
				s.trace.Emit(obs.EvCut, "cut", int64(len(terms)), degree, "")
				if s.aud != nil {
					s.aud.PooledCut(terms, degree)
				}
			}
		}
		s.est = bounds.LPR{State: s.lprState, Cuts: s.cutPool}
		s.fallback = bounds.MIS{}
	default:
		s.est = bounds.None{}
	}
	s.eng = engine.New(p)
	if opt.RandomBranchFreq > 0 {
		seed := opt.Seed
		if seed == 0 {
			seed = 1 // explicit default: randomized runs stay reproducible
		}
		s.eng.SeedRandom(seed, opt.RandomBranchFreq)
	}
	if opt.LowerBound != LBNone {
		// Persistent incremental reduction: track satisfaction transitions
		// from the trail instead of re-scanning the constraint store at every
		// node. Attached after engine.New so the initial resync sees the full
		// problem.
		s.reducer = bounds.NewReducer(s.eng)
	}
	if !opt.Deadline.IsZero() || opt.Cancel != nil {
		// Reach propagation-heavy nodes: the engine polls this inside long
		// BCP fixpoints, so a single huge propagation cascade cannot
		// overshoot the deadline by seconds.
		s.eng.Interrupt = s.timeUp
	}
	res := s.search()
	// The reducer's and the LP's buffers go back to their pools for the next
	// solve; the warm/cold counters stay with the state for the stats below.
	if s.reducer != nil {
		s.reducer.Release()
	}
	s.lprState.Release()
	// Single-point stats assembly: every terminal path (optimal, unsat,
	// deadline, SIGINT/Cancel) and every live publish goes through the one
	// snapshot function, so consumers never see counters mixed across
	// assembly points.
	res.Stats = s.snapshotStats()
	s.publishFinal(&res)
	var traceBest int64
	if res.HasSolution {
		traceBest = res.Best
	}
	s.trace.Emit(obs.EvSolveEnd, s.opt.LowerBound.String(), traceBest, 0, res.Status.String())
	s.auditTermination(res)
	// Last: the engine's arrays go back to its pool, and the engine keeps
	// only its counters.
	s.eng.Release()
	return res
}

// snapshotStats assembles one complete, internally consistent Stats value:
// the solver-side counters, a deep copy of the bound-pipeline block (so the
// caller's copy is frozen while the search keeps recording), the LP
// warm-start counters, and the engine counters — all read at a single point
// from the solver's own goroutine. Both the terminal Result and every live
// metrics publish use this; nothing else reads s.eng.Stats piecemeal.
func (s *solver) snapshotStats() Stats {
	st := s.stats
	bs := s.bstats.Clone()
	if s.lprState != nil {
		bs.WarmSolves = s.lprState.WarmSolves()
		bs.ColdSolves = s.lprState.ColdSolves()
		bs.WarmFallbacks = s.lprState.WarmFallbacks()
	}
	if s.cutPool != nil {
		bs.Cuts = s.cutPool.Counters()
	}
	st.Bounds = bs
	es := s.eng.Stats
	st.Decisions = es.Decisions
	st.Conflicts = es.Conflicts
	st.Propagations = es.Propagations
	st.LearnedClauses = es.Learned
	st.ImportedClauses = es.Imported
	st.RandomDecisions = es.RandomDecisions
	return st
}

// --- invariant-auditor hooks (all no-ops when Options.Audit is nil) ---

// auditLearnt replays a just-learned clause: implied by
// problem ∧ cost < min(upper, weakest import assumption).
func (s *solver) auditLearnt(lits []pb.Lit) {
	if s.aud == nil {
		return
	}
	ub := s.upper
	if s.minImportUB < ub {
		ub = s.minImportUB
	}
	s.aud.LearnedClause(lits, ub, ub < upperInf)
}

// auditBound replays a §4 bound conflict's claim — every feasible completion
// of the current trail costs ≥ path + lower — before the trail is unwound by
// the backjump.
func (s *solver) auditBound(path, lower int64) {
	if s.aud == nil {
		return
	}
	trail := make([]pb.Lit, s.eng.TrailSize())
	for i := range trail {
		trail[i] = s.eng.TrailLit(i)
	}
	s.aud.BoundConflict(trail, path, lower)
}

// auditIncumbent re-verifies the currently adopted solution (local or
// foreign) against the original constraints.
func (s *solver) auditIncumbent() {
	if s.aud == nil || s.bestVals == nil {
		return
	}
	s.aud.Incumbent(s.upper+s.prob.CostOffset, s.bestVals)
}

// auditTermination replays the terminal claim (inconclusive outcomes carry
// no claim).
func (s *solver) auditTermination(res Result) {
	if s.aud == nil {
		return
	}
	switch res.Status {
	case StatusOptimal:
		// An optimum under assumptions is only optimal for the restricted
		// space; claim no more than the (still valid) upper bound.
		if len(s.opt.Assumptions) > 0 {
			s.aud.Termination(audit.Claim{UpperBound: true, Best: res.Best})
			return
		}
		s.aud.Termination(audit.Claim{Optimal: true, Best: res.Best})
	case StatusSatisfiable:
		s.aud.Termination(audit.Claim{Satisfiable: true})
	case StatusUnsat:
		// UNSAT relative to Options.Assumptions is not a claim about the
		// bare problem (which may well be satisfiable) — only hard UNSAT
		// (empty core) is replayed against the auditor's problem.
		if len(res.FailedAssumptions) == 0 {
			s.aud.Termination(audit.Claim{Unsat: true})
		}
	}
}

// SafeSolve is Solve behind a panic barrier: a crash anywhere in the search
// (a genuine bug, or an injected fault that escaped the bound-level
// recovery) is converted into a StatusError result carrying the panic value
// and stack instead of tearing down the process. The portfolio driver and
// the benchmark harness run every configuration through this wrapper so one
// crashing config degrades the race rather than aborting it.
func SafeSolve(p *pb.Problem, opt Options) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{
				Status: StatusError,
				Err:    fmt.Errorf("core: solve panicked: %v\n%s", r, debug.Stack()),
			}
		}
	}()
	return Solve(p, opt)
}

func (s *solver) pathCost() int64 {
	var c int64
	for i := 0; i < s.eng.TrailSize(); i++ {
		l := s.eng.TrailLit(i)
		if !l.IsNeg() {
			c += s.prob.Cost[l.Var()]
		}
	}
	return c
}

// timeUp checks the wall-clock deadline and the Cancel channel; the result
// is sticky. It doubles as the engine's mid-propagation Interrupt hook.
func (s *solver) timeUp() bool {
	if s.expired {
		return true
	}
	if !s.opt.Deadline.IsZero() && time.Now().After(s.opt.Deadline) {
		s.expired = true
		return true
	}
	if s.opt.Cancel != nil {
		select {
		case <-s.opt.Cancel:
			s.expired = true
			return true
		default:
		}
	}
	return false
}

func (s *solver) budgetExpired() bool {
	if s.expired {
		return true
	}
	if s.opt.MaxConflicts > 0 && s.stats.BoundConflicts+s.eng.Stats.Conflicts >= s.opt.MaxConflicts {
		return true
	}
	if s.opt.MaxDecisions > 0 && s.eng.Stats.Decisions >= s.opt.MaxDecisions {
		return true
	}
	if s.opt.Deadline.IsZero() && s.opt.Cancel == nil && s.opt.Live == nil {
		return false
	}
	// Wall-clock / cancellation granularity: consult the clock every 16
	// nodes, and additionally whenever propagation has advanced far since
	// the last check — so propagation-heavy nodes cannot ride a cheap node
	// counter past the deadline. (The engine Interrupt hook covers a single
	// huge fixpoint; this covers many medium ones.) Live metrics publishes
	// piggyback on the same checkpoint so unlimited runs remain inspectable
	// without adding a second clock site.
	if s.nodeCounter%16 == 0 || s.eng.Stats.Propagations-s.lastPropSeen >= 2048 {
		s.lastPropSeen = s.eng.Stats.Propagations
		s.publishLive()
		return s.timeUp()
	}
	return false
}

// boundBudget derives the wall-clock budget for one lower-bound estimation:
// an eighth of the time left before Options.Deadline, clamped to
// [5ms, 500ms], so one cycling LP cannot eat the whole node budget. The
// budget never extends past that deadline, and carries the Cancel channel so
// a cancelled search does not sit inside a subgradient loop.
func (s *solver) boundBudget() bounds.Budget {
	bud := bounds.Budget{Cancel: s.opt.Cancel}
	if !s.opt.Deadline.IsZero() {
		bb := min(max(time.Until(s.opt.Deadline)/8, 5*time.Millisecond), 500*time.Millisecond)
		bud.Deadline = time.Now().Add(bb)
		if s.opt.Deadline.Before(bud.Deadline) {
			bud.Deadline = s.opt.Deadline
		}
	}
	s.shareInterruptBudget(&bud)
	return bud
}

// reduce builds the reduced problem for the current node through the
// persistent Reducer, folding the construction cost into the bound-pipeline
// stats.
func (s *solver) reduce() *bounds.Reduced {
	start := time.Now()
	red := s.reducer.Reduce()
	s.bstats.Reduces++
	s.bstats.ReduceTime += obs.Duration(time.Since(start))
	return red
}

// estimate runs the lower-bound ladder at one node (see estimateInner) and
// traces the outcome: one EvBound event per estimation with the estimator
// that produced the returned bound, its value, the prune target, and the
// outcome class.
func (s *solver) estimate(red *bounds.Reduced, target int64) bounds.Result {
	res := s.estimateInner(red, target)
	if s.trace != nil {
		outcome := "ok"
		switch {
		case res.Failed:
			outcome = "failed"
		case res.Bound >= bounds.InfBound:
			outcome = "infeasible"
		case res.Incomplete:
			outcome = "incomplete"
		}
		s.trace.Emit(obs.EvBound, s.lastEst, res.Bound, target, outcome)
	}
	return res
}

// estimateInner runs the lower-bound ladder at one node: the primary
// procedure behind a panic barrier, then — if the primary failed (panic,
// numerical corruption, solver error) or produced no usable bound within its
// budget — the MIS fallback, so the node still prunes with eq. 8/eq. 9 bound
// conflicts where possible. After fallbackAfter consecutive hard failures
// the circuit breaker demotes the primary to MIS for the rest of the run.
func (s *solver) estimateInner(red *bounds.Reduced, target int64) bounds.Result {
	bud := s.boundBudget()
	s.lastEst = s.est.Name()
	ubi0 := s.stats.Sharing.UBInterrupts
	res, failed := s.tryEstimate(s.est, red, target, bud)
	if res.Incomplete {
		s.stats.BoundTimeouts++
	}
	if !failed {
		s.consecFails = 0
		// An estimation cut short by a foreign incumbent is not worth
		// rescuing: the caller is about to adopt a tighter upper bound and
		// re-check the prune — skip the fallback rung.
		if s.stats.Sharing.UBInterrupts != ubi0 {
			return res
		}
		// A budget-limited call that produced nothing still deserves the
		// cheap fallback — without feeding the circuit breaker.
		if res.Incomplete && res.Bound <= 0 && s.fallback != nil {
			if fres, ffailed := s.tryEstimate(s.fallback, red, target, bud); !ffailed && fres.Bound > 0 {
				s.stats.BoundFallbacks++
				s.lastEst = s.fallback.Name()
				s.trace.Emit(obs.EvFallback, s.fallback.Name(), fres.Bound, target, "timeout-rescue")
				return fres
			}
		}
		return res
	}
	s.stats.BoundFailures++
	s.consecFails++
	// A hard failure voids any trust in carried-over LP state (a panicked
	// solve may have published a corrupt basis snapshot): drop it so the
	// next LPR call starts cold. Nil-safe.
	s.lprState.Invalidate()
	if s.fallback != nil {
		if fres, ffailed := s.tryEstimate(s.fallback, red, target, bud); !ffailed {
			s.stats.BoundFallbacks++
			s.lastEst = s.fallback.Name()
			s.trace.Emit(obs.EvFallback, s.fallback.Name(), fres.Bound, target, "failure-rescue")
			res = fres
		}
	}
	if s.consecFails >= fallbackAfter && s.fallback != nil {
		// Demote: the primary procedure is persistently failing; stop
		// paying for it (and for its panics) at every node. The warm-start
		// state dies with the demoted estimator — but its warm/cold solve
		// counters must be folded into the stats block first, or a demoted
		// LPR run reports lp warm/cold = 0/0 even though hundreds of LP
		// solves happened before the circuit breaker tripped (the
		// accounting bug this PR's metrics snapshots surfaced).
		s.trace.Emit(obs.EvDemotion, s.est.Name(), int64(s.stats.BoundFailures), 0, s.fallback.Name())
		s.est = s.fallback
		s.fallback = nil
		s.consecFails = 0
		s.stats.BoundDemotions++
		if s.lprState != nil {
			s.lprState.Release()
			s.bstats.WarmSolves = s.lprState.WarmSolves()
			s.bstats.ColdSolves = s.lprState.ColdSolves()
			s.bstats.WarmFallbacks = s.lprState.WarmFallbacks()
			s.lprState = nil
		}
	}
	return res
}

// tryEstimate runs one estimator behind a recover barrier and sanitizes the
// outcome. failed reports a hard failure: the result carries no usable
// information and the call counts toward the circuit breaker.
func (s *solver) tryEstimate(est bounds.Estimator, red *bounds.Reduced, target int64, bud bounds.Budget) (res bounds.Result, failed bool) {
	start := time.Now()
	defer func() {
		panicked := false
		if r := recover(); r != nil {
			s.stats.BoundPanics++
			res = bounds.Result{Failed: true}
			failed = true
			panicked = true
		}
		bounds.Record(&s.bstats, est.Name(), res, time.Since(start), panicked)
	}()
	res = est.Estimate(s.eng, red, s.prob.Cost, target, bud)
	if res.Failed || res.Bound < 0 {
		return bounds.Result{Failed: true}, true
	}
	return res, false
}

// finish converts the incumbent state into a terminal result. The terminal
// board poll (adoptFinal) runs first: a member whose imports assumed foreign
// incumbents must account for the board's best solution before claiming
// "optimal" or "unsatisfiable" (DESIGN.md §9).
func (s *solver) finish(proved bool) Result {
	s.adoptFinal()
	if s.bestVals != nil {
		status := StatusLimit
		if proved {
			status = StatusOptimal
			if !s.prob.HasObjective() {
				status = StatusSatisfiable
			}
		}
		return Result{
			Status:      status,
			HasSolution: true,
			Best:        s.upper + s.prob.CostOffset,
			Values:      s.bestVals,
		}
	}
	if proved {
		return Result{Status: StatusUnsat}
	}
	return Result{Status: StatusLimit}
}

func (s *solver) search() Result {
	if s.eng.SeedUnits() < 0 {
		return Result{Status: StatusUnsat}
	}
	hasObjective := s.prob.HasObjective()
	var fracX []bounds.FracVar

	for {
		s.nodeCounter++
		if s.budgetExpired() {
			return s.finish(false)
		}

		// Cooperative portfolio: adopt a strictly better foreign incumbent
		// (one atomic load when there is nothing new) and, at the root,
		// install clauses learned by other members. An import conflicting at
		// the root proves the space below the board's assumptions empty —
		// finish(true) with adoptFinal supplying the matching incumbent.
		if s.opt.Share != nil {
			if hasObjective {
				s.adoptShared()
			}
			if !s.importShared() {
				return s.finish(true)
			}
		}

		if confl := s.eng.Propagate(); confl >= 0 {
			if !s.resolveConstraintConflict(confl) {
				return s.finish(true)
			}
			s.maybeRestart()
			continue
		}

		// Assumption placement: before any real branching, every assumption
		// must hold. Scan in order at the propagation fixpoint of every node
		// (backjumps may have unassigned some): a True assumption is done, an
		// Unassigned one becomes the next decision, a False one is refuted by
		// the constraints plus the assumptions decided so far — extract the
		// failed subset and answer UNSAT-under-assumptions. Because this scan
		// precedes pickBranch, the trail's decisions are all assumptions until
		// the scan completes, which is the invariant AnalyzeFinal relies on to
		// read NoReason decisions as assumption literals.
		if len(s.opt.Assumptions) > 0 {
			decided := false
			for _, a := range s.opt.Assumptions {
				switch s.eng.LitValue(a) {
				case engine.True:
					continue
				case engine.Unassigned:
					s.eng.Decide(a)
					decided = true
				default: // False: refuted
					// With an incumbent in hand, the refutation may rest on
					// clauses learned under the cost bound (bound conflicts),
					// so it proves "no solution under the assumptions beats
					// the incumbent" — optimality, not infeasibility. The
					// incumbent itself was found with every assumption held
					// (this scan precedes the solution check), so it is the
					// optimum of the restricted space.
					if hasObjective && s.bestVals != nil {
						return s.finish(true)
					}
					// No incumbent: every learned clause is implied by the
					// constraints alone, so the failed subset is a genuine
					// unsat core over the assumptions.
					return Result{Status: StatusUnsat,
						FailedAssumptions: s.eng.AnalyzeFinal(a)}
				}
				break
			}
			if decided {
				continue // propagate the new assumption before scanning on
			}
		}

		// Propagation fixpoint.
		path := int64(0)
		if hasObjective {
			path = s.pathCost()
			if path >= s.upper {
				if s.upperForeign {
					s.stats.Sharing.ForeignUBPrunes++
				}
				s.trace.Emit(obs.EvPrune, "path", path, s.upper, "")
				s.auditBound(path, 0)
				if !s.boundConflict(nil, nil, nil) {
					return s.finish(true)
				}
				continue
			}
		}

		// Lower bound estimation (§3) and bound conflict detection (§4).
		fracX = nil
		if hasObjective && s.boundNode() {
			red := s.reduce()
			s.stats.BoundCalls++
			res := s.estimate(red, s.upper-path)
			// Make a mid-estimation foreign incumbent pay off immediately:
			// adopt it before the prune comparison, so an estimation cut
			// short by Budget.Interrupt still gets its node pruned against
			// the tighter upper bound.
			s.adoptShared()
			// Likewise an incumbent read off the LP point: at the root, a
			// rounded point whose cost meets ⌈z_lp⌉ ends the search here
			// through the ordinary bound conflict at level 0.
			lpInc := s.lpIncumbent(res.FracX, path+res.Bound)
			if lpInc && s.opt.Strategy == StrategyLinearSearch {
				continue // addIncumbentCuts restarted the search from the root
			}
			if path+res.Bound >= s.upper {
				s.stats.BoundPrunes++
				s.bstats.Proc(s.lastEst).Prunes++
				if s.upperForeign {
					s.stats.Sharing.ForeignUBPrunes++
				}
				s.trace.Emit(obs.EvPrune, s.lastEst, path, res.Bound, "")
				s.auditBound(path, res.Bound)
				if !s.boundConflict(res.Responsible, res.ResponsibleLits, res.ExcludedVars) {
					return s.finish(true)
				}
				continue
			}
			if lpInc && s.knapCut >= 0 {
				// The eq. 10 row was created or tightened at this node; have
				// the next propagation examine it.
				s.eng.ScheduleCheck(s.knapCut)
			}
			fracX = res.FracX
		}

		// Solution? Every problem constraint satisfied; unassigned variables
		// take value 0, the cheapest polarity, so the cost is exactly path.
		if s.eng.NumUnsatisfied() == 0 {
			s.stats.Solutions++
			if !hasObjective {
				s.upper = 0
				s.bestVals = s.eng.Values()
				s.auditIncumbent()
				return s.finish(true)
			}
			if path < s.upper {
				s.adoptLocal(path, s.eng.Values(), "local", path)
			}
			if s.opt.Strategy == StrategyLinearSearch {
				// addIncumbentCuts restarted the search from the root; the
				// eq. 10 constraint now drives it toward a cheaper solution.
				continue
			}
			// Branch-and-bound: the incumbent now equals the path, so raise
			// a bound conflict with the path explanation ω_pp (lower = 0).
			s.auditBound(path, 0)
			if !s.boundConflict(nil, nil, nil) {
				return s.finish(true)
			}
			continue
		}

		// Branch.
		lit := s.pickBranch(fracX)
		if lit == pb.NoLit {
			// All variables assigned yet constraints remain unsatisfied:
			// propagation must have caught this. Defensive.
			return s.finish(false)
		}
		s.eng.Decide(lit)
	}
}

// boundNode reports whether the current node gets a lower-bound estimate:
// every node once an incumbent exists, and — on LPR runs with LP incumbents
// — one root node before the first incumbent, whose LP point may supply that
// incumbent.
func (s *solver) boundNode() bool {
	if s.opt.LowerBound == LBNone {
		return false
	}
	if s.upper < upperInf {
		return true
	}
	if s.rootLPDone || s.opt.LowerBound != LBLPR || s.opt.NoLPIncumbent || s.eng.DecisionLevel() != 0 {
		return false
	}
	s.rootLPDone = true
	return true
}

// lpIntEps is the distance from 0 or 1 within which an LP value counts as
// integral.
const lpIntEps = 1e-6

// lpIncumbent turns an LPR point into an incumbent when it yields a feasible
// assignment cheaper than the current one. At decision level 0 the point is
// rounded at 0.5; below the root it is used only when every value is
// integral. Assigned variables keep their trail values and unassigned
// variables outside fracX take 0. lower is the node's path + bound. It
// reports whether an incumbent was adopted.
func (s *solver) lpIncumbent(fracX []bounds.FracVar, lower int64) bool {
	if fracX == nil || s.opt.NoLPIncumbent {
		return false
	}
	if s.eng.DecisionLevel() > 0 {
		for _, f := range fracX {
			if f.X > lpIntEps && f.X < 1-lpIntEps {
				return false
			}
		}
	}
	vals := s.eng.Values()
	for _, f := range fracX {
		vals[f.Var] = f.X >= 0.5
	}
	if !s.prob.Feasible(vals) {
		return false
	}
	cost := s.prob.ObjectiveValue(vals) - s.prob.CostOffset
	if cost >= s.upper {
		return false
	}
	s.stats.LPIncumbents++
	s.adoptLocal(cost, vals, "lp", lower)
	return true
}

// adoptLocal makes a solution this solver found — at a search leaf, or from
// an LP point — the incumbent: audit it, publish it, report it and tighten
// the incumbent cuts. source tags the EvIncumbent trace event. lower is what
// the adopting node proves of every solution below it (a leaf: its own
// cost). Under branch and bound, lower ≥ cost at the root makes the
// incumbent optimal: the caller's bound conflict at level 0 ends the search
// before anything reads the incumbent cuts, so they are not built.
func (s *solver) adoptLocal(cost int64, vals []bool, source string, lower int64) {
	s.upper = cost
	s.bestVals = vals
	s.upperForeign = false
	s.trace.Emit(obs.EvIncumbent, "", s.upper+s.prob.CostOffset, 0, source)
	s.auditIncumbent()
	// Publish before any clause learned under the new bound can reach the
	// exchange — the ordering the sharing soundness argument rests on
	// (DESIGN.md §9).
	s.publishIncumbent()
	if s.opt.OnIncumbent != nil {
		s.opt.OnIncumbent(s.upper + s.prob.CostOffset)
	}
	if s.opt.Strategy == StrategyLinearSearch || s.eng.DecisionLevel() > 0 || lower < cost {
		s.addIncumbentCuts()
	}
}

// resolveConstraintConflict analyzes a BCP conflict; returns false when the
// search space is exhausted.
func (s *solver) resolveConstraintConflict(confl int) bool {
	for round := 0; ; round++ {
		var cpTerms []pb.Term
		var cpDegree int64
		if s.opt.PBLearning && s.stats.PBLearned < maxPBLearned {
			cpTerms, cpDegree = s.eng.AnalyzeCuttingPlane(confl)
			// Cardinality detection: when the derived constraint is
			// semantically a cardinality constraint (every solution set
			// unchanged), normalize the coefficients to 1. The unit form
			// propagates identically but is cheaper to watch and is what the
			// clique-graph builder recognizes exactly.
			if cpTerms != nil {
				if need, ok := cuts.DetectCardinality(cpTerms, cpDegree); ok && !allUnitCoefs(cpTerms) {
					cpTerms = cuts.UnitTerms(cpTerms)
					cpDegree = int64(need)
					s.stats.PBCardNormalized++
				}
			}
		}
		res := s.eng.AnalyzeConstraint(confl)
		if res.Unsat {
			return false
		}
		idx := s.eng.LearnAndBackjump(res)
		if idx < 0 {
			return false
		}
		s.publishLearnt(res.Learnt)
		s.auditLearnt(res.Learnt)
		// Install the cutting plane after the backjump (it is usually a
		// strict strengthening of the clause) and schedule it for an
		// immediate propagation check.
		if cpTerms != nil && !dominatedByClause(cpTerms, cpDegree, res.Learnt) {
			ci := s.eng.AddCons(cpTerms, cpDegree)
			s.eng.ScheduleCheck(ci)
			s.stats.PBLearned++
		}
		if s.eng.LitValue(res.Learnt[0]) != engine.False {
			return true
		}
		// The learned clause is still conflicting (can happen when a seed
		// had several literals at its maximum level); analyze it in turn.
		confl = idx
		if round > 1000 {
			panic("core: conflict resolution did not converge")
		}
	}
}

// boundConflict handles path + lower ≥ upper (§4): build ω_bc = ω_pp ∪ ω_pl,
// backtrack non-chronologically, learn, and continue. responsible lists the
// engine constraints explaining the lower bound (nil when lower = 0);
// responsibleLits carries the currently-false literals of pooled cut rows
// that participated in the bound — a cut has no engine constraint index, so
// its literals enter ω_pl directly.
// Returns false when the search space below the incumbent is exhausted —
// the incumbent is optimal (or the instance unsatisfiable).
func (s *solver) boundConflict(responsible []int, responsibleLits []pb.Lit, excluded map[pb.Var]bool) bool {
	s.stats.BoundConflicts++
	curLevel := s.eng.DecisionLevel()
	if curLevel == 0 {
		return false
	}

	var seed []pb.Lit
	inSeed := map[pb.Lit]bool{}
	add := func(l pb.Lit) {
		if !inSeed[l] {
			inSeed[l] = true
			seed = append(seed, l)
		}
	}

	if s.opt.ChronologicalBounds {
		// The "straightforward approach" of §4.1: blame every decision.
		for lvl := 1; lvl <= curLevel; lvl++ {
			add(s.eng.DecisionLit(lvl).Neg())
		}
	} else {
		// ω_pp (eq. 8): positive-cost variables assigned 1.
		for i := 0; i < s.eng.TrailSize(); i++ {
			l := s.eng.TrailLit(i)
			if l.IsNeg() {
				continue
			}
			v := l.Var()
			if s.prob.Cost[v] > 0 && s.eng.Level(v) > 0 {
				add(pb.NegLit(v))
			}
		}
		// ω_pl (eq. 9): false literals of the responsible constraints,
		// minus the §4.3 α-filtered variables.
		for _, ci := range responsible {
			c := s.eng.Cons(ci)
			for _, l := range c.Lits {
				if s.eng.LitValue(l) != engine.False {
					continue
				}
				v := l.Var()
				if s.eng.Level(v) == 0 {
					continue // root assignments never unassign; sound to drop
				}
				if excluded != nil && excluded[v] {
					continue
				}
				add(l)
			}
		}
		// ω_pl contribution of pooled cuts: cuts are implied by the original
		// problem, so their false literals stand in for a constraint's exactly
		// as in eq. 9. The α-filter never excludes them — cut rows were part
		// of the LP the filter was computed against, but the filter's
		// exclusion set is keyed to problem rows only.
		for _, l := range responsibleLits {
			if s.eng.LitValue(l) != engine.False {
				continue
			}
			if s.eng.Level(l.Var()) == 0 {
				continue
			}
			add(l)
		}
	}

	if len(seed) == 0 {
		// The bound holds under no assumptions: nothing below the incumbent.
		return false
	}

	// Non-chronological jump: first return to the highest level mentioned by
	// the explanation, then run standard conflict analysis from ω_bc.
	maxLevel := 0
	for _, l := range seed {
		if lvl := s.eng.Level(l.Var()); lvl > maxLevel {
			maxLevel = lvl
		}
	}
	if maxLevel == 0 {
		return false
	}
	if maxLevel < curLevel {
		s.eng.BacktrackTo(maxLevel)
	}
	res := s.eng.AnalyzeClause(seed)
	if res.Unsat {
		return false
	}
	idx := s.eng.LearnAndBackjump(res)
	if idx < 0 {
		return false
	}
	s.publishLearnt(res.Learnt)
	s.auditLearnt(res.Learnt)
	s.trace.Emit(obs.EvBoundConflict, s.lastEst, int64(curLevel), int64(res.BackLevel), "")
	// Chronological backtracking would have returned to curLevel−1; levels
	// skipped beyond that are the §4 non-chronological saving.
	if saved := int64(curLevel-1) - int64(res.BackLevel); saved > 0 {
		s.stats.NCBSavedLevels += saved
	}
	if s.eng.LitValue(res.Learnt[0]) == engine.False {
		// Still conflicting: resolve through the regular path.
		return s.resolveConstraintConflict(idx)
	}
	return true
}

// allUnitCoefs reports whether every coefficient is already 1.
func allUnitCoefs(terms []pb.Term) bool {
	for _, t := range terms {
		if t.Coef != 1 {
			return false
		}
	}
	return true
}

// dominatedByClause reports whether the derived cutting plane is no
// stronger than the learned clause (same-or-fewer pruning power when it is
// itself a clause over a superset of the clause's literals).
func dominatedByClause(terms []pb.Term, degree int64, clause []pb.Lit) bool {
	if degree != 1 {
		return false
	}
	for _, t := range terms {
		if t.Coef != 1 {
			return false
		}
	}
	// A clause-shaped cut with degree 1: it dominates the learned clause
	// only if its literal set is a subset; a superset is weaker. Cheap
	// approximation: keep only if strictly shorter than the clause.
	return len(terms) >= len(clause)
}

// pickBranch selects the next decision literal: the §5 LP-guided heuristic
// when fractional values are available, otherwise VSIDS with saved phases.
func (s *solver) pickBranch(fracX []bounds.FracVar) pb.Lit {
	if fracX != nil && !s.opt.NoLPBranching && s.opt.LowerBound == LBLPR {
		if f, ok := lpBranchVar(fracX, s.eng); ok {
			return pb.MkLit(f.Var, f.X < 0.5)
		}
	}
	v := s.eng.PickBranchVar()
	if v < 0 {
		return pb.NoLit
	}
	return pb.MkLit(v, s.eng.PreferredPhase(v) == engine.False)
}

// branchEngine is what lpBranchVar reads of the engine.
type branchEngine interface {
	Value(pb.Var) engine.Value
	Activity(pb.Var) float64
}

// lpBranchVar is the §5 selection: among the unassigned variables with a
// fractional LP value, the one closest to 0.5, ties within numerical noise
// broken by the VSIDS activity of Chaff, then by the smaller variable index.
// Two passes, so the selection is independent of the order of fracX: pass 1
// finds the exact minimum distance to 0.5, pass 2 picks the winner among
// everything within noise of it by order-free criteria. Portfolio members
// must replay identically across processes for the deterministic mode to
// mean anything. ok is false when no candidate is fractional.
func lpBranchVar(fracX []bounds.FracVar, e branchEngine) (best bounds.FracVar, ok bool) {
	bestDist := math.Inf(1)
	for _, f := range fracX {
		if e.Value(f.Var) != engine.Unassigned {
			continue
		}
		if f.X < lpIntEps || f.X > 1-lpIntEps {
			continue // integral in the LP: not a §5 candidate
		}
		if d := math.Abs(f.X - 0.5); d < bestDist {
			bestDist = d
		}
	}
	if math.IsInf(bestDist, 1) {
		return bounds.FracVar{}, false
	}
	for _, f := range fracX {
		if e.Value(f.Var) != engine.Unassigned {
			continue
		}
		if f.X < lpIntEps || f.X > 1-lpIntEps {
			continue
		}
		if math.Abs(f.X-0.5) > bestDist+1e-9 {
			continue
		}
		if !ok || e.Activity(f.Var) > e.Activity(best.Var) ||
			(e.Activity(f.Var) == e.Activity(best.Var) && f.Var < best.Var) {
			best, ok = f, true
		}
	}
	return best, ok
}

// addIncumbentCuts installs the eq. 10 knapsack constraint and, when
// enabled, the eq. 11–13 cardinality inferences for the new upper bound.
// In linear-search mode the eq. 10 constraint *is* the search mechanism.
func (s *solver) addIncumbentCuts() {
	if s.opt.Strategy == StrategyLinearSearch {
		s.addCostUpperBoundCut()
		// PBS/Galena restart from scratch after each solution. The jump to
		// the root breaks the node-to-node continuity the warm-start basis
		// assumes, so drop it (nil-safe).
		s.eng.BacktrackTo(0)
		s.stats.Restarts++
		s.trace.Emit(obs.EvRestart, "", s.stats.Restarts, s.eng.Stats.Conflicts, "linear-search")
		s.lprState.Invalidate()
		return
	}
	if !s.opt.NoKnapsackCuts {
		s.addCostUpperBoundCut()
	}
	if s.opt.CardinalityInference {
		s.addCardinalityCuts()
	}
}

// addCostUpperBoundCut maintains Σ c_j·x_j ≤ upper − 1 (eq. 10), expressed
// in normal form as Σ c_j·¬x_j ≥ (Σ c_j) − upper + 1. The constraint is
// created once at the first incumbent and tightened in place afterwards —
// each improvement dominates the previous cut, and replacing beats
// accumulating dense constraints.
func (s *solver) addCostUpperBoundCut() {
	degree := s.prob.TotalCost() - s.upper + 1
	if s.knapCut >= 0 {
		s.eng.UpdateDegree(s.knapCut, degree)
		s.stats.KnapsackCuts++
		return
	}
	terms := s.costOrder()
	if len(terms) == 0 {
		return
	}
	s.knapCut = s.eng.AddProtected(terms, degree)
	s.incumbentRows++
	s.stats.KnapsackCuts++
}

// costOrder returns the eq. 10 terms, built once per solve; the eq. 13 rows
// are filtered from the same slice. AddCons copies the terms it is given.
func (s *solver) costOrder() []pb.Term {
	if s.costTerms == nil {
		s.costTerms = sortedCostTerms(s.prob.Cost)
	}
	return s.costTerms
}

// sortedCostTerms builds Σ c_j·¬x_j over the positive-cost variables, sorted
// by descending coefficient (the engine's propagation scan relies on that
// order), then by literal. The key is a total order, so any subset filtered
// from the result is itself sorted. The terms are deliberately NOT clipped
// against any degree so the degree can be tightened in place later.
func sortedCostTerms(cost []int64) []pb.Term {
	terms := []pb.Term{}
	for v, c := range cost {
		if c > 0 {
			terms = append(terms, pb.Term{Coef: c, Lit: pb.NegLit(pb.Var(v))})
		}
	}
	slices.SortFunc(terms, func(a, b pb.Term) int {
		if a.Coef != b.Coef {
			return cmp.Compare(b.Coef, a.Coef)
		}
		return cmp.Compare(a.Lit, b.Lit)
	})
	return terms
}

// outsideK appends to buf the terms of order whose variable is outside K:
// the eq. 13 left-hand side, in the same order as order.
func outsideK(order []pb.Term, inK []bool, buf []pb.Term) []pb.Term {
	for _, t := range order {
		if !inK[t.Lit.Var()] {
			buf = append(buf, t)
		}
	}
	return buf
}

// maxCardSets is how many eq. 13 rows a solve keeps (the largest V): each is
// a dense constraint touching every costed variable's occurrence list.
const maxCardSets = 16

// prepareCardSets scans p's constraints for positive cardinality constraints
// Σ_{j∈K} x_j ≥ U (eq. 11), computes V, the sum of the U smallest costs in K
// (eq. 12), and keeps the maxCardSets sets with the largest V, in that order.
// One pass over the terms: Σ_{j∉K} c_j is the total positive cost minus the
// positive cost inside K, and only the kept sets get a per-variable inK.
func prepareCardSets(p *pb.Problem) []cardSet {
	type candidate struct {
		row           int
		v, sumOutside int64
	}
	var totalPos int64
	for _, c := range p.Cost {
		if c > 0 {
			totalPos += c
		}
	}
	// counted[v] is 1 + the last row whose inside sum counted v, so a
	// variable repeated within a row counts once.
	counted := make([]int, p.NumVars)
	var costs []int64
	var cands []candidate
	for ri, c := range p.Constraints {
		kind := c.Kind()
		if kind != pb.KindCardinality && kind != pb.KindClause {
			continue
		}
		u := c.CardinalityNeed()
		if u <= 0 {
			continue
		}
		costs = costs[:0]
		var inside int64
		allPositive := true
		for _, t := range c.Terms {
			if t.Lit.IsNeg() {
				allPositive = false
				break
			}
			vr := t.Lit.Var()
			cv := p.Cost[vr]
			costs = append(costs, cv)
			if cv > 0 && counted[vr] != ri+1 {
				counted[vr] = ri + 1
				inside += cv
			}
		}
		if !allPositive {
			continue
		}
		slices.Sort(costs)
		var v int64
		for i := int64(0); i < u && i < int64(len(costs)); i++ {
			v += costs[i]
		}
		if v <= 0 {
			continue // eq. 13 would be no stronger than eq. 10
		}
		cands = append(cands, candidate{row: ri, v: v, sumOutside: totalPos - inside})
	}
	// The same unstable sort over the candidates in the same row order as
	// the dense builder it replaced, so sets tied in V keep their order.
	sort.Slice(cands, func(a, b int) bool { return cands[a].v > cands[b].v })
	if len(cands) > maxCardSets {
		cands = cands[:maxCardSets]
	}
	sets := make([]cardSet, len(cands))
	for i, cd := range cands {
		inK := make([]bool, p.NumVars)
		for _, t := range p.Constraints[cd.row].Terms {
			inK[t.Lit.Var()] = true
		}
		sets[i] = cardSet{inK: inK, v: cd.v, sumOutside: cd.sumOutside}
	}
	return sets
}

// addCardinalityCuts maintains Σ_{j∈N−K} c_j·x_j ≤ upper − 1 − V (eq. 13)
// for every cardinality set, in normal form
// Σ_{j∈N−K} c_j·¬x_j ≥ sumOutside − upper + 1 + V. The sets are chosen and
// the cuts created at the first incumbent, and tightened in place afterwards.
func (s *solver) addCardinalityCuts() {
	if s.cardCutIdx == nil {
		s.cardSets = prepareCardSets(s.prob)
		s.cardCutIdx = make([]int, len(s.cardSets))
		var buf []pb.Term
		for i, cs := range s.cardSets {
			buf = outsideK(s.costOrder(), cs.inK, buf[:0])
			if len(buf) == 0 {
				s.cardCutIdx[i] = -1
				continue
			}
			s.cardCutIdx[i] = s.eng.AddProtected(buf, cs.sumOutside-s.upper+1+cs.v)
			s.incumbentRows++
			s.stats.CardCuts++
		}
		return
	}
	for i, cs := range s.cardSets {
		if s.cardCutIdx[i] < 0 {
			continue
		}
		s.eng.UpdateDegree(s.cardCutIdx[i], cs.sumOutside-s.upper+1+cs.v)
		s.stats.CardCuts++
	}
}

// learnedRows is what the ReduceDB schedule counts: every constraint added
// as learned, the incumbent rows included.
func (s *solver) learnedRows() int64 { return s.eng.Stats.Learned + s.incumbentRows }

// maybeRestart applies Luby restarts after BCP conflicts.
func (s *solver) maybeRestart() {
	if s.opt.RestartBase < 0 {
		return
	}
	base := int64(s.opt.RestartBase)
	if base == 0 {
		base = 128
	}
	s.conflictsCur++
	if s.conflictsCur >= luby(s.restartIdx)*base {
		s.conflictsCur = 0
		s.restartIdx++
		if s.eng.DecisionLevel() > 0 {
			s.eng.BacktrackTo(0)
			s.stats.Restarts++
			s.trace.Emit(obs.EvRestart, "", s.stats.Restarts, s.eng.Stats.Conflicts, "luby")
			// A restart teleports the search to an unrelated region; the
			// previous node's LP basis is no longer a useful hint. (Ordinary
			// backjumps keep it: the next node shares most of its columns.)
			s.lprState.Invalidate()
		}
		// Garbage-collect learned constraints when the database has grown
		// past the threshold since the last collection.
		if s.learnedRows()-s.lastReduceAt > 4000 {
			s.eng.ReduceDB()
			// The incumbent rows are protected, so they survive; ReduceDB
			// renumbers them with the other learned rows.
			s.knapCut = s.eng.Moved(s.knapCut)
			for i, ci := range s.cardCutIdx {
				s.cardCutIdx[i] = s.eng.Moved(ci)
			}
			s.lastReduceAt = s.learnedRows()
			s.trace.Emit(obs.EvReduceDB, "", s.lastReduceAt, 0, "")
			s.lprState.Invalidate()
		}
	}
}

// luby returns the i-th element of the Luby restart sequence
// (1,1,2,1,1,2,4,…).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i+1 == (int64(1)<<k)-1 {
			return int64(1) << (k - 1)
		}
		if i+1 < (int64(1) << k) {
			return luby(i + 1 - (int64(1) << (k - 1)))
		}
	}
}
