// Package portfolio runs several bsolo configurations concurrently on the
// same instance and returns the first conclusive answer — the natural
// fine-tuning direction the paper's conclusion gestures at: no single lower
// bound method wins everywhere (Table 1's per-family spread), so racing
// them hedges the choice at the price of cores.
//
// By default the race is *cooperative* (see internal/share and DESIGN.md §9):
// members publish every incumbent to a shared board — instantly tightening
// the paper's `path + lower ≥ upper` pruning in every other member — and
// exchange short, low-LBD learned clauses through a bounded ring, imported at
// restart/backjump-to-root boundaries. Options.NoSharing restores the
// pre-cooperative isolated race, which combined with MaxConcurrent=1 is fully
// deterministic (members run sequentially in config order, and each member's
// search contains no other nondeterminism).
//
// Every worker receives its own engine state; the input problem is shared
// read-only. When a worker proves optimality (or unsatisfiability, or
// satisfiability for objective-free instances) the others are cancelled.
// If every worker hits its budget, the best incumbent across workers is
// returned.
//
// Workers are panic-isolated: a member that crashes (a genuine bug, or an
// injected fault in tests) ends as core.StatusError and merely degrades the
// race — the surviving members still produce the answer. Crash details are
// reported in Result.Errors.
package portfolio

import (
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ls"
	"repro/internal/obs"
	"repro/internal/pb"
	"repro/internal/share"
	"repro/internal/wbo"
)

// The share.Member handle is the concrete Sharer the portfolio hands to each
// member's solver — and the concrete incumbent Pool it hands to local-search
// members; asserting both here keeps the import direction one-way
// (portfolio → core + ls + share, never core/ls → share).
var (
	_ core.Sharer = (*share.Member)(nil)
	_ ls.Pool     = (*share.Member)(nil)
)

// Config is one portfolio member.
type Config struct {
	// Name labels the member in the result.
	Name string
	// Options configures the member's solver. Cancel and Share are managed
	// by Solve and must be nil. Ignored when LS or CoreGuided is set.
	Options core.Options
	// LS, when non-nil, makes this member a stochastic local-search worker
	// (internal/ls) instead of a branch-and-bound solver: a UB-only member
	// that contributes incumbents (and, on objective-free instances, a
	// verified SAT witness) but can never prove optimality or
	// unsatisfiability — the winner logic treats its outcomes accordingly.
	// Share/Cancel/Audit/Trace/Live are managed by Solve and must be nil.
	LS *ls.Options
	// CoreGuided, when non-nil, makes this member a core-guided WBO solver
	// (internal/wbo) racing the branch-and-bound members. The portfolio's
	// problem MUST be the instance's Builder() compilation (original
	// variables first, then one selector per soft constraint, in order):
	// witnesses are mapped into that space via Instance.ExtendedWitness and
	// verified against the compiled problem (verifyClaim) before they can
	// win the race or reach the board — an inconsistent instance/problem
	// pair demotes every claim to the inconclusive StatusLimit instead of
	// poisoning the race.
	// Cancel is managed by Solve; the board's Share handle is used only for
	// verified incumbent publication and is never passed into the wbo
	// sub-solves.
	CoreGuided *CoreGuided
}

// CoreGuided configures a core-guided portfolio member.
type CoreGuided struct {
	// Instance is the WBO instance whose Builder() compilation the
	// portfolio is racing on.
	Instance *wbo.Instance
	// Options configure the core-guided loop. Cancel is managed by Solve
	// and must be nil.
	Options wbo.Options
}

// UBOnly reports whether the member can contribute only upper bounds
// (no exhaustion proofs).
func (c Config) UBOnly() bool { return c.LS != nil }

// DefaultConfigs returns the paper's four bsolo columns as portfolio
// members. Each member carries an explicit distinct seed and a small random
// branching frequency: the seeds diversify the race (members explore
// different regions even on instances where the bound methods behave alike)
// while keeping every run of the same member bit-reproducible across
// processes — the engine contains no other randomness.
func DefaultConfigs() []Config {
	const diversify = 0.02
	return []Config{
		{Name: "plain", Options: core.Options{LowerBound: core.LBNone,
			Seed: 1, RandomBranchFreq: diversify}},
		{Name: "mis", Options: core.Options{LowerBound: core.LBMIS, CardinalityInference: true,
			Seed: 2, RandomBranchFreq: diversify}},
		{Name: "lgr", Options: core.Options{LowerBound: core.LBLGR, CardinalityInference: true,
			Seed: 3, RandomBranchFreq: diversify}},
		{Name: "lpr", Options: core.Options{LowerBound: core.LBLPR, CardinalityInference: true,
			Seed: 4, RandomBranchFreq: diversify}},
	}
}

// LSConfig returns one local-search member for a mixed portfolio. The seed
// diversifies it from other LS members; maxFlips bounds its work (0 = run
// until cancelled — the usual mixed-portfolio setting, where a B&B member's
// proof ends the race).
func LSConfig(name string, seed int64, maxFlips int64) Config {
	if name == "" {
		name = "ls"
	}
	return Config{Name: name, LS: &ls.Options{Seed: seed, MaxFlips: maxFlips}}
}

// Roster returns the members of a race under one set of limits, in the order
// the race runs them: the core-guided member for in (when non-nil), then nLS
// local-search members, then the four DefaultConfigs members. The order
// matters only when members are serialized (an explicit MaxConcurrent below
// the member count): a member beyond the cap waits for a running one
// to finish, so the core-guided member must hold a slot from the start to
// genuinely race the B&B members, and the UB-only LS members must run before
// the exact members so that their incumbents are already on the board
// warming B&B pruning instead of arriving at the very end of the race.
//
// Of base, Roster reads only the limits and callbacks every member shares:
// Deadline (every member stops at it, so a member that starts late gets what
// is left of the time, not a fresh budget), MaxConflicts (B&B and
// core-guided members), Tuning (B&B members) and OnIncumbent (B&B and LS
// members). lsFlips bounds each LS member's flips (0 = until the deadline or
// the race's cancel).
func Roster(base core.Options, nLS int, lsFlips int64, in *wbo.Instance) []Config {
	var configs []Config
	if in != nil {
		configs = append(configs, Config{Name: "core-guided", CoreGuided: &CoreGuided{
			Instance: in,
			Options:  wbo.Options{Deadline: base.Deadline, MaxConflicts: base.MaxConflicts},
		}})
	}
	for i := 0; i < nLS; i++ {
		name := "ls"
		if nLS > 1 {
			name = fmt.Sprintf("ls%d", i+1)
		}
		cfg := LSConfig(name, int64(101+i), lsFlips)
		cfg.LS.Deadline, cfg.LS.OnIncumbent = base.Deadline, base.OnIncumbent
		configs = append(configs, cfg)
	}
	for _, cfg := range DefaultConfigs() {
		cfg.Options.Deadline = base.Deadline
		cfg.Options.MaxConflicts = base.MaxConflicts
		cfg.Options.Tuning = base.Tuning
		cfg.Options.OnIncumbent = base.OnIncumbent
		configs = append(configs, cfg)
	}
	return configs
}

// Options configures the portfolio run as a whole (member limits live in
// each Config; Roster sets them from one base). The zero value is the default cooperative
// race: sharing on, every member started at once.
type Options struct {
	// NoSharing disconnects the board entirely: members race in isolation
	// (the pre-cooperative behaviour). Required for the deterministic mode
	// and for sharing-ablation benchmarks.
	NoSharing bool
	// MaxConcurrent caps how many members run simultaneously; 0 starts
	// every member at once and lets the Go scheduler share the CPUs among
	// them (as ParLS-PBO runs all its workers together), so a member that
	// cannot conclude never keeps a prover from starting. Members beyond an
	// explicit cap wait their turn in config order. MaxConcurrent=1 runs the
	// members strictly sequentially in config order, which with NoSharing is
	// fully deterministic.
	MaxConcurrent int
	// Stop, when non-nil, cancels every member as soon as the channel is
	// closed (the CLI's SIGINT/SIGTERM handler).
	Stop <-chan struct{}
	// Audit, when non-nil, attaches the invariant auditor to every member:
	// each solver replays its learned clauses, bound conflicts, imports and
	// incumbents against the original problem into this (internally locked)
	// auditor. Expensive; meant for the differential fuzzer and debugging.
	Audit *audit.Auditor
	// Trace, when non-nil, records structured search events from every
	// member into the shared ring, each stamped with the member's name
	// (obs.Tracer.Named). Nil keeps the members' hot paths trace-free.
	Trace *obs.Tracer
	// Registry, when non-nil, receives one live metrics source per member
	// (registered under the member name, in config order) plus the board's
	// snapshot function, so a concurrent scraper (`bsolo -debug-addr`) sees
	// the full roster and tear-free per-member counters mid-race.
	Registry *obs.Registry
}

// MemberResult is one member's outcome, reported in config order.
type MemberResult struct {
	// Name is the member's label (Config.Name or the lower-bound method).
	Name string
	// UBOnly marks a member that can contribute only upper bounds (local
	// search): its terminal status is never an exhaustion proof.
	UBOnly bool
	core.Result
}

// Result is the portfolio outcome.
type Result struct {
	core.Result
	// Winner names the member that produced the result ("" when no member
	// finished and the best incumbent was stitched together).
	Winner string
	// Errors maps member names to their crash (recovered panic) when they
	// ended in core.StatusError. Nil when every member ran to completion.
	Errors map[string]error
	// Members holds every member's individual outcome, in config order —
	// including the losers, whose stats carry the sharing counters.
	Members []MemberResult
	// Concurrency is the member-level parallelism the run actually used
	// (MaxConcurrent capped at the member count; the member count for 0).
	Concurrency int
	// Sharing reports whether the cooperative board was connected.
	Sharing bool
	// Board is the board's final global snapshot (zero when !Sharing). Its
	// BestOwner names the member whose solution the certificate carries —
	// distinct from Winner when the prover adopted a foreign incumbent.
	Board obs.BoardStats
}

// TotalConflicts sums BCP + bound conflicts across every member — the
// portfolio-level work measure the sharing benchmarks compare.
func (r *Result) TotalConflicts() int64 {
	var n int64
	for _, m := range r.Members {
		n += m.Stats.Conflicts + m.Stats.BoundConflicts
	}
	return n
}

// TotalDecisions sums decisions across every member.
func (r *Result) TotalDecisions() int64 {
	var n int64
	for _, m := range r.Members {
		n += m.Stats.Decisions
	}
	return n
}

// TotalPropagations sums engine propagations across every member.
func (r *Result) TotalPropagations() int64 {
	var n int64
	for _, m := range r.Members {
		n += m.Stats.Propagations
	}
	return n
}

// SolveOpts races the given configurations under the given portfolio
// options.
func SolveOpts(p *pb.Problem, configs []Config, opts Options) Result {
	if len(configs) == 0 {
		configs = DefaultConfigs()
	}
	maxConc := opts.MaxConcurrent
	if maxConc <= 0 || maxConc > len(configs) {
		maxConc = len(configs)
	}

	// The board and the per-member handles are created up front, in config
	// order, so member ids are deterministic and every member can see
	// incumbents published before it was scheduled.
	var board *share.Board
	var handles []*share.Member
	if !opts.NoSharing {
		board = share.NewBoard()
		handles = make([]*share.Member, len(configs))
		for i, cfg := range configs {
			if cfg.UBOnly() || cfg.CoreGuided != nil {
				// UB-only and core-guided members neither publish nor drain
				// clauses; joining with clauses opted out keeps the ring's
				// cursor/lap stats scoped to actual consumers.
				handles[i] = board.JoinNoClauses(cfg.name())
			} else {
				handles[i] = board.Join(cfg.name())
			}
		}
	}

	// Observability wiring: one live metrics source per member (registered
	// up front so scrapers see the full roster before any member publishes),
	// the board's snapshot function, and a name-stamped tracer handle each.
	var lives []*obs.Live
	if opts.Registry != nil {
		lives = make([]*obs.Live, len(configs))
		for i, cfg := range configs {
			lives[i] = &obs.Live{}
			opts.Registry.RegisterSolver(cfg.name(), lives[i])
		}
		if board != nil {
			opts.Registry.RegisterBoard(board.Snapshot)
		}
	}

	cancel := make(chan struct{})
	var cancelOnce sync.Once
	closeCancel := func() { cancelOnce.Do(func() { close(cancel) }) }
	if opts.Stop != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-opts.Stop:
				closeCancel()
			case <-done:
			}
		}()
	}

	type outcome struct {
		idx  int
		name string
		res  core.Result
	}
	results := make(chan outcome, len(configs))

	// A fixed pool of maxConc workers pulls member indices from an ordered
	// queue: with maxConc=1 the members run strictly sequentially in config
	// order (the deterministic mode); with more workers the queue merely
	// bounds the parallelism at the configured cap.
	queue := make(chan int, len(configs))
	for i := range configs {
		queue <- i
	}
	close(queue)
	// In the sequential mode the worker waits until each outcome has been
	// consumed before starting the next member, so a member never starts
	// while a conclusive predecessor's cancellation is still in flight: it
	// either runs to its own end or sees the cancel from its first check.
	var consumed chan struct{}
	if maxConc == 1 {
		consumed = make(chan struct{})
	}
	var wg sync.WaitGroup
	for w := 0; w < maxConc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				cfg := configs[i]
				w := wiring{cancel: cancel, audit: opts.Audit, trace: opts.Trace.Named(cfg.name())}
				if handles != nil {
					w.share = handles[i]
				}
				if lives != nil {
					w.live = lives[i]
				}
				select {
				case <-cancel:
					// The race is decided (or stopped): a member that has
					// not started builds nothing and reports a not-run limit.
					res := core.Result{Status: core.StatusLimit}
					if w.live != nil {
						w.live.Publish(res.Metrics(cfg.name()))
					}
					results <- outcome{i, cfg.name(), res}
				default:
					results <- outcome{i, cfg.name(), runMember(p, cfg, w)}
				}
				if consumed != nil {
					<-consumed
				}
			}
		}()
	}

	var best Result
	gotBest := false
	conclusive := func(s core.Status) bool {
		return s == core.StatusOptimal || s == core.StatusSatisfiable || s == core.StatusUnsat
	}
	var winner *outcome
	var errs map[string]error
	members := make([]MemberResult, len(configs))
	for i := 0; i < len(configs); i++ {
		if consumed != nil && i > 0 {
			consumed <- struct{}{} // outcome i−1 is handled: start the next member
		}
		oc := <-results
		members[oc.idx] = MemberResult{Name: oc.name, UBOnly: configs[oc.idx].UBOnly(), Result: oc.res}
		if oc.res.Status == core.StatusError {
			// Panic isolation: record the crash and keep consuming results —
			// the race degrades instead of aborting.
			if errs == nil {
				errs = map[string]error{}
			}
			errs[oc.name] = oc.res.Err
			continue
		}
		if winner == nil && conclusive(oc.res.Status) {
			winner = &oc
			closeCancel() // stop the rest
		}
		// Track the best incumbent for the all-limits case.
		if oc.res.HasSolution && (!gotBest || !best.HasSolution || oc.res.Best < best.Best) {
			best = Result{Result: oc.res, Winner: oc.name}
			gotBest = true
		}
	}
	if consumed != nil {
		consumed <- struct{}{}
	}
	wg.Wait()
	closeCancel()

	finalize := func(r Result) Result {
		r.Errors = errs
		r.Members = members
		r.Concurrency = maxConc
		if board != nil {
			r.Sharing = true
			r.Board = board.Snapshot()
		}
		return r
	}
	if winner != nil {
		return finalize(Result{Result: winner.res, Winner: winner.name})
	}
	if gotBest {
		best.Status = core.StatusLimit
		return finalize(best)
	}
	return finalize(Result{Result: core.Result{Status: core.StatusLimit}})
}

// wiring is what the race hands one member: the shared cancel channel and
// the member's own board handle (nil with NoSharing), auditor, named tracer
// and live metrics source.
type wiring struct {
	cancel <-chan struct{}
	share  *share.Member
	audit  *audit.Auditor
	trace  *obs.Tracer
	live   *obs.Live
}

// runMember runs one member of any kind. It is the race's only panic
// barrier, so a member crash (including one injected at the
// "portfolio.worker" fault point, keyed by member name) becomes a
// StatusError outcome. The per-kind body does the solving; every outcome
// then passes verifyClaim before the winner logic sees it, and the verified
// verdict is published as the member's terminal metrics block.
func runMember(p *pb.Problem, cfg Config, w wiring) (res core.Result) {
	defer func() {
		if r := recover(); r != nil {
			res = core.Result{
				Status: core.StatusError,
				Err:    fmt.Errorf("portfolio: member %q panicked: %v\n%s", cfg.name(), r, debug.Stack()),
			}
		}
	}()
	fault.Fire("portfolio.worker", cfg.name())
	switch {
	case cfg.CoreGuided != nil:
		res = runCoreGuided(p, cfg.CoreGuided, w)
	case cfg.LS != nil:
		res = runLS(p, *cfg.LS, w)
	default:
		opt := cfg.Options
		opt.Cancel, opt.Trace, opt.Live = w.cancel, w.trace, w.live
		if w.share != nil {
			opt.Share = w.share
		}
		if w.audit != nil {
			opt.Audit = w.audit
		}
		res = core.Solve(p, opt)
	}
	res = verifyClaim(p, cfg.UBOnly(), res)
	if w.live != nil {
		w.live.Publish(res.Metrics(cfg.name()))
	}
	return res
}

// runLS runs a local-search member and maps its UB-only outcome onto the
// core.Result shape the race aggregates: a SAT witness is claimed as
// StatusSatisfiable, everything else is StatusLimit with the best
// incumbent.
func runLS(p *pb.Problem, opt ls.Options, w wiring) core.Result {
	opt.Cancel, opt.Audit, opt.Trace, opt.Live = w.cancel, w.audit, w.trace, w.live
	if w.share != nil {
		opt.Share = w.share
	}
	lr := ls.Solve(p, opt)
	res := core.Result{
		Status:      core.StatusLimit,
		HasSolution: lr.HasSolution,
		Best:        lr.Best,
		Values:      lr.Values,
		Stats:       lr.Stats.Solver(),
	}
	if lr.Satisfiable {
		res.Status = core.StatusSatisfiable
	}
	return res
}

// runCoreGuided runs a core-guided member. The board handle is used only to
// publish the verified terminal incumbent — the wbo sub-solves never see the
// board, so no foreign clause or incumbent can leak into the core
// extraction — and the claim is audited against the compiled problem. Both
// need a checked witness, so the claim is verified here before either; the
// runner's own verifyClaim then finds nothing left to demote.
func runCoreGuided(p *pb.Problem, cg *CoreGuided, w wiring) core.Result {
	opt := cg.Options
	opt.Cancel = w.cancel
	res := verifyClaim(p, false, coreGuidedClaim(cg.Instance, wbo.Solve(cg.Instance, opt)))
	if res.HasSolution {
		w.audit.Incumbent(res.Best, res.Values)
		if w.share != nil && w.share.PublishIncumbent(res.Best, res.Values) {
			res.Stats.Sharing.IncumbentsPublished++
		}
	}
	switch res.Status {
	case core.StatusOptimal:
		w.audit.Termination(audit.Claim{Optimal: true, Best: res.Best})
	case core.StatusUnsat:
		w.audit.Termination(audit.Claim{Unsat: true})
	case core.StatusLimit:
		if res.HasSolution {
			w.audit.Termination(audit.Claim{UpperBound: true, Best: res.Best})
		}
	}
	return res
}

// coreGuidedClaim states a core-guided outcome in the compiled problem's
// space: the witness is lifted through ExtendedWitness (selectors set on
// exactly the violated softs) and the claimed cost is the penalty minus the
// instance offset, which lives outside the compiled objective. UNSAT is
// claimed only for a hard-UNSAT verdict: the compiled soft rows are always
// satisfiable through their selectors, so the compiled problem is
// infeasible exactly when the hard skeleton is, while an
// assumption-relative refusal says nothing about it. The loop's own counters
// and its proved lower bound (none after a crash), in the same compiled
// terms, fill the core-guided counter block.
func coreGuidedClaim(in *wbo.Instance, r wbo.Result) core.Result {
	res := core.Result{Status: r.Status, Err: r.Err}
	res.Stats.Conflicts = r.Conflicts
	res.Stats.CoreGuided = &obs.CoreGuidedStats{
		Iterations:   int64(r.Iterations),
		Cores:        int64(r.Cores),
		CardRewrites: r.CardRewrites,
	}
	if r.Status != core.StatusError {
		res.Stats.CoreGuided.LowerBound = r.LowerBound - in.Offset
	}
	if r.Status == core.StatusUnsat && !r.HardUnsat {
		res.Status = core.StatusLimit
	}
	if r.HasSolution && len(r.Values) >= in.NumVars {
		res.HasSolution = true
		res.Values = in.ExtendedWitness(r.Values)
		res.Best = r.Best - in.Offset
	}
	return res
}

// verifyClaim is the race's one check on a member's outcome, applied to
// every member kind before the winner logic can see it. A witness is kept
// only if it is a full assignment of p that satisfies every constraint and
// costs exactly the claimed Best; otherwise it is dropped and the outcome
// demoted to the inconclusive StatusLimit. OPTIMAL and UNSAT are exhaustion
// proofs and need a complete member (not ubOnly); OPTIMAL also needs the
// verified witness. SATISFIABLE needs a verified witness on an
// objective-free problem. StatusError passes through unchanged. Defense in
// depth: no member bug, and no inconsistent instance/problem pair, can
// turn into a wrong verdict of the race.
func verifyClaim(p *pb.Problem, ubOnly bool, res core.Result) core.Result {
	if res.Status == core.StatusError {
		return res
	}
	if res.HasSolution && (len(res.Values) != p.NumVars || !p.Feasible(res.Values) ||
		p.ObjectiveValue(res.Values) != res.Best) {
		res.HasSolution, res.Best, res.Values = false, 0, nil
		res.Status = core.StatusLimit
	}
	switch res.Status {
	case core.StatusOptimal:
		if ubOnly || !res.HasSolution {
			res.Status = core.StatusLimit
		}
	case core.StatusUnsat:
		if ubOnly {
			res.Status = core.StatusLimit
		}
	case core.StatusSatisfiable:
		if p.HasObjective() || !res.HasSolution {
			res.Status = core.StatusLimit
		}
	}
	return res
}

func (c Config) name() string {
	if c.Name != "" {
		return c.Name
	}
	if c.LS != nil {
		return "ls"
	}
	if c.CoreGuided != nil {
		return "core-guided"
	}
	return c.Options.LowerBound.String()
}
