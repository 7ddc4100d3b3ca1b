// Package ls is the stochastic local-search portfolio member: a score-based
// PBO worker in the spirit of ParLS-PBO (see PAPERS.md) that searches for
// good feasible assignments by flipping variables, never by proving bounds.
//
// The solver keeps the problem's normalized rows in the engine's flat SoA
// layout (engine.ScoreRows) and maintains, per row, the true-literal
// coefficient sum; a row is violated when that sum falls short of its degree,
// and the violation *amount* — weighted by a dynamically adapted per-row
// weight — is what flip selection scores. Each step picks a violated row
// (or, once hard-feasible, the objective treated as a soft row cost ≤ best−1),
// and flips either the best-scoring variable of that row or, with the noise
// probability, a random one (WalkSAT-style); stuck steps bump the weights of
// everything currently violated (PAWS-style), so frequently violated rows
// dominate later scores. All randomness comes from one explicitly seeded RNG,
// matching the engine's explicit-randomness rule: a run with a fixed Seed and
// no board attached is bit-reproducible.
//
// As a portfolio member the worker is UB-only: it publishes every strictly
// improving incumbent to the sharing board — instantly tightening every
// branch-and-bound member's `path + lower ≥ upper` pruning and interrupting
// their in-flight bound estimations via bounds.Budget.Interrupt — and imports
// the board's best incumbent as a restart point (ParLS-PBO's solution-pool
// coupling). It can witness satisfiability (a verified feasible assignment IS
// a certificate on objective-free instances) but never exhaustion: Result has
// no "optimal" or "unsat" verdict at all, and the portfolio layer additionally
// refuses such claims from UB-only members (see internal/portfolio).
package ls

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/audit"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pb"
)

// Pool is the board surface the LS member uses: incumbent exchange only.
// share.Member implements it (asserted in internal/portfolio, keeping the
// import direction one-way); the clause half of core.Sharer is deliberately
// absent — an LS member neither learns nor consumes clauses, and joins the
// board with clause participation opted out.
type Pool interface {
	// PublishIncumbent offers a feasible solution (internal cost, excluding
	// CostOffset); true when it became the new global best.
	PublishIncumbent(cost int64, values []bool) bool
	// BestUB returns the global internal upper bound (one atomic load).
	BestUB() (int64, bool)
	// BestIncumbent returns a private copy of the global best solution when
	// its cost is strictly below the threshold.
	BestIncumbent(below int64) (cost int64, values []bool, ok bool)
}

// Options configures one local-search run. The zero value searches forever
// (bound it with MaxFlips, Deadline, or Cancel).
type Options struct {
	// Seed seeds the solver's explicit RNG. Runs with the same Seed and no
	// board are bit-reproducible; portfolio members carry distinct seeds.
	Seed int64
	// MaxFlips bounds the total number of flips (0 = unlimited).
	MaxFlips int64
	// Deadline is the absolute wall-clock stop time (zero = none).
	Deadline time.Time
	// Cancel, when non-nil, stops the search as soon as it is closed.
	Cancel <-chan struct{}
	// Share, when non-nil, connects the worker to a portfolio board.
	Share Pool
	// Audit, when non-nil, re-verifies every incumbent and the terminal
	// upper-bound claim against the original problem.
	Audit *audit.Auditor
	// Trace, when non-nil, records lifecycle events (start/end, incumbents,
	// restarts, board publications).
	Trace *obs.Tracer
	// Live, when non-nil, receives periodic metrics snapshots (flips,
	// restarts, incumbent) plus one terminal publish.
	Live *obs.Live
	// OnIncumbent, when non-nil, is invoked with the external objective
	// (including CostOffset) at every strict improvement.
	OnIncumbent func(best int64)
}

// Result is the outcome of a local-search run. There is deliberately no
// optimal/unsat verdict: the worker contributes upper bounds and SAT
// witnesses only.
type Result struct {
	// HasSolution reports whether any feasible assignment was found.
	HasSolution bool
	// Best is the external objective (including CostOffset) of the best
	// solution; meaningful only with HasSolution.
	Best int64
	// Values is the best assignment.
	Values []bool
	// Satisfiable is set when the instance has no objective and a verified
	// feasible assignment was found — a sound SAT certificate.
	Satisfiable bool
	// Stats of the run.
	Stats Stats
}

// Stats counts local-search events.
type Stats struct {
	Flips        int64
	Restarts     int64
	Improvements int64 // strict local incumbent improvements
	StuckSteps   int64 // steps that bumped constraint weights
	// BoardImports counts restarts seeded from a board incumbent;
	// BoardPublished/BoardWon the incumbents offered to/accepted by the
	// board.
	BoardImports   int64
	BoardPublished int64
	BoardWon       int64
}

// Solver maps the LS counters onto the metrics schema's solver block:
// flips, restarts, improvements as solutions, and the incumbent exchange
// with the board (zero without one). The live publish and the portfolio's
// member result both use this one mapping.
func (st *Stats) Solver() obs.SolverStats {
	return obs.SolverStats{
		Restarts:  st.Restarts,
		Solutions: st.Improvements,
		Flips:     st.Flips,
		Sharing: obs.SharingStats{
			IncumbentsPublished: st.BoardPublished,
			IncumbentsWon:       st.BoardWon,
			ForeignIncumbents:   st.BoardImports,
		},
	}
}

// upperInf mirrors core's "no incumbent" sentinel.
const upperInf = int64(math.MaxInt64 / 2)

const (
	// noise is the probability of a random (non-greedy) flip inside the
	// selected row.
	noise = 0.12
	// restartInterval is the number of flips without a new best incumbent
	// before the solver restarts — from the board's incumbent when one
	// strictly better than its own exists, otherwise by perturbing its best
	// known assignment.
	restartInterval = 4096
	// checkEvery is the flip cadence of the deadline/cancel/board-UB poll.
	checkEvery = 256
	// liveEvery is the flip cadence of Live metric publishes.
	liveEvery = 4096
	// maxWeight caps the dynamic row weights (bounds score magnitudes).
	maxWeight = 1 << 20
	// perturbFrac is the fraction of variables flipped when a restart
	// perturbs the best known assignment instead of importing one.
	perturbFrac = 8
)

type solver struct {
	prob *pb.Problem
	rows *engine.ScoreRows
	opt  Options
	rng  *rand.Rand

	values []bool  // current assignment
	lhs    []int64 // per-row true-coef sum
	weight []int64 // per-row dynamic weight
	unsat  []int32 // violated rows
	pos    []int32 // row -> index in unsat (-1 = satisfied)

	cost      int64 // internal objective (excluding CostOffset)
	objWeight int64

	best     int64  // best internal cost found locally
	bestVals []bool // copy of the best assignment, re-verified against prob

	boardUB int64 // last polled board UB

	// hopeless marks an instance with a row whose coefficient sum falls
	// short of its degree: no assignment satisfies it (normalization can
	// even leave such a row with no literals at all), so flipping is
	// pointless and the run ends immediately — with no claim, as always.
	hopeless bool

	stats        Stats
	sinceImprove int64
	expired      bool
	satisfiable  bool

	trace *obs.Tracer
}

// Solve runs local search on p under the given options.
func Solve(p *pb.Problem, opt Options) Result {
	s := newSolver(p, opt)
	s.trace.Emit(obs.EvSolveStart, "ls", int64(s.prob.NumVars), int64(s.rows.NumRows()), "")
	s.run()
	return s.finish()
}

// newSolver builds a ready-to-run solver. Split from Solve so package tests
// can drive the flip loop and invariants directly.
func newSolver(p *pb.Problem, opt Options) *solver {
	s := &solver{prob: p, opt: opt, best: upperInf, boardUB: upperInf}
	s.trace = opt.Trace
	s.rng = rand.New(rand.NewSource(mixSeed(opt.Seed)))

	s.rows = engine.NewScoreRows(s.prob)
	n := s.prob.NumVars
	s.values = make([]bool, n)
	s.lhs = make([]int64, s.rows.NumRows())
	s.weight = make([]int64, s.rows.NumRows())
	s.pos = make([]int32, s.rows.NumRows())
	for i := range s.weight {
		s.weight[i] = 1
	}
	s.objWeight = 1
	for i := int32(0); i < int32(s.rows.NumRows()); i++ {
		var sum int64
		for _, c := range s.rows.RowCoefs(i) {
			sum += c
		}
		if sum < s.rows.Degree[i] {
			s.hopeless = true
			break
		}
	}
	s.initAssignment()
	s.rebuild()
	return s
}

// mixSeed keeps seed 0 usable (a zero rand source is legal but correlates
// members that forgot to set seeds; the mix keeps distinct seeds distinct).
func mixSeed(seed int64) int64 {
	if seed == 0 {
		return 0x6c73 // "ls"
	}
	return seed
}

// initAssignment starts from the objective-greedy corner: every costed
// variable false (cost 0), free variables biased by their occurrence
// polarity so fewer rows start violated.
func (s *solver) initAssignment() {
	for v := 0; v < s.prob.NumVars; v++ {
		if s.prob.Cost[v] != 0 {
			s.values[v] = false
			continue
		}
		var up, down int64
		for _, ref := range s.rows.RefsOf(pb.Var(v)) {
			if ref.Delta > 0 {
				up += ref.Delta
			} else {
				down -= ref.Delta
			}
		}
		s.values[v] = up >= down
	}
}

// rebuild recomputes lhs, the violated set and the cost from values.
func (s *solver) rebuild() {
	s.unsat = s.unsat[:0]
	for i := int32(0); i < int32(s.rows.NumRows()); i++ {
		s.lhs[i] = s.rows.TrueSum(i, s.values)
		if s.lhs[i] < s.rows.Degree[i] {
			s.pos[i] = int32(len(s.unsat))
			s.unsat = append(s.unsat, i)
		} else {
			s.pos[i] = -1
		}
	}
	s.cost = 0
	for v, c := range s.prob.Cost {
		if c != 0 && s.values[v] {
			s.cost += c
		}
	}
}

// target is the internal cost the objective row demands: one below the best
// incumbent known anywhere (local or board). upperInf-1 when none is known
// (the objective exerts no pressure yet).
func (s *solver) target() int64 {
	t := s.best
	if s.boardUB < t {
		t = s.boardUB
	}
	return t - 1
}

func (s *solver) run() {
	if s.hopeless {
		return
	}
	for {
		if s.stats.Flips%checkEvery == 0 && s.stopNow() {
			return
		}
		if s.opt.MaxFlips > 0 && s.stats.Flips >= s.opt.MaxFlips {
			return
		}
		if len(s.unsat) == 0 {
			if !s.hardFeasibleStep() {
				return
			}
			continue
		}
		if s.sinceImprove >= restartInterval {
			s.restart()
			continue
		}
		s.violatedStep()
	}
}

// stopNow polls the deadline, the cancel channel, the board upper bound and
// the Live cadence. Sticky once true.
func (s *solver) stopNow() bool {
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
	s.pollBoardUB()
	if s.opt.Live != nil && s.stats.Flips%liveEvery == 0 {
		s.publishLive("")
	}
	return false
}

// hardFeasibleStep handles a state with every hard row satisfied: record the
// incumbent if it improves, then either stop (nothing left to optimize) or
// put pressure on the objective row. Returns false to end the run.
func (s *solver) hardFeasibleStep() bool {
	if s.cost < s.best {
		s.recordIncumbent()
		if s.satisfiable {
			return false // objective-free: the witness is the whole job
		}
	}
	if s.best == 0 {
		// Internal cost 0 is the floor of a normal-form objective; no
		// strictly better incumbent exists to search for. Stop flipping —
		// the proof that 0 is optimal belongs to the B&B members.
		return false
	}
	if s.cost <= s.target() {
		// Matching the board's best without beating it: perturb away.
		s.perturb()
		return true
	}
	s.objectiveStep()
	return true
}

// pollBoardUB lowers boardUB to the board's upper bound (no-op without a
// board).
func (s *solver) pollBoardUB() {
	if s.opt.Share == nil {
		return
	}
	if ub, ok := s.opt.Share.BestUB(); ok && ub < s.boardUB {
		s.boardUB = ub
	}
}

// recordIncumbent re-verifies and publishes the current (hard-feasible)
// assignment as the new best incumbent.
func (s *solver) recordIncumbent() {
	// Defensive re-verification from scratch before anything escapes: a
	// bug in the incremental scorer must quarantine the assignment, not
	// poison the board, the auditor, or the caller.
	ext := s.prob.ObjectiveValue(s.values)
	if !s.prob.Feasible(s.values) || ext-s.prob.CostOffset != s.cost {
		return
	}
	s.best = s.cost
	s.bestVals = append(s.bestVals[:0], s.values...)
	s.stats.Improvements++
	s.sinceImprove = 0
	if !s.prob.HasObjective() {
		s.satisfiable = true
	}
	s.trace.Emit(obs.EvIncumbent, "ls", ext, s.stats.Flips, "local")
	s.opt.Audit.Incumbent(ext, s.bestVals)
	if s.opt.OnIncumbent != nil {
		s.opt.OnIncumbent(ext)
	}
	if s.opt.Share != nil {
		s.stats.BoardPublished++
		if s.opt.Share.PublishIncumbent(s.cost, s.bestVals) {
			s.stats.BoardWon++
			s.trace.Emit(obs.EvSharePublish, "incumbent", ext, 0, "won")
		} else {
			s.trace.Emit(obs.EvSharePublish, "incumbent", ext, 0, "lost")
		}
		s.pollBoardUB()
	}
}

// violation is the amount by which a row misses its degree (0 = satisfied).
func violation(lhs, degree int64) int64 {
	if lhs >= degree {
		return 0
	}
	return degree - lhs
}

// flipGain scores flipping v: the weighted decrease in total violation
// (hard rows) plus the weighted objective relief. Positive = improving.
func (s *solver) flipGain(v pb.Var, tgt int64) int64 {
	toTrue := !s.values[v]
	var gain int64
	for _, ref := range s.rows.RefsOf(v) {
		d := ref.Delta
		if !toTrue {
			d = -d
		}
		old := s.lhs[ref.Row]
		deg := s.rows.Degree[ref.Row]
		gain += s.weight[ref.Row] * (violation(old, deg) - violation(old+d, deg))
	}
	if c := s.prob.Cost[v]; c != 0 {
		dc := c
		if !toTrue {
			dc = -c
		}
		gain += s.objWeight * (objViolation(s.cost, tgt) - objViolation(s.cost+dc, tgt))
	}
	return gain
}

// objViolation is how far the cost exceeds the target (the soft objective
// row cost ≤ target), 0 before any incumbent exists.
func objViolation(cost, tgt int64) int64 {
	if tgt >= upperInf-1 || cost <= tgt {
		return 0
	}
	return cost - tgt
}

// violatedStep makes one flip driven by a random violated row.
func (s *solver) violatedStep() {
	ri := s.unsat[s.rng.Intn(len(s.unsat))]
	lits := s.rows.RowLits(ri)
	if s.rng.Float64() < noise {
		s.flip(lits[s.rng.Intn(len(lits))].Var())
		return
	}
	tgt := s.target()
	bestVar := pb.Var(-1)
	bestGain := int64(math.MinInt64)
	picks := 0
	for _, l := range lits {
		v := l.Var()
		g := s.flipGain(v, tgt)
		switch {
		case g > bestGain:
			bestGain, bestVar, picks = g, v, 1
		case g == bestGain:
			// Reservoir tie-break keeps selection uniform among the best.
			picks++
			if s.rng.Intn(picks) == 0 {
				bestVar = v
			}
		}
	}
	if bestGain <= 0 {
		// Local optimum for this row: reweight everything currently
		// violated so the landscape tilts, then take the move anyway
		// (sideways/downhill escape).
		s.bumpWeights()
	}
	s.flip(bestVar)
}

// objectiveStep makes one flip driven by the objective row: turn off a
// costed true variable, preferring flips that keep hard rows satisfied.
func (s *solver) objectiveStep() {
	tgt := s.target()
	bestVar := pb.Var(-1)
	bestGain := int64(math.MinInt64)
	picks := 0
	for v := 0; v < s.prob.NumVars; v++ {
		if !s.values[v] || s.prob.Cost[v] == 0 {
			continue
		}
		g := s.flipGain(pb.Var(v), tgt)
		switch {
		case g > bestGain:
			bestGain, bestVar, picks = g, pb.Var(v), 1
		case g == bestGain:
			picks++
			if s.rng.Intn(picks) == 0 {
				bestVar = pb.Var(v)
			}
		}
	}
	if bestVar < 0 {
		// No costed variable is on, yet cost > target: impossible (costs are
		// non-negative); treat as converged.
		s.perturb()
		return
	}
	if bestGain <= 0 {
		s.bumpWeights()
		if s.rng.Float64() < noise {
			// Noise escape: a random costed true variable instead.
			var cands []pb.Var
			for v := 0; v < s.prob.NumVars; v++ {
				if s.values[v] && s.prob.Cost[v] != 0 {
					cands = append(cands, pb.Var(v))
				}
			}
			bestVar = cands[s.rng.Intn(len(cands))]
		}
	}
	s.flip(bestVar)
}

// bumpWeights increments the weight of every violated row (and the
// objective's when the cost exceeds the target), PAWS-style.
func (s *solver) bumpWeights() {
	s.stats.StuckSteps++
	for _, ri := range s.unsat {
		if s.weight[ri] < maxWeight {
			s.weight[ri]++
		}
	}
	if objViolation(s.cost, s.target()) > 0 && s.objWeight < maxWeight {
		s.objWeight++
	}
}

// flip applies one variable flip and updates lhs, the violated set and the
// cost incrementally.
func (s *solver) flip(v pb.Var) {
	toTrue := !s.values[v]
	s.values[v] = toTrue
	for _, ref := range s.rows.RefsOf(v) {
		d := ref.Delta
		if !toTrue {
			d = -d
		}
		old := s.lhs[ref.Row]
		now := old + d
		s.lhs[ref.Row] = now
		deg := s.rows.Degree[ref.Row]
		wasViol := old < deg
		isViol := now < deg
		switch {
		case isViol && !wasViol:
			s.pos[ref.Row] = int32(len(s.unsat))
			s.unsat = append(s.unsat, ref.Row)
		case wasViol && !isViol:
			s.removeUnsat(ref.Row)
		}
	}
	if c := s.prob.Cost[v]; c != 0 {
		if toTrue {
			s.cost += c
		} else {
			s.cost -= c
		}
	}
	s.stats.Flips++
	s.sinceImprove++
}

// removeUnsat drops row ri from the violated set (swap-with-last).
func (s *solver) removeUnsat(ri int32) {
	i := s.pos[ri]
	last := s.unsat[len(s.unsat)-1]
	s.unsat[i] = last
	s.pos[last] = i
	s.unsat = s.unsat[:len(s.unsat)-1]
	s.pos[ri] = -1
}

// restart reseeds the assignment: from the board's incumbent when one
// strictly better than our best exists (imported at a restart boundary only,
// into a private copy — the working assignment is never overwritten
// mid-flip-batch), otherwise by perturbing the best known assignment.
func (s *solver) restart() {
	s.stats.Restarts++
	s.sinceImprove = 0
	detail := "perturb"
	if s.opt.Share != nil {
		// BestIncumbent returns a snapshot copied under the board lock; the
		// board may improve concurrently, but this copy is immutable and
		// internally consistent (cost matches values).
		if c, vals, ok := s.opt.Share.BestIncumbent(s.best); ok {
			s.adoptBoard(c, vals)
			detail = "board-import"
		}
	}
	if detail == "perturb" {
		s.perturb()
	}
	s.trace.Emit(obs.EvRestart, "ls", s.stats.Restarts, s.stats.Flips, detail)
}

// adoptBoard restarts from a board incumbent. The assignment need not be
// feasible or cost what the board claims — it is only a restart point, and
// nothing is published back without the usual re-verification.
func (s *solver) adoptBoard(cost int64, vals []bool) {
	s.stats.BoardImports++
	if cost < s.boardUB {
		s.boardUB = cost
	}
	if len(vals) != s.prob.NumVars {
		// A malformed board entry (wrong problem?) must not tear the
		// assignment arrays; keep our own state and perturb instead.
		s.perturb()
		return
	}
	copy(s.values, vals)
	s.rebuild()
}

// perturb random-flips a fraction of the variables starting from the best
// known assignment (or the current one before any incumbent exists).
func (s *solver) perturb() {
	if s.bestVals != nil {
		copy(s.values, s.bestVals)
	}
	n := s.prob.NumVars
	if n == 0 {
		return
	}
	k := n/perturbFrac + 1
	for i := 0; i < k; i++ {
		v := s.rng.Intn(n)
		s.values[v] = !s.values[v]
	}
	s.rebuild()
	s.sinceImprove = 0
}

// finish assembles the result and the terminal claims.
func (s *solver) finish() Result {
	res := Result{Stats: s.stats}
	if s.bestVals != nil {
		res.HasSolution = true
		res.Best = s.best + s.prob.CostOffset
		res.Values = append([]bool(nil), s.bestVals...)
		res.Satisfiable = s.satisfiable
	}
	switch {
	case res.Satisfiable:
		s.opt.Audit.Termination(audit.Claim{Satisfiable: true})
	case res.HasSolution:
		s.opt.Audit.Termination(audit.Claim{UpperBound: true, Best: res.Best})
	}
	status := "limit"
	if res.Satisfiable {
		status = "satisfiable"
	}
	s.trace.Emit(obs.EvSolveEnd, "ls", s.stats.Flips, s.stats.Improvements, status)
	s.publishLive(status)
	return res
}

// publishLive pushes a metrics snapshot (status "" while running).
func (s *solver) publishLive(status string) {
	if s.opt.Live == nil {
		return
	}
	m := obs.SolverMetrics{Status: status, SolverStats: s.stats.Solver()}
	if s.bestVals != nil {
		b := s.best + s.prob.CostOffset
		m.Best = &b
	}
	s.opt.Live.Publish(m)
}

// CheckInvariants recomputes the scorer's incremental state from scratch and
// reports the first inconsistency (nil = consistent). Test hook: the race
// and fuzz tests call it after scrambling the board mid-run.
func (s *solver) CheckInvariants() error {
	return checkState(s.rows, s.values, s.lhs, s.unsat, s.pos, s.prob, s.cost)
}
