package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// The unified metrics snapshot schema. The counter blocks below ARE the
// solver stack's native counters: core counts into SolverStats, the bound
// pipeline into BoundsStats and ProcStats, the cut pool into CutStats, a
// portfolio member into SharingStats, the core-guided member into
// CoreGuidedStats and the sharing board into BoardStats.
// Each counter is declared once, with its repro.metrics/v1 key as its JSON
// tag, and no converter sits between the solver and the document. The same
// document is served live by the registry (`bsolo -debug-addr`), written at
// end-of-run (`bsolo -metrics`), and printed by `bsolo -stats`
// (PrintCounters).
//
// Encoding rules, kept next to the types that carry them:
//   - durations are Duration fields, encoded as float64 milliseconds at
//     microsecond resolution (reduce_ms, time_ms, sep_ms); timestamps are
//     int64 Unix milliseconds;
//   - a solver block's "sharing" is omitted unless SharingStats.Active
//     (SolverMetrics.MarshalJSON);
//   - a bounds block's "cuts" is omitted when nothing was separated
//     (BoundsStats.MarshalJSON);
//   - a solver block's "core_guided" is present only for the core-guided
//     member (a nil pointer, omitempty).
//
// Neither of the first two rules is a MarshalJSON on SolverStats: that method would be
// promoted through the embedding in SolverMetrics and drop the envelope's
// name, status and best. Changing field meaning (not merely adding fields)
// requires bumping SchemaVersion.

// SchemaVersion identifies the metrics snapshot layout.
const SchemaVersion = "repro.metrics/v1"

// Snapshot is the top-level unified metrics document.
type Snapshot struct {
	// Schema is SchemaVersion.
	Schema string `json:"schema"`
	// TakenUnixMs is when the snapshot was assembled.
	TakenUnixMs int64 `json:"taken_unix_ms"`
	// UptimeMs is milliseconds since the registry (≈ the run) started.
	UptimeMs float64 `json:"uptime_ms"`
	// Meta carries free-form run labels (instance name, flags, mode).
	Meta map[string]string `json:"meta,omitempty"`
	// Solvers holds one entry per registered solver (one for a single
	// solve, one per member for a portfolio), in registration order.
	Solvers []SolverMetrics `json:"solvers"`
	// Board is the sharing board's global counters (nil without sharing).
	Board *BoardStats `json:"board,omitempty"`
}

// SolverMetrics is one solver's (or portfolio member's) entry: the envelope
// the registry and the solver stamp, around the solver's counter block.
type SolverMetrics struct {
	// Name labels the solver (the lower-bound method, or the member name).
	Name string `json:"name"`
	// Status is the terminal verdict ("" while the solve is running).
	Status string `json:"status,omitempty"`
	// Best is the incumbent objective (nil when no solution is known).
	Best *int64 `json:"best,omitempty"`
	SolverStats
}

// MarshalJSON omits the sharing block of a solve that recorded no sharing
// event. The embedded plain copy keeps every other field's tag; the outer
// Sharing field shadows the embedded one.
func (m SolverMetrics) MarshalJSON() ([]byte, error) {
	type plain SolverMetrics
	out := struct {
		plain
		Sharing *SharingStats `json:"sharing,omitempty"`
	}{plain: plain(m)}
	if m.Sharing.Active() {
		out.Sharing = &m.Sharing
	}
	return json.Marshal(out)
}

// SolverStats counts one solve's events (core.Stats). The engine counters
// (decisions, conflicts, propagations, learned, imported and random
// decisions) are folded in when core assembles a snapshot.
type SolverStats struct {
	Decisions      int64 `json:"decisions"`
	Conflicts      int64 `json:"conflicts"`       // BCP conflicts
	BoundConflicts int64 `json:"bound_conflicts"` // §4 bound conflicts
	BoundCalls     int64 `json:"bound_calls"`     // lower bound estimations
	BoundPrunes    int64 `json:"bound_prunes"`    // estimations that triggered a bound conflict
	Solutions      int64 `json:"solutions"`
	Restarts       int64 `json:"restarts"`
	// KnapsackCuts and CardCuts count the eq. 10 and eq. 13 incumbent rows
	// installed or tightened: one per row at each incumbent that builds
	// them. Under branch and bound, an incumbent that the adopting root node
	// proves optimal builds none.
	KnapsackCuts int64 `json:"knapsack_cuts"`
	CardCuts     int64 `json:"card_cuts"`
	// NCBSavedLevels accumulates, over bound conflicts, how many decision
	// levels each backjump skipped beyond the chronological single level.
	NCBSavedLevels int64 `json:"ncb_saved_levels"`
	Propagations   int64 `json:"propagations"`
	// LearnedClauses counts the constraints conflict analysis derived (its
	// clauses and PB-learning cutting planes) and the imported clauses; the
	// incumbent rows counted by KnapsackCuts and CardCuts are not in it.
	LearnedClauses int64 `json:"learned_clauses"`
	// PBLearned counts cutting-plane constraints derived by PB learning.
	PBLearned int64 `json:"pb_learned"`
	// PBCardNormalized counts learned PB constraints recognized as semantic
	// cardinality constraints and rewritten with unit coefficients
	// (cuts.DetectCardinality): e.g. 3x+3y+2z ≥ 5 becomes x+y+z ≥ 2.
	PBCardNormalized int64 `json:"pb_card_normalized"`
	// LPIncumbents counts incumbents taken from an LPR point rather than
	// from a search leaf (see core.Options.NoLPIncumbent).
	LPIncumbents int64 `json:"lp_incumbents"`

	// Resilience counters (the fallback ladder of the bound procedures).
	//
	// BoundFailures counts primary bound calls that failed hard: a panic
	// recovered inside the estimation, a numerical failure (NaN/Inf), or an
	// LP solver error.
	BoundFailures int64 `json:"bound_failures"`
	// BoundPanics counts the subset of BoundFailures that were recovered
	// panics (genuine or injected via internal/fault).
	BoundPanics int64 `json:"bound_panics"`
	// BoundFallbacks counts nodes whose bound was rescued by the MIS
	// fallback after the primary procedure failed or returned no usable
	// bound within its budget.
	BoundFallbacks int64 `json:"bound_fallbacks"`
	// BoundDemotions counts circuit-breaker trips: after 8 (core's fallbackAfter)
	// consecutive failures the primary method is demoted to MIS for the
	// rest of the run (at most 1 per run today; kept a counter for the
	// portfolio's aggregated stats).
	BoundDemotions int64 `json:"bound_demotions"`
	// BoundTimeouts counts bound calls that exhausted their per-node
	// wall-clock budget (sound anytime bound used; not a failure).
	BoundTimeouts int64 `json:"bound_timeouts"`

	// ImportedClauses mirrors the engine's count of installed foreign
	// clauses (units + watched).
	ImportedClauses int64 `json:"imported_clauses"`
	// RandomDecisions counts seeded-RNG branch picks (core.Options.Seed /
	// RandomBranchFreq).
	RandomDecisions int64 `json:"random_decisions"`

	// Flips counts local-search moves; always 0 for branch-and-bound
	// members, set when a portfolio maps an internal/ls worker's outcome
	// into this shape.
	Flips int64 `json:"flips,omitempty"`

	// CoreGuided is the core-guided member's block; nil, and absent from
	// the document, for every other solver.
	CoreGuided *CoreGuidedStats `json:"core_guided,omitempty"`

	// Bounds is the bound-pipeline block: reduction mode and cost,
	// per-estimator call/time/strength aggregates, and the LP warm-start
	// counters.
	Bounds BoundsStats `json:"bounds"`

	// Sharing counts cooperative-portfolio events (all zero without a
	// board): incumbents published/adopted, clauses exchanged, pruning
	// attributable to foreign upper bounds.
	Sharing SharingStats `json:"sharing"`
}

// CoreGuidedStats counts one core-guided (WPM1) solve.
type CoreGuidedStats struct {
	// Iterations counts engine sub-solves; Cores counts extracted unsat
	// cores (Iterations = Cores + 1 on a clean optimal run).
	Iterations int64 `json:"iterations"`
	Cores      int64 `json:"cores"`
	// CardRewrites counts compiled rows normalized to cardinality form.
	CardRewrites int64 `json:"card_rewrites"`
	// LowerBound is the proved lower bound on the compiled objective (the
	// penalty minus the instance offset; 0 after a crash); at an optimum it
	// equals best.
	LowerBound int64 `json:"lower_bound"`
}

// BoundsStats is the bound-pipeline block: reduced-problem construction cost plus one ProcStats per estimator, and
// the LP warm-start counters when LPR ran with persistent state.
type BoundsStats struct {
	// Reduces counts reduced-problem constructions; ReduceTime their total
	// wall-clock cost.
	Reduces    int64    `json:"reduces"`
	ReduceTime Duration `json:"reduce_ms"`

	// Warm-start counters (LPR with persistent state only).
	//
	// WarmSolves counts LP solves that reused the previous basis;
	// ColdSolves counts from-scratch solves (first node, invalidations, and
	// warm attempts that fell back); WarmFallbacks is the subset of
	// ColdSolves where a warm start was attempted but abandoned (dimension
	// mapping too poor, numerical trouble, corrupted basis).
	WarmSolves    int64 `json:"lp_warm_solves"`
	ColdSolves    int64 `json:"lp_cold_solves"`
	WarmFallbacks int64 `json:"lp_warm_fallbacks"`

	// Cuts is the cut-pool block (zero when LPR ran without a pool).
	Cuts CutStats `json:"cuts"`

	// Per maps estimator name ("lpr", "lgr", "mis", "plain") to its
	// aggregate.
	Per map[string]*ProcStats `json:"per,omitempty"`
}

// MarshalJSON omits the cuts block when no separation round ran.
func (s BoundsStats) MarshalJSON() ([]byte, error) {
	type plain BoundsStats
	out := struct {
		plain
		Cuts *CutStats `json:"cuts,omitempty"`
	}{plain: plain(s)}
	if s.Cuts.Rounds > 0 || s.Cuts.Separated > 0 {
		out.Cuts = &s.Cuts
	}
	return json.Marshal(out)
}

// Clone returns a deep copy: the Per map and its ProcStats entries are
// duplicated, so the copy can be handed to another goroutine (the live
// metrics registry) or frozen into a result while the original keeps
// mutating.
func (s BoundsStats) Clone() BoundsStats {
	out := s
	if s.Per != nil {
		out.Per = make(map[string]*ProcStats, len(s.Per))
		for name, p := range s.Per {
			cp := *p
			out.Per[name] = &cp
		}
	}
	return out
}

// Proc returns (allocating on demand) the ProcStats for name.
func (s *BoundsStats) Proc(name string) *ProcStats {
	if s.Per == nil {
		s.Per = make(map[string]*ProcStats, 4)
	}
	p := s.Per[name]
	if p == nil {
		p = &ProcStats{}
		s.Per[name] = p
	}
	return p
}

// TotalTime returns the wall-clock spent across reduction and all
// estimators (the bound pipeline's share of the solve).
func (s *BoundsStats) TotalTime() time.Duration {
	t := time.Duration(s.ReduceTime)
	for _, p := range s.Per {
		t += time.Duration(p.Time)
	}
	return t
}

// TotalCalls returns the estimation call count across estimators.
func (s *BoundsStats) TotalCalls() int64 {
	var c int64
	for _, p := range s.Per {
		c += p.Calls
	}
	return c
}

// ProcStats aggregates one lower-bound procedure over a run: call volume,
// wall-clock cost, bound strength, and failure/incompleteness counts.
type ProcStats struct {
	// Calls counts estimation calls (including failed ones).
	Calls int64 `json:"calls"`
	// Time accumulates wall-clock spent inside Estimate.
	Time Duration `json:"time_ms"`
	// BoundSum accumulates finite returned bounds; BoundSum over the
	// successful calls (Calls − Failed − Infinite) is the mean bound
	// strength. Infeasibility bounds are excluded and counted in Infinite
	// instead, so one hopeless node cannot drown the average.
	BoundSum int64 `json:"bound_sum"`
	// MaxBound is the largest finite bound returned.
	MaxBound int64 `json:"max_bound"`
	// Infinite counts calls that proved the node infeasible.
	Infinite int64 `json:"infinite"`
	// Incomplete counts calls that hit their iteration or wall-clock budget
	// (sound, merely weaker bounds).
	Incomplete int64 `json:"incomplete"`
	// Failed counts hard failures (numerical corruption, solver errors).
	Failed int64 `json:"failed"`
	// Panics counts the subset of Failed that were recovered panics.
	Panics int64 `json:"panics"`
	// Prunes counts calls whose bound triggered a bound conflict.
	Prunes int64 `json:"prunes"`
}

// CutStats is the cut-pool block (cuts.Pool.Counters).
type CutStats struct {
	// Separated counts cuts accepted into the pool.
	Separated int64 `json:"separated"`
	// Duplicates counts separated cuts rejected by the duplicate hash
	// (the violated inequality was already pooled).
	Duplicates int64 `json:"duplicates"`
	// Rounds counts separation rounds run.
	Rounds int64 `json:"rounds"`
	// Applied counts cut columns installed into node LPs (summed over
	// estimations: 3 live cuts over 10 nodes ⇒ 30).
	Applied int64 `json:"applied"`
	// Active is the live pool size at snapshot time.
	Active int64 `json:"active"`
	// Pruned counts cuts evicted by activity aging.
	Pruned int64 `json:"pruned"`
	// SepTime is the wall clock spent inside separation rounds.
	SepTime Duration `json:"sep_ms"`
}

// SharingStats counts one portfolio member's cooperative events.
type SharingStats struct {
	// IncumbentsPublished counts local incumbents offered to the board;
	// IncumbentsWon the subset that became the global best.
	IncumbentsPublished int64 `json:"incumbents_published"`
	IncumbentsWon       int64 `json:"incumbents_won"`
	// ForeignIncumbents counts upper bounds adopted from other members.
	ForeignIncumbents int64 `json:"foreign_incumbents"`
	// ForeignRejected counts board incumbents that failed re-verification
	// (infeasible, wrong length, or a cost mismatch) and were NOT adopted.
	// Always 0 on a healthy board: a nonzero count means a member published
	// a corrupt certificate — with UB-only members in the portfolio this
	// check is what keeps a bad incumbent from ever becoming part of an
	// exhaustion proof.
	ForeignRejected int64 `json:"foreign_rejected,omitempty"`
	// ForeignUBPrunes counts nodes pruned (path or bound conflicts) while
	// the incumbent in force was a foreign adoption — pruning this member
	// only got because another member found the solution.
	ForeignUBPrunes int64 `json:"foreign_ub_prunes"`
	// UBInterrupts counts bound estimations cut short because a foreign
	// incumbent dropped the target mid-call (bounds.Budget.Interrupt).
	UBInterrupts int64 `json:"ub_interrupts"`
	// ClausesPublished / ClausesRejected count the exchange's verdicts on
	// this member's learned clauses (rejected = length/LBD filter or dup).
	ClausesPublished int64 `json:"clauses_published"`
	ClausesRejected  int64 `json:"clauses_rejected"`
	// ClausesImported counts foreign clauses installed into the engine
	// (ImportedUnits is the subset that arrived as root units).
	ClausesImported int64 `json:"clauses_imported"`
	ImportedUnits   int64 `json:"imported_units"`
	// ImportsDropped counts imports that were already satisfied or
	// tautological; ImportsRejected counts structurally invalid (corrupt)
	// imports; ImportConflicts counts imports conflicting at the root
	// (converted into exhaustion proofs).
	ImportsDropped  int64 `json:"imports_dropped"`
	ImportsRejected int64 `json:"imports_rejected"`
	ImportConflicts int64 `json:"import_conflicts"`
}

// Active reports whether any sharing event was recorded.
func (s *SharingStats) Active() bool {
	return s.IncumbentsPublished != 0 || s.ForeignIncumbents != 0 ||
		s.ClausesPublished != 0 || s.ClausesRejected != 0 ||
		s.ClausesImported != 0 || s.ImportsDropped != 0 ||
		s.ImportsRejected != 0 || s.ImportConflicts != 0 ||
		s.ForeignUBPrunes != 0 || s.UBInterrupts != 0 ||
		s.ForeignRejected != 0
}

// BoardStats is the sharing board's global block (share.Board.Snapshot).
type BoardStats struct {
	// Members is the number of handles issued by Join/JoinNoClauses.
	Members int `json:"members"`
	// ClauseMembers counts the members participating in clause exchange;
	// UB-only members (local search) join with clauses opted out and are
	// excluded from ring cursor/lap accounting.
	ClauseMembers int `json:"clause_members,omitempty"`
	// ClausesPublished counts clauses accepted into the ring.
	ClausesPublished int64 `json:"clauses_published"`
	// ClausesTooLong / ClausesHighLBD / ClausesDuplicate count publisher-side
	// filter rejections.
	ClausesTooLong   int64 `json:"clauses_too_long"`
	ClausesHighLBD   int64 `json:"clauses_high_lbd"`
	ClausesDuplicate int64 `json:"clauses_duplicate"`
	// ClausesLapped counts clauses a slow drainer lost to ring overwrite.
	ClausesLapped int64 `json:"clauses_lapped"`
	// Incumbents counts accepted global-best improvements; BestOwner names
	// the member holding the final certificate; BestCost is its internal
	// cost, valid when HasIncumbent.
	Incumbents   int64  `json:"incumbents"`
	HasIncumbent bool   `json:"has_incumbent"`
	BestCost     int64  `json:"best_cost"`
	BestOwner    string `json:"best_owner,omitempty"`
}

// Duration is a wall-clock counter. It encodes as float64 milliseconds at
// microsecond resolution, so a value that is a whole number of microseconds
// round-trips exactly.
type Duration time.Duration

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return time.Duration(d).Seconds() }

// MarshalJSON encodes d as float64 milliseconds.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(float64(time.Duration(d).Microseconds()) / 1000)
}

// UnmarshalJSON decodes float64 milliseconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var ms float64
	if err := json.Unmarshal(data, &ms); err != nil {
		return err
	}
	*d = Duration(time.Duration(math.Round(ms*1000)) * time.Microsecond)
	return nil
}

// PrintCounters writes every non-zero number, true flag and non-empty string
// of v's JSON encoding as one "c <prefix><path>=<value>" line (the comment
// lines of `bsolo -stats`), in encoding order. The path joins object keys
// and array indices with dots: "bounds.per.lpr.calls".
func PrintCounters(w io.Writer, prefix string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return printValue(w, dec, prefix)
}

// printValue prints the next JSON value of dec under path.
func printValue(w io.Writer, dec *json.Decoder, path string) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	var val string
	switch t := tok.(type) {
	case json.Delim: // '{' or '['; the matching close is read below
		for i := 0; dec.More(); i++ {
			key := strconv.Itoa(i)
			if t == '{' {
				k, err := dec.Token()
				if err != nil {
					return err
				}
				key = k.(string)
			}
			if err := printValue(w, dec, path+key+"."); err != nil {
				return err
			}
		}
		_, err := dec.Token()
		return err
	case json.Number:
		if f, _ := t.Float64(); f == 0 {
			return nil
		}
		val = t.String()
	case bool:
		if !t {
			return nil
		}
		val = "true"
	case string:
		if t == "" {
			return nil
		}
		val = t
	default: // null
		return nil
	}
	_, err = fmt.Fprintf(w, "c %s=%s\n", strings.TrimSuffix(path, "."), val)
	return err
}
