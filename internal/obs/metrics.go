package obs

// The unified metrics snapshot schema. One Snapshot merges every counter
// block the solver stack maintains — core.Stats, bounds.Stats, the
// member-side SharingStats and the board's global counters — into a single
// versioned JSON document. The same document is served live by the registry
// (`bsolo -debug-addr`), written at end-of-run (`bsolo -metrics`), and
// embedded per solver column in the pbbench BENCH_*.json snapshots.
//
// Schema rules: all durations are float64 milliseconds; all timestamps are
// int64 Unix milliseconds; optional blocks are pointers omitted when empty.
// Changing field meaning (not merely adding fields) requires bumping
// SchemaVersion.

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
	Board *BoardMetrics `json:"board,omitempty"`
}

// SolverMetrics is one solver's (or portfolio member's) counter block: the
// flattened core.Stats plus the bounds and sharing sub-blocks.
type SolverMetrics struct {
	// Name labels the solver (the lower-bound method, or the member name).
	Name string `json:"name"`
	// Status is the terminal verdict ("" while the solve is running).
	Status string `json:"status,omitempty"`
	// Best is the incumbent objective (nil when no solution is known).
	Best *int64 `json:"best,omitempty"`

	Decisions      int64 `json:"decisions"`
	Conflicts      int64 `json:"conflicts"`
	BoundConflicts int64 `json:"bound_conflicts"`
	BoundCalls     int64 `json:"bound_calls"`
	BoundPrunes    int64 `json:"bound_prunes"`
	Solutions      int64 `json:"solutions"`
	LPIncumbents   int64 `json:"lp_incumbents"`
	Restarts       int64 `json:"restarts"`
	KnapsackCuts   int64 `json:"knapsack_cuts"`
	CardCuts       int64 `json:"card_cuts"`
	NCBSavedLevels int64 `json:"ncb_saved_levels"`
	Propagations   int64 `json:"propagations"`
	LearnedClauses int64 `json:"learned_clauses"`
	PBLearned      int64 `json:"pb_learned"`

	BoundFailures  int64 `json:"bound_failures"`
	BoundPanics    int64 `json:"bound_panics"`
	BoundFallbacks int64 `json:"bound_fallbacks"`
	BoundDemotions int64 `json:"bound_demotions"`
	BoundTimeouts  int64 `json:"bound_timeouts"`

	ImportedClauses int64 `json:"imported_clauses"`
	RandomDecisions int64 `json:"random_decisions"`

	// Flips is the local-search move count; 0 for branch-and-bound members
	// (additive field, schema-compatible with repro.metrics/v1 consumers).
	Flips int64 `json:"flips,omitempty"`

	Bounds BoundsMetrics `json:"bounds"`
	// Sharing is nil when the solve ran without a board.
	Sharing *SharingMetrics `json:"sharing,omitempty"`
}

// BoundsMetrics is the bound-pipeline block (bounds.Stats).
type BoundsMetrics struct {
	Incremental   bool                   `json:"incremental"`
	Reduces       int64                  `json:"reduces"`
	ReduceMs      float64                `json:"reduce_ms"`
	WarmSolves    int64                  `json:"lp_warm_solves"`
	ColdSolves    int64                  `json:"lp_cold_solves"`
	WarmFallbacks int64                  `json:"lp_warm_fallbacks"`
	Cuts          *CutMetrics            `json:"cuts,omitempty"`
	Per           map[string]ProcMetrics `json:"per,omitempty"`
}

// CutMetrics is the LPR cut-pool block (cuts.Counters); nil when LPR ran
// without a pool (or never separated).
type CutMetrics struct {
	Separated  int64   `json:"separated"`
	Duplicates int64   `json:"duplicates"`
	Rounds     int64   `json:"rounds"`
	Applied    int64   `json:"applied"`
	Active     int64   `json:"active"`
	Pruned     int64   `json:"pruned"`
	SepMs      float64 `json:"sep_ms"`
}

// ProcMetrics is one estimator's aggregate (bounds.ProcStats).
type ProcMetrics struct {
	Calls      int64   `json:"calls"`
	TimeMs     float64 `json:"time_ms"`
	BoundSum   int64   `json:"bound_sum"`
	MaxBound   int64   `json:"max_bound"`
	Infinite   int64   `json:"infinite"`
	Incomplete int64   `json:"incomplete"`
	Failed     int64   `json:"failed"`
	Panics     int64   `json:"panics"`
	Prunes     int64   `json:"prunes"`
}

// SharingMetrics is one member's cooperative-event block (SharingStats).
type SharingMetrics struct {
	IncumbentsPublished int64 `json:"incumbents_published"`
	IncumbentsWon       int64 `json:"incumbents_won"`
	ForeignIncumbents   int64 `json:"foreign_incumbents"`
	ForeignRejected     int64 `json:"foreign_rejected,omitempty"`
	ForeignUBPrunes     int64 `json:"foreign_ub_prunes"`
	UBInterrupts        int64 `json:"ub_interrupts"`
	ClausesPublished    int64 `json:"clauses_published"`
	ClausesRejected     int64 `json:"clauses_rejected"`
	ClausesImported     int64 `json:"clauses_imported"`
	ImportedUnits       int64 `json:"imported_units"`
	ImportsDropped      int64 `json:"imports_dropped"`
	ImportsRejected     int64 `json:"imports_rejected"`
	ImportConflicts     int64 `json:"import_conflicts"`
}

// BoardMetrics is the sharing board's global block (share.Stats).
type BoardMetrics struct {
	Members int `json:"members"`
	// ClauseMembers counts the members participating in clause exchange;
	// UB-only members (local search) join with clauses opted out and are
	// excluded from ring cursor/lap accounting.
	ClauseMembers    int    `json:"clause_members,omitempty"`
	ClausesPublished int64  `json:"clauses_published"`
	ClausesTooLong   int64  `json:"clauses_too_long"`
	ClausesHighLBD   int64  `json:"clauses_high_lbd"`
	ClausesDuplicate int64  `json:"clauses_duplicate"`
	ClausesLapped    int64  `json:"clauses_lapped"`
	Incumbents       int64  `json:"incumbents"`
	HasIncumbent     bool   `json:"has_incumbent"`
	BestCost         int64  `json:"best_cost"`
	BestOwner        string `json:"best_owner,omitempty"`
}
