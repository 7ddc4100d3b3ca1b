package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// BenchSchemaVersion identifies the BENCH_*.json snapshot layout.
const BenchSchemaVersion = "repro.bench/v1"

// BenchRow is one (instance, solver) cell of a benchmark run: the Table 1
// verdict plus the effort, bound-pipeline and sharing counters the CSV
// output carries, in machine-comparable form.
type BenchRow struct {
	Instance string `json:"instance"`
	Family   string `json:"family"`
	Solver   string `json:"solver"`
	Solved   bool   `json:"solved"`
	// Best is the incumbent objective (nil when no solution was found).
	Best   *int64  `json:"best,omitempty"`
	WallMs float64 `json:"wall_ms"`
	// Err is non-empty when the solver crashed (the cell never counts as
	// solved).
	Err string `json:"err,omitempty"`

	Conflicts  int64   `json:"conflicts"`
	Decisions  int64   `json:"decisions"`
	BoundCalls int64   `json:"bound_calls"`
	BoundMs    float64 `json:"bound_ms"`
	LPWarm     int64   `json:"lp_warm"`
	LPCold     int64   `json:"lp_cold"`

	// FixedVars counts presolve-eliminated variables; PropsPerSec is the
	// engine propagation rate. Both omitempty so snapshots taken before
	// these columns existed still load and compare.
	FixedVars   int     `json:"fixed_vars,omitempty"`
	PropsPerSec float64 `json:"props_per_sec,omitempty"`

	// Cut-pool counters (LPR with cuts only; omitempty for pre-cuts
	// snapshots): cuts separated into the pool, live at end of run, and
	// evicted by activity aging.
	CutsSep    int64 `json:"cuts_sep,omitempty"`
	CutsActive int64 `json:"cuts_active,omitempty"`
	CutsPruned int64 `json:"cuts_pruned,omitempty"`

	Members  int   `json:"members,omitempty"`
	ShPub    int64 `json:"sh_pub,omitempty"`
	ShImp    int64 `json:"sh_imp,omitempty"`
	ShPrunes int64 `json:"sh_prunes,omitempty"`

	// Incumbent-latency columns (additive; omitted for rows that never
	// reported an incumbent or never flipped, which keeps historic
	// snapshots byte-comparable). TtfiMs is wall-clock milliseconds from
	// run start to the first incumbent any member reported; Flips counts
	// local-search flips (ls / portfolio-ls rows only).
	TtfiMs float64 `json:"ttfi_ms,omitempty"`
	Flips  int64   `json:"flips,omitempty"`
}

// BenchSnapshot is one pbbench run's machine-readable record — the unit of
// the repo's perf trajectory (BENCH_<family>_<date>.json files).
type BenchSnapshot struct {
	Schema        string `json:"schema"`
	CreatedUnixMs int64  `json:"created_unix_ms"`
	// Date is the YYYY-MM-DD the run was taken (used in the default file
	// name).
	Date string `json:"date"`
	// Families lists the families included, in run order.
	Families []string `json:"families"`
	// LimitMs is the per-run wall-clock budget.
	LimitMs float64 `json:"limit_ms"`
	// Meta carries free-form run labels (scale knobs, flags, host notes).
	Meta map[string]string `json:"meta,omitempty"`
	Rows []BenchRow        `json:"rows"`
}

// NewBenchSnapshot stamps an empty snapshot with the schema version and the
// current date.
func NewBenchSnapshot(families []string, limitMs float64) *BenchSnapshot {
	now := time.Now()
	return &BenchSnapshot{
		Schema:        BenchSchemaVersion,
		CreatedUnixMs: now.UnixMilli(),
		Date:          now.Format("2006-01-02"),
		Families:      families,
		LimitMs:       limitMs,
	}
}

// DefaultName returns the trajectory file name BENCH_<family>_<date>.json
// ("all" when the snapshot spans several families).
func (s *BenchSnapshot) DefaultName() string {
	fam := "all"
	if len(s.Families) == 1 {
		fam = s.Families[0]
	}
	return fmt.Sprintf("BENCH_%s_%s.json", fam, s.Date)
}

// WriteFile writes the snapshot as indented JSON.
func (s *BenchSnapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding bench snapshot: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: writing bench snapshot: %w", err)
	}
	return nil
}

// LoadBenchSnapshot reads and validates a BENCH_*.json file.
func LoadBenchSnapshot(path string) (*BenchSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: reading bench snapshot: %w", err)
	}
	var s BenchSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("obs: parsing bench snapshot %s: %w", path, err)
	}
	if s.Schema != BenchSchemaVersion {
		return nil, fmt.Errorf("obs: bench snapshot %s: schema %q, want %q", path, s.Schema, BenchSchemaVersion)
	}
	return &s, nil
}

// BenchDiff is the outcome of comparing two snapshots of the same bench.
type BenchDiff struct {
	// Regressions lists cells that got worse: lost solves, slower beyond
	// tolerance, or weaker incumbents on unsolved cells.
	Regressions []string
	// Improvements lists cells that got better (informational).
	Improvements []string
	// Notes lists cells present in only one snapshot (informational).
	Notes []string
}

// HasRegressions reports whether any cell regressed.
func (d *BenchDiff) HasRegressions() bool { return len(d.Regressions) > 0 }

// String renders the diff report.
func (d *BenchDiff) String() string {
	var sb strings.Builder
	for _, l := range d.Regressions {
		fmt.Fprintf(&sb, "REGRESSION  %s\n", l)
	}
	for _, l := range d.Improvements {
		fmt.Fprintf(&sb, "improved    %s\n", l)
	}
	for _, l := range d.Notes {
		fmt.Fprintf(&sb, "note        %s\n", l)
	}
	if sb.Len() == 0 {
		return "no changes beyond tolerance\n"
	}
	return sb.String()
}

// benchCompareFloorMs absorbs scheduler noise on fast cells: a slowdown is
// only a regression when the new time also exceeds the old by this floor.
const benchCompareFloorMs = 50

// CompareBench diffs cur against old, keyed by (instance, solver). tol is
// the multiplicative slowdown tolerance (e.g. 1.5 = a solved cell may take
// up to 1.5x the old time before it flags); tol <= 1 selects 1.5.
//
// Regression rules, per shared cell:
//   - old solved, new unsolved (or crashed)  → regression
//   - both solved, newMs > oldMs*tol + floor → regression
//   - both unsolved, new incumbent worse (or lost) → regression
//
// and, for every cell of cur, shared or not: a run past the snapshot's
// limit (newMs > limitMs*1.1 + floor) → regression.
//
// The reverse transitions are reported as improvements; cells present in
// only one snapshot are notes. Comparing different benches (no shared
// cells) yields only notes.
func CompareBench(old, cur *BenchSnapshot, tol float64) BenchDiff {
	if tol <= 1 {
		tol = 1.5
	}
	key := func(r *BenchRow) string { return r.Instance + "\x00" + r.Solver }
	oldRows := make(map[string]*BenchRow, len(old.Rows))
	for i := range old.Rows {
		oldRows[key(&old.Rows[i])] = &old.Rows[i]
	}
	var d BenchDiff
	seen := make(map[string]bool, len(cur.Rows))
	for i := range cur.Rows {
		n := &cur.Rows[i]
		k := key(n)
		seen[k] = true
		cell := fmt.Sprintf("%s/%s", n.Instance, n.Solver)
		if cur.LimitMs > 0 && n.WallMs > cur.LimitMs*1.1+benchCompareFloorMs {
			d.Regressions = append(d.Regressions,
				fmt.Sprintf("%s: ran %.0fms past a %.0fms limit", cell, n.WallMs, cur.LimitMs))
		}
		o, ok := oldRows[k]
		if !ok {
			d.Notes = append(d.Notes, fmt.Sprintf("%s: new cell", cell))
			continue
		}
		switch {
		case o.Solved && !n.Solved:
			why := "no longer solved"
			if n.Err != "" {
				why = "crashed: " + n.Err
			}
			d.Regressions = append(d.Regressions, fmt.Sprintf("%s: %s (was %.0fms)", cell, why, o.WallMs))
		case !o.Solved && n.Solved:
			d.Improvements = append(d.Improvements, fmt.Sprintf("%s: now solved in %.0fms", cell, n.WallMs))
		case o.Solved && n.Solved:
			if n.WallMs > o.WallMs*tol+benchCompareFloorMs {
				d.Regressions = append(d.Regressions,
					fmt.Sprintf("%s: %.0fms -> %.0fms (%.2fx, tol %.2fx)", cell, o.WallMs, n.WallMs, n.WallMs/o.WallMs, tol))
			} else if o.WallMs > n.WallMs*tol+benchCompareFloorMs {
				d.Improvements = append(d.Improvements,
					fmt.Sprintf("%s: %.0fms -> %.0fms", cell, o.WallMs, n.WallMs))
			}
		default: // neither solved: compare incumbents (minimization)
			switch {
			case o.Best != nil && n.Best == nil:
				d.Regressions = append(d.Regressions,
					fmt.Sprintf("%s: lost incumbent (was ub %d)", cell, *o.Best))
			case o.Best != nil && n.Best != nil && *n.Best > *o.Best:
				d.Regressions = append(d.Regressions,
					fmt.Sprintf("%s: ub %d -> %d (worse)", cell, *o.Best, *n.Best))
			case o.Best == nil && n.Best != nil:
				d.Improvements = append(d.Improvements,
					fmt.Sprintf("%s: new incumbent ub %d", cell, *n.Best))
			case o.Best != nil && n.Best != nil && *n.Best < *o.Best:
				d.Improvements = append(d.Improvements,
					fmt.Sprintf("%s: ub %d -> %d", cell, *o.Best, *n.Best))
			}
		}
	}
	var gone []string
	for k, o := range oldRows {
		if !seen[k] {
			gone = append(gone, fmt.Sprintf("%s/%s: cell missing from new run", o.Instance, o.Solver))
			_ = k
		}
	}
	sort.Strings(gone)
	d.Notes = append(d.Notes, gone...)
	return d
}
