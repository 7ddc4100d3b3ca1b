package harness

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenCells are four fixed table cells covering every column of the CSV
// and of the bench rows: a single-solver LPR cell with bound and cut
// counters, a portfolio cell with members, sharing and a first incumbent, a
// local-search cell with flips, and a crashed cell. Durations carry
// sub-microsecond parts so the truncation to microseconds is pinned too.
func goldenCells() []RunResult {
	return []RunResult{
		{
			Instance: "synth-30-1", Family: FamilySynth, Solver: SolverLPR,
			Solved: true, HasUB: true, Best: 42, Duration: 61234567,
			Bounds: obs.BoundsStats{
				Reduces: 300, ReduceTime: 1234567,
				WarmSolves: 250, ColdSolves: 50, WarmFallbacks: 3,
				Cuts: obs.CutStats{Separated: 12, Duplicates: 2, Rounds: 4, Applied: 80, Active: 9, Pruned: 3, SepTime: 2345678},
				Per: map[string]*obs.ProcStats{
					"lpr": {Calls: 290, Time: 40123456, BoundSum: 8700, MaxBound: 41, Prunes: 120, Incomplete: 2},
					"mis": {Calls: 10, Time: 345678, BoundSum: 200, MaxBound: 30, Prunes: 4, Failed: 1},
				},
			},
			Conflicts: 1500, Decisions: 4000, FixedVars: 3, Propagations: 987654,
		},
		{
			Instance: "grout-4-2", Family: FamilyGrout, Solver: SolverPortfolio,
			Solved: true, HasUB: true, Best: 17, Duration: 250*time.Millisecond + 7,
			Bounds: obs.BoundsStats{
				Reduces: 90, ReduceTime: 456789,
				Per: map[string]*obs.ProcStats{"lgr": {Calls: 88, Time: 9876543, BoundSum: 1000, MaxBound: 16}},
			},
			Conflicts: 6000, Decisions: 9100, Propagations: 3_500_000,
			Members: 4, Winner: "lgr",
			ShClausesPub: 120, ShClausesImp: 300, ShForeignPrunes: 45,
			FirstIncumbent: 3456789,
		},
		{
			Instance: "sat-40-1", Family: FamilySat, Solver: SolverLS,
			HasUB: true, Best: 99, Duration: 2*time.Second + 999,
			Members: 1, Winner: "ls", Flips: 123456, FirstIncumbent: 1500 * time.Microsecond,
		},
		{
			Instance: "mcnc-6-3", Family: FamilyMcnc, Solver: SolverMIS,
			Duration: 5 * time.Millisecond, Err: "panic: boom",
		},
	}
}

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("%s changed:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestGoldenCSV pins the bytes of the CSV output.
func TestGoldenCSV(t *testing.T) {
	checkGolden(t, "golden.csv", []byte(FormatCSV(goldenCells())))
}

// TestGoldenBenchRows pins the bytes of the repro.bench/v1 rows.
func TestGoldenBenchRows(t *testing.T) {
	snap := BenchSnapshot(goldenCells(), []Family{FamilySynth}, 3*time.Second, nil)
	data, err := json.MarshalIndent(snap.Rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_rows.json", append(data, '\n'))
}
