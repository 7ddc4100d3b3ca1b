package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func i64(v int64) *int64 { return &v }

func sampleBench() *BenchSnapshot {
	s := NewBenchSnapshot([]string{"synth"}, 5000)
	s.Meta = map[string]string{"n": "3"}
	s.Rows = []BenchRow{
		{Instance: "synth-30-1", Family: "synth", Solver: "lpr", Solved: true, Best: i64(17),
			WallMs: 120, Conflicts: 400, Decisions: 900, BoundCalls: 300, BoundMs: 80, LPWarm: 250, LPCold: 50},
		{Instance: "synth-30-1", Family: "synth", Solver: "plain", Solved: false, Best: i64(21),
			WallMs: 5000, Conflicts: 90000, Decisions: 200000},
		{Instance: "synth-30-1", Family: "synth", Solver: "portfolio", Solved: true, Best: i64(17),
			WallMs: 90, Members: 4, ShPub: 40, ShImp: 25, ShPrunes: 7},
	}
	return s
}

func TestBenchSnapshotRoundTrip(t *testing.T) {
	s := sampleBench()
	path := filepath.Join(t.TempDir(), s.DefaultName())
	if !strings.HasPrefix(filepath.Base(path), "BENCH_synth_") || !strings.HasSuffix(path, ".json") {
		t.Fatalf("default name %q", s.DefaultName())
	}
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBenchSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("bench snapshot did not round-trip:\n got %+v\nwant %+v", back, s)
	}
}

func TestLoadBenchSnapshotRejectsWrongSchema(t *testing.T) {
	s := sampleBench()
	s.Schema = "repro.bench/v0"
	path := filepath.Join(t.TempDir(), "old.json")
	data, _ := json.Marshal(s)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBenchSnapshot(path); err == nil {
		t.Fatal("wrong schema version accepted")
	}
	if _, err := LoadBenchSnapshot(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCompareBenchFlagsRegressions(t *testing.T) {
	old := sampleBench()
	cur := sampleBench()
	// Regression 1: lpr loses its solve.
	cur.Rows[0].Solved = false
	cur.Rows[0].Best = nil
	// Regression 2: plain's incumbent gets worse.
	cur.Rows[1].Best = i64(25)
	// Regression 3: portfolio slows down 10x beyond tolerance+floor.
	cur.Rows[2].WallMs = 900

	d := CompareBench(old, cur, 1.5)
	if !d.HasRegressions() || len(d.Regressions) != 3 {
		t.Fatalf("want 3 regressions, got %d:\n%s", len(d.Regressions), d.String())
	}
	rep := d.String()
	for _, want := range []string{"no longer solved", "ub 21 -> 25", "90ms -> 900ms"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestCompareBenchFlagsOverruns: a row that ran past the snapshot's limit by
// more than 10% plus the floor is a regression even when its verdict and
// incumbent are unchanged, and so is a new cell that did; a row within the
// margin is not.
func TestCompareBenchFlagsOverruns(t *testing.T) {
	old := sampleBench()
	cur := sampleBench()
	cur.Rows[1].WallMs = 5549 // limit 5000: inside 5000*1.1 + 50
	d := CompareBench(old, cur, 1.5)
	if d.HasRegressions() {
		t.Fatalf("a row inside the margin flagged:\n%s", d.String())
	}
	cur.Rows[1].WallMs = 5551
	cur.Rows = append(cur.Rows, BenchRow{Instance: "synth-30-1", Family: "synth", Solver: "portfolio-ls",
		Solved: false, Best: i64(17), WallMs: 20700})
	d = CompareBench(old, cur, 1.5)
	if len(d.Regressions) != 2 {
		t.Fatalf("want 2 overrun regressions, got %d:\n%s", len(d.Regressions), d.String())
	}
	for _, want := range []string{"plain: ran 5551ms past a 5000ms limit", "portfolio-ls: ran 20700ms past a 5000ms limit"} {
		if !strings.Contains(d.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, d.String())
		}
	}
}

func TestCompareBenchToleratesNoiseAndReportsImprovements(t *testing.T) {
	old := sampleBench()
	cur := sampleBench()
	cur.Rows[0].WallMs = 160  // 1.33x with a 50ms floor: inside tolerance
	cur.Rows[1].Solved = true // plain now solves
	cur.Rows[1].WallMs = 900  //
	cur.Rows = cur.Rows[:2]   // portfolio cell disappears -> note
	d := CompareBench(old, cur, 1.5)
	if d.HasRegressions() {
		t.Fatalf("unexpected regressions:\n%s", d.String())
	}
	if len(d.Improvements) != 1 || !strings.Contains(d.Improvements[0], "now solved") {
		t.Fatalf("improvement not reported: %+v", d.Improvements)
	}
	if len(d.Notes) != 1 || !strings.Contains(d.Notes[0], "missing") {
		t.Fatalf("missing-cell note not reported: %+v", d.Notes)
	}
}

func TestCompareBenchIdenticalIsClean(t *testing.T) {
	s := sampleBench()
	d := CompareBench(s, s, 0) // tol<=1 selects the default
	if d.HasRegressions() || len(d.Improvements) != 0 || len(d.Notes) != 0 {
		t.Fatalf("self-compare not clean:\n%s", d.String())
	}
	if !strings.Contains(d.String(), "no changes") {
		t.Fatalf("clean report should say so: %q", d.String())
	}
}
