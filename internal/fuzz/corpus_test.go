package fuzz

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/opb"
	"repro/internal/pb"
	"repro/internal/preprocess"
)

// TestFuzzCorpus replays every committed reproducer under
// testdata/fuzz-corpus/ through the full differential matrix. Each file is a
// once-shrunk instance that exposed a real bug (or a hand-built regression
// for a fixed one); a bug that resurfaces fails here before any fuzzing runs.
func TestFuzzCorpus(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "fuzz-corpus")
	files, err := filepath.Glob(filepath.Join(dir, "*.opb"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no reproducers in %s — the corpus must be committed", dir)
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			ms, ok := CheckText(string(data), 0)
			if !ok {
				// Structured rejection by the parser is a valid fix: the
				// seed-*.opb headroom reproducers, for example, used to be
				// mis-solved as UNSAT and are now refused with
				// pb.ErrOverflow. CheckText has already asserted the
				// rejection did not panic.
				return
			}
			for _, m := range ms {
				t.Errorf("mismatch %s", m)
			}
		})
	}
}

// TestPresolveReproducersFixVariables guards the point of the presolve-*.opb
// reproducers: each must actually drive FixVariables into eliminating at
// least one variable, so the Check matrix exercises the lifted value-line
// mapping rather than a no-op renumbering. (A presolve regression that stops
// fixing anything would otherwise silently drain these files of coverage.)
func TestPresolveReproducersFixVariables(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "fuzz-corpus")
	files, err := filepath.Glob(filepath.Join(dir, "presolve-*.opb"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("want at least 3 presolve reproducers, found %d", len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := opb.ParseString(string(data))
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(f), err)
		}
		fx, err := preprocess.FixVariables(p)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(f), err)
		}
		if fx.NumFixed() == 0 {
			t.Errorf("%s: presolve fixed no variables — reproducer no longer exercises the mapping", filepath.Base(f))
		}
		if fx.ProvedUnsat {
			t.Errorf("%s: unexpectedly proved UNSAT", filepath.Base(f))
		}
	}
}

// TestCutsReproducersEngageSeparation guards the point of the cuts-*.opb
// reproducers: cuts-cover-lifting.opb must actually drive the LPR pool into
// separating cuts (its knapsack rows sit at fractional LP vertices where only
// a lifted cover is violated), and cuts-cardinality.opb must drive the
// cardinality detector into normalizing at least one row while refusing its
// non-cardinality lookalike. Either property silently decaying would drain
// the files of the coverage they were committed for.
func TestCutsReproducersEngageSeparation(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "fuzz-corpus")

	read := func(name string) *pb.Problem {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		p, err := opb.ParseString(string(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return p
	}

	cover := read("cuts-cover-lifting.opb")
	on := core.SafeSolve(cover, core.Options{LowerBound: core.LBLPR, MaxConflicts: DefaultBudget})
	off := core.SafeSolve(cover, core.Options{LowerBound: core.LBLPR, MaxConflicts: DefaultBudget, Tuning: core.Tuning{NoCuts: true}})
	if on.Status != core.StatusOptimal || off.Status != core.StatusOptimal || on.Best != off.Best {
		t.Fatalf("cover reproducer: cuts on/off disagree: on=%v/%d off=%v/%d",
			on.Status, on.Best, off.Status, off.Best)
	}
	if on.Stats.Bounds.Cuts.Separated == 0 {
		t.Errorf("cuts-cover-lifting.opb no longer separates any cuts")
	}

	card := read("cuts-cardinality.opb")
	_, info, err := preprocess.Apply(card, preprocess.Options{CardinalityDetect: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.CardinalityNormalized == 0 {
		t.Errorf("cuts-cardinality.opb no longer drives cardinality normalization")
	}
	// The 3a+b+c >= 3 lookalike must survive untouched: it forces a, which no
	// unit-coefficient rewrite expresses.
	if info.CardinalityNormalized >= len(card.Constraints) {
		t.Errorf("every row normalized — the non-cardinality lookalike was wrongly rewritten")
	}
}
