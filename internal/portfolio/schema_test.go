package portfolio

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenSnapshot assembles a registry snapshot from fixed counter blocks: a
// B&B member with bound, cut, per-estimator and sharing counters, a
// local-search member, and the board.
func goldenSnapshot() obs.Snapshot {
	bb := core.Result{Status: core.StatusOptimal, HasSolution: true, Best: 42, Stats: core.Stats{
		Decisions: 4000, Conflicts: 1500, BoundConflicts: 210, BoundCalls: 300, BoundPrunes: 124,
		Solutions: 5, Restarts: 7, KnapsackCuts: 11, CardCuts: 13, NCBSavedLevels: 17,
		Propagations: 987654, LearnedClauses: 1400, PBLearned: 87, PBCardNormalized: 6, LPIncumbents: 2,
		BoundFailures: 3, BoundPanics: 1, BoundFallbacks: 2, BoundDemotions: 1, BoundTimeouts: 4,
		ImportedClauses: 33, RandomDecisions: 19,
		Bounds: obs.BoundsStats{
			Reduces: 300, ReduceTime: 1234567,
			WarmSolves: 250, ColdSolves: 50, WarmFallbacks: 3,
			Cuts: obs.CutStats{Separated: 12, Duplicates: 2, Rounds: 4, Applied: 80, Active: 9, Pruned: 3, SepTime: 2345678},
			Per: map[string]*obs.ProcStats{
				"lpr": {Calls: 290, Time: 40123456, BoundSum: 8700, MaxBound: 41, Infinite: 5, Incomplete: 2, Failed: 3, Panics: 1, Prunes: 120},
				"mis": {Calls: 10, Time: 345678, BoundSum: 200, MaxBound: 30, Prunes: 4},
			},
		},
		Sharing: obs.SharingStats{
			IncumbentsPublished: 5, IncumbentsWon: 3, ForeignIncumbents: 2, ForeignRejected: 1,
			ForeignUBPrunes: 45, UBInterrupts: 6, ClausesPublished: 120, ClausesRejected: 40,
			ClausesImported: 33, ImportedUnits: 4, ImportsDropped: 8, ImportsRejected: 1, ImportConflicts: 2,
		},
	}}
	ls := core.Result{Status: core.StatusLimit, HasSolution: true, Best: 44, Stats: core.Stats{
		Restarts: 3, Solutions: 9, Flips: 123456,
		Sharing: obs.SharingStats{IncumbentsPublished: 9, IncumbentsWon: 1, ForeignIncumbents: 2},
	}}
	board := obs.BoardStats{
		Members: 2, ClauseMembers: 1, ClausesPublished: 120, ClausesTooLong: 7, ClausesHighLBD: 9,
		ClausesDuplicate: 4, ClausesLapped: 1, Incumbents: 6, HasIncumbent: true, BestCost: 42, BestOwner: "lpr",
	}

	reg := obs.NewRegistry()
	reg.SetMeta("instance", "golden")
	for _, m := range []struct {
		name string
		res  core.Result
	}{{"lpr", bb}, {"ls", ls}} {
		live := &obs.Live{}
		reg.RegisterSolver(m.name, live)
		live.Publish(m.res.Metrics(m.name))
	}
	reg.RegisterBoard(func() obs.BoardStats { return board })
	return reg.Snapshot()
}

// flatten maps every leaf of a decoded JSON document to its dotted path.
func flatten(prefix string, v any, out map[string]any) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			flatten(prefix+k+".", e, out)
		}
	case []any:
		for i, e := range v {
			flatten(prefix+strconv.Itoa(i)+".", e, out)
		}
	default:
		out[prefix[:len(prefix)-1]] = v
	}
}

// TestGoldenMetricsDocument pins the repro.metrics/v1 document for fixed
// counters, key by key (the clock fields are left out). The golden file
// predates pb_card_normalized, the one key added since; it is checked here
// and then set aside.
func TestGoldenMetricsDocument(t *testing.T) {
	data, err := json.Marshal(goldenSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	got := map[string]any{}
	flatten("", doc, got)
	delete(got, "taken_unix_ms")
	delete(got, "uptime_ms")
	for key, want := range map[string]float64{"solvers.0.pb_card_normalized": 6, "solvers.1.pb_card_normalized": 0} {
		if got[key] != want {
			t.Errorf("%s = %v, want %v", key, got[key], want)
		}
		delete(got, key)
	}

	const path = "testdata/metrics_golden.json"
	if *update {
		enc, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for k, v := range got {
			if w, ok := want[k]; !ok || !reflect.DeepEqual(v, w) {
				t.Errorf("%s = %v, golden %v (present %v)", k, v, w, ok)
			}
		}
		for k, w := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s missing, golden %v", k, w)
			}
		}
	}
}
