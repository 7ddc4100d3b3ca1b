package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/pb"
)

// TestSearchAcrossReduceDBIsPinned pins a plain PB-learning search on the
// mcnc -inputs 10 covering instance through three ReduceDB calls. ReduceDB
// deletes learned rows and renumbers the survivors, the eq. 10/13 incumbent
// rows among them, so a deletion that picks other rows, a renumbering that
// reorders them, or an incumbent row tightened under its old index changes
// these counters.
func TestSearchAcrossReduceDBIsPinned(t *testing.T) {
	p, err := gen.MinCover(gen.MinCoverConfig{Inputs: 10, OnDensity: 0.3, DcDensity: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(1 << 16)
	res := core.Solve(p, core.Options{LowerBound: core.LBNone, MaxConflicts: 13000,
		CardinalityInference: true, Trace: tr, Tuning: core.Tuning{PBLearning: true}})
	reduces := 0
	for _, e := range tr.Snapshot() {
		if e.Kind == obs.EvReduceDB {
			reduces++
		}
	}
	if reduces != 3 {
		t.Fatalf("%d ReduceDB calls, want 3", reduces)
	}
	st := res.Stats
	got := [6]int64{st.Conflicts, st.Decisions, st.Propagations, st.PBLearned, st.CardCuts, res.Best}
	if want := [6]int64{12992, 23796, 1833652, 147, 128, 1404}; got != want {
		t.Fatalf("conflicts, decisions, propagations, pb_learned, card_cuts, best = %v, want %v", got, want)
	}
}

// TestIncumbentRowsFollowReduceDB solves a random 3-SAT instance whose first
// incumbent comes after a ReduceDB, so learned rows precede the eq. 10/13
// incumbent rows, and later ReduceDB calls delete some of them and move the
// incumbent rows down. Tightening an incumbent row under its old index
// tightens some other learned row instead; on this instance that search
// then claims 246 optimal, though a solution of cost 220 exists.
func TestIncumbentRowsFollowReduceDB(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(n))
	p := pb.NewProblem(n)
	for v := 0; v < n; v++ {
		p.SetCost(pb.Var(v), int64(1+rng.Intn(5)))
	}
	lit := func() pb.Lit { return pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0) }
	for i := 0; i < 4.2*n; i++ {
		_ = p.AddClause(lit(), lit(), lit())
	}
	tr := obs.NewTracer(1 << 16)
	res := core.Solve(p, core.Options{LowerBound: core.LBNone, CardinalityInference: true, Trace: tr})
	reduces, before := 0, -1
	for _, e := range tr.Snapshot() {
		switch {
		case e.Kind == obs.EvReduceDB:
			reduces++
		case e.Kind == obs.EvIncumbent && before < 0:
			before = reduces
		}
	}
	if before < 1 || reduces <= before {
		t.Fatalf("%d ReduceDB calls, %d before the first incumbent; want one before it and one after", reduces, before)
	}
	st := res.Stats
	got := [3]int64{st.Conflicts, st.Decisions, res.Best}
	if want := [3]int64{18903, 22937, 220}; res.Status != core.StatusOptimal || got != want {
		t.Fatalf("%v with conflicts, decisions, best = %v, want optimal with %v", res.Status, got, want)
	}
}
