package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/opb"
	"repro/internal/pb"
	"repro/internal/wbo"
	"repro/internal/wcnf"
)

// smallScale keeps the Table 1 families a few milliseconds per row.
var smallScale = harness.Scale{GroutNets: 8, SynthNodes: 10, McncInputs: 5, AccTeams: 6, PerFamily: 3}

// TestWBORoundTrip writes weighted instances as soft OPB, reads them back
// with wcnf.ParseWBO and checks that random witnesses pay the same penalty
// on both sides.
func TestWBORoundTrip(t *testing.T) {
	var insts []*wbo.Instance
	for seed := int64(1); seed <= 6; seed++ {
		in, err := gen.WBO(gen.WBOConfig{Vars: 12 + int(seed), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, in)
	}
	// Every relation, negated literals and negative coefficients.
	insts = append(insts, &wbo.Instance{NumVars: 3,
		Hard: []wbo.HardCons{{Terms: []pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.NegLit(2)}}, Cmp: pb.GE, Rhs: 1}},
		Soft: []wbo.SoftCons{
			{Weight: 4, Terms: []pb.Term{{Coef: -2, Lit: pb.PosLit(1)}, {Coef: 3, Lit: pb.NegLit(0)}}, Cmp: pb.LE, Rhs: 0},
			{Weight: 1, Terms: []pb.Term{{Coef: 2, Lit: pb.PosLit(2)}, {Coef: 1, Lit: pb.PosLit(1)}}, Cmp: pb.EQ, Rhs: 2},
			{Weight: 7, Terms: []pb.Term{{Coef: 1, Lit: pb.NegLit(1)}}, Cmp: pb.GE, Rhs: 1},
		}})

	rng := rand.New(rand.NewSource(1))
	for i, in := range insts {
		var buf bytes.Buffer
		if err := writeWBO(&buf, in); err != nil {
			t.Fatal(err)
		}
		back, err := wcnf.ParseWBO(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("instance %d: %v\n%s", i, err, buf.String())
		}
		if len(back.Hard) != len(in.Hard) || len(back.Soft) != len(in.Soft) || back.Offset != 0 {
			t.Fatalf("instance %d: read back %d hard / %d soft / offset %d, wrote %d / %d / 0",
				i, len(back.Hard), len(back.Soft), back.Offset, len(in.Hard), len(in.Soft))
		}
		// The reader numbers variables by first appearance: map by name.
		orig := map[string]int{}
		for v := 0; v < in.NumVars; v++ {
			orig[wboName(in, pb.Var(v))] = v
		}
		for trial := 0; trial < 50; trial++ {
			w := make([]bool, in.NumVars)
			for v := range w {
				w[v] = rng.Intn(2) == 0
			}
			wb := make([]bool, back.NumVars)
			for v := range wb {
				wb[v] = w[orig[back.Names[v]]]
			}
			want, _ := in.Penalty(w)
			got, _ := back.Penalty(wb)
			if got != want {
				t.Fatalf("instance %d trial %d: penalty %d after the round trip, %d before", i, trial, got, want)
			}
		}
	}
}

// TestWBOWriterRefusesOffset: soft OPB has no offset syntax.
func TestWBOWriterRefusesOffset(t *testing.T) {
	if err := writeWBO(&bytes.Buffer{}, &wbo.Instance{NumVars: 1, Offset: 3}); err == nil {
		t.Fatal("writeWBO accepted a nonzero offset")
	}
}

// TestDefaultSeedIsTable1 pins the default seed to harness.Instances, so the
// benchmark's first copy of the suite is the table1_measured.txt suite.
func TestDefaultSeedIsTable1(t *testing.T) {
	want, err := harness.Instances(harness.Families(), harness.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	got, err := table1Inputs(defaultSeed, harness.DefaultScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, harness has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].name != want[i].Name || string(got[i].text) != opb.WriteString(want[i].Prob) {
			t.Fatalf("row %d: %s differs from harness row %s", i, got[i].name, want[i].Name)
		}
	}
	other, err := table1Inputs(defaultSeed+1, harness.DefaultScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(other[0].text, got[0].text) {
		t.Fatal("another seed generated the same first row")
	}
}

// TestBsoloOptionsMatchBaseline: the options the benchmark solves with make
// exactly the search baseline.Bsolo makes.
func TestBsoloOptionsMatchBaseline(t *testing.T) {
	ins, err := table1Inputs(3, smallScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		p, err := opb.Parse(bytes.NewReader(in.text))
		if err != nil {
			t.Fatal(err)
		}
		const budget = 300
		want := baseline.Bsolo(p, core.LBLPR, baseline.Limits{MaxConflicts: budget})
		opt := bsoloOptions(budget)
		opt.OnIncumbent = func(int64) {}
		got := core.SafeSolve(p, opt)
		if got.Status != want.Status || got.Best != want.Best ||
			got.Stats.Conflicts != want.Stats.Conflicts || got.Stats.Decisions != want.Stats.Decisions ||
			got.Stats.Propagations != want.Stats.Propagations {
			t.Fatalf("%s: benchmark options diverge from baseline.Bsolo: %v/%d/%+v vs %v/%d/%+v",
				in.name, got.Status, got.Best, got.Stats, want.Status, want.Best, want.Stats)
		}
	}
}

// TestDeterministicCounts runs a small seed of the single-solver workload
// twice and requires identical per-row conflict, decision and propagation
// counts, and no failed row.
func TestDeterministicCounts(t *testing.T) {
	ins, err := table1Inputs(5, smallScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := workload{name: "table1-lpr", budget: 200, capped: true}
	var record []rowCounts
	for pass := 0; pass < 2; pass++ {
		rs := make([]rowResult, len(ins))
		for i, in := range ins {
			rs[i] = w.runRow(in, nil, i)
			if rs[i].failure != "" {
				t.Fatalf("%s: %s", rs[i].name, rs[i].failure)
			}
		}
		counts := countsOf(rs)
		if pass == 0 {
			record = counts
			continue
		}
		if msg := sameCounts(record, counts); msg != "" {
			t.Fatal(msg)
		}
	}
}

// TestRaceRowChecks solves a few weighted rows through the race and the
// reference, and requires verified, agreeing optima.
func TestRaceRowChecks(t *testing.T) {
	ins, err := wboInputs(5, 3, 14)
	if err != nil {
		t.Fatal(err)
	}
	ps, _, err := setup(ins)
	if err != nil {
		t.Fatal(err)
	}
	refs := references(ps)
	w := workload{name: "race-wbo", race: true}
	rs := make([]rowResult, len(ins))
	for i, in := range ins {
		rs[i] = w.runRow(in, newTracer(), i)
	}
	crossCheck(rs, refs)
	for i := range rs {
		if !refs[i].proved || rs[i].failure != "" || rs[i].status != core.StatusOptimal {
			t.Fatalf("%s: status %v, reference %+v, failure %q", rs[i].name, rs[i].status, refs[i], rs[i].failure)
		}
	}
	m := layers(rs)
	if wins := m["portfolio.wins.plain"] + m["portfolio.wins.mis"] + m["portfolio.wins.lgr"] +
		m["portfolio.wins.lpr"] + m["portfolio.wins.core-guided"]; wins != float64(len(rs)) {
		t.Fatalf("%v wins over %d rows", wins, len(rs))
	}
}

// TestCrossCheckFlagsWrongOptimum: a claimed optimum that disagrees with a
// proved reference is a failure.
func TestCrossCheckFlagsWrongOptimum(t *testing.T) {
	rs := []rowResult{{name: "r", status: core.StatusOptimal, hasSol: true, best: 5}}
	crossCheck(rs, []reference{{proved: true, feasible: true, best: 4}})
	if rs[0].failure == "" {
		t.Fatal("a wrong optimum passed the cross-check")
	}
}

// TestProcCPU: the solve clock advances with work, not with waiting.
func TestProcCPU(t *testing.T) {
	c0 := procCPU()
	time.Sleep(100 * time.Millisecond)
	if d := procCPU() - c0; d > 50*time.Millisecond {
		t.Fatalf("a 100 ms sleep used %v of CPU time", d)
	}
	c0 = procCPU()
	for deadline := time.Now().Add(5 * time.Second); procCPU()-c0 < 20*time.Millisecond; {
		if time.Now().After(deadline) {
			t.Fatal("5 s of spinning used less than 20 ms of CPU time")
		}
	}
}

// TestSpeedRef: reference time is CPU time scaled by the probe's reference
// time over its median around the row.
func TestSpeedRef(t *testing.T) {
	ref := probeRef.Seconds()
	if got := (speed{ref, 2 * ref, 2 * ref}).ref(0, time.Second); got != 500*time.Millisecond {
		t.Fatalf("a host at half the reference speed: 1 s of CPU time is %v of reference time, want 500ms", got)
	}
	if got := (speed{ref}).ref(0, time.Second); got != time.Second {
		t.Fatalf("a host at the reference speed: 1 s of CPU time is %v of reference time", got)
	}
	// Row 0 reads probes 0..probeWindow only: a slow stretch later in the
	// pass does not scale it.
	s := make(speed, 3*probeWindow)
	for i := range s {
		s[i] = ref
		if i > probeWindow {
			s[i] = 4 * ref
		}
	}
	if got := s.ref(0, time.Second); got != time.Second {
		t.Fatalf("row 0 scaled by probes outside its window: %v", got)
	}
	if got := s.ref(len(s)-1, time.Second); got != 250*time.Millisecond {
		t.Fatalf("the last row, in a stretch at a quarter of the reference speed: %v, want 250ms", got)
	}
	if p := probe(); p <= 0 {
		t.Fatalf("the probe took %v", p)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, pct, beyond := tail(xs)
	if v != 30 || pct != 75 || beyond != 10 {
		t.Fatalf("tail of 1..40 = %v (p%d, %d beyond), want 30 (p75, 10 beyond)", v, pct, beyond)
	}
	big := make([]float64, 300)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if v, pct, beyond := tail(big); v != 270 || pct != 90 || beyond != 30 {
		t.Fatalf("tail of 1..300 = %v (p%d, %d beyond), want 270 (p90, 30 beyond)", v, pct, beyond)
	}
	if g := sgm([]float64{0, 0}, 10); g > 1e-9 || g < -1e-9 {
		t.Fatalf("sgm of zeros = %v", g)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the program
// prints in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, decls []decl, units map[string]string) {
		if len(decls) != len(units) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", what, len(decls), len(units))
		}
		for _, d := range decls {
			if u, ok := units[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: %s declared in %q, printed in %q (present %v)", what, d.Name, d.Unit, u, ok)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndUnits)
	same("per_layer", spec.PerLayer, layerUnits)
	for k := range layers(nil) {
		if _, ok := layerUnits[k]; !ok {
			t.Errorf("layers computes undeclared metric %s", k)
		}
	}
}
