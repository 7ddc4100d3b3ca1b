package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/opb"
	"repro/internal/verify"
	"repro/internal/wbo"
)

// TestMain re-execs the test binary as bsolo itself when BSOLO_RUN_MAIN is
// set: end-to-end tests drive real argv/stdin/exit-code behavior without a
// separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("BSOLO_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBsolo runs bsolo with the given stdin and flags, returning the combined
// output and the exit code.
func runBsolo(t *testing.T, stdin string, args ...string) (string, int) {
	t.Helper()
	return runBsoloEnv(t, nil, stdin, args...)
}

// runBsoloEnv is runBsolo with extra environment variables. A run that has
// not exited after a minute is killed, so a hang fails the test instead of
// stalling the suite.
func runBsoloEnv(t *testing.T, env []string, stdin string, args ...string) (string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), "BSOLO_RUN_MAIN=1"), env...)
	cmd.Stdin = strings.NewReader(stdin)
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("exec: %v\n%s", err, out)
	}
	return string(out), code
}

// wcnfSplit forces WPM1 weight splitting; penalty optimum 5 (see the
// testdata/fuzz-corpus ground-truth table).
const wcnfSplit = `p wcnf 2 4 100
100 -1 -2 0
7 1 0
2 -1 0
3 2 0
`

func TestWeightedCoreGuidedOptimum(t *testing.T) {
	out, code := runBsolo(t, wcnfSplit, "-wcnf", "-core-guided", "-audit")
	if !strings.Contains(out, "s OPTIMUM FOUND") || !strings.Contains(out, "o 5\n") {
		t.Fatalf("missing optimum lines:\n%s", out)
	}
	if !strings.Contains(out, "v x1 -x2") {
		t.Fatalf("value line must cover the original variables only:\n%s", out)
	}
	if code != 30 {
		t.Fatalf("exit code %d, want 30 (optimum)", code)
	}
}

// TestWeightedBigMAgrees runs the same instance through the default big-M
// branch-and-bound path: same penalty, same exit code.
func TestWeightedBigMAgrees(t *testing.T) {
	out, code := runBsolo(t, wcnfSplit, "-wcnf", "-audit")
	if !strings.Contains(out, "s OPTIMUM FOUND") || !strings.Contains(out, "o 5\n") {
		t.Fatalf("big-M path disagrees with core-guided:\n%s", out)
	}
	if code != 30 {
		t.Fatalf("exit code %d, want 30", code)
	}
}

// TestWeightedHardUnsat pins the hard-UNSAT vs penalty-optimum distinction:
// a hard empty clause is UNSATISFIABLE (exit 20), never a penalty optimum.
func TestWeightedHardUnsat(t *testing.T) {
	in := "p wcnf 1 2 9\n9 0\n5 1 0\n"
	for _, extra := range [][]string{{"-core-guided"}, nil} {
		out, code := runBsolo(t, in, append([]string{"-wcnf"}, extra...)...)
		if !strings.Contains(out, "s UNSATISFIABLE") ||
			!strings.Contains(out, "hard constraints alone are contradictory") {
			t.Fatalf("args %v: missing hard-UNSAT verdict:\n%s", extra, out)
		}
		if code != 20 {
			t.Fatalf("args %v: exit code %d, want 20 (hard-UNSAT)", extra, code)
		}
	}
}

// TestWeightedSoftEmptyOffset: a soft empty clause folds into the offset and
// must still be paid on the o line.
func TestWeightedSoftEmptyOffset(t *testing.T) {
	in := "p wcnf 2 4 10\n10 1 2 0\n4 0\n2 -1 0\n1 -2 0\n"
	out, code := runBsolo(t, in, "-wcnf", "-core-guided")
	if !strings.Contains(out, "o 5\n") || code != 30 {
		t.Fatalf("exit %d, want offset-inclusive optimum 5:\n%s", code, out)
	}
}

// softOPB is a toy soft-OPB instance with penalty optimum 2.
const softOPB = "* toy wbo\nsoft: 10 ;\n+1 a +1 b >= 1 ;\n[3] +1 ~a >= 1 ;\n[2] +1 ~b >= 1 ;\n"

func TestSoftOPBInput(t *testing.T) {
	out, code := runBsolo(t, softOPB, "-wbo", "-core-guided")
	if !strings.Contains(out, "s OPTIMUM FOUND") || !strings.Contains(out, "o 2\n") {
		t.Fatalf("soft-OPB optimum wrong:\n%s", out)
	}
	if !strings.Contains(out, "v -a b") {
		t.Fatalf("value line must use the declared names:\n%s", out)
	}
	if code != 30 {
		t.Fatalf("exit code %d, want 30", code)
	}
}

// TestMixedPortfolioWeighted races the core-guided member against the exact
// members on the compiled problem, under the auditor.
func TestMixedPortfolioWeighted(t *testing.T) {
	out, code := runBsolo(t, wcnfSplit, "-wcnf", "-core-guided", "-portfolio", "-audit")
	if !strings.Contains(out, "s OPTIMUM FOUND") || !strings.Contains(out, "o 5\n") {
		t.Fatalf("mixed portfolio disagrees:\n%s", out)
	}
	if code != 30 {
		t.Fatalf("exit code %d, want 30", code)
	}
}

// TestCoreGuidedMemberPublishesMetrics checks that the core-guided member of
// a race reports its verdict in the -metrics snapshot like every other
// member. The sequential race (-members 1 -share=false) runs it first, so
// it is the member that proves the optimum.
func TestCoreGuidedMemberPublishesMetrics(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")
	out, code := runBsolo(t, softOPB, "-wbo", "-core-guided", "-portfolio", "-members", "1",
		"-share=false", "-metrics", metrics)
	if code != 30 || !strings.Contains(out, "winner: core-guided") {
		t.Fatalf("exit %d, want 30 with a core-guided win:\n%s", code, out)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Solvers []map[string]any `json:"solvers"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	for _, m := range snap.Solvers {
		if m["name"] != "core-guided" {
			continue
		}
		if m["status"] != "optimal" || m["best"] != 2.0 {
			t.Fatalf("core-guided metrics: status=%v best=%v, want optimal/2: %v", m["status"], m["best"], m)
		}
		if _, ok := m["conflicts"]; !ok {
			t.Fatalf("core-guided metrics carry no counters: %v", m)
		}
		return
	}
	t.Fatalf("no core-guided member in the metrics snapshot: %s", raw)
}

// TestUnbudgetedLSMembersRejected: local-search members run until they are
// cancelled and take the first member slots, so a race whose explicit
// -members cap lets them hold every slot, with neither -time nor -ls-flips,
// would never end. bsolo refuses it up front; a flip budget makes the same
// race finish. Without a cap every member starts at once, so the race ends
// even on one CPU.
func TestUnbudgetedLSMembersRejected(t *testing.T) {
	in := "min: +1 x1 +2 x2 +3 x3 ;\n+1 x1 +1 x2 +1 x3 >= 2 ;\n"
	for _, args := range [][]string{
		{"-members", "1", "-ls", "1"},
		{"-members", "2", "-ls", "2"},
	} {
		args := append([]string{"-portfolio"}, args...)
		out, code := runBsolo(t, in, args...)
		if code != 1 || !strings.Contains(out, "would never finish") {
			t.Fatalf("args %v: exit %d, want a usage error:\n%s", args, code, out)
		}
		out, code = runBsolo(t, in, append(args, "-ls-flips", "10000")...)
		if code != 0 || !strings.Contains(out, "s OPTIMUM FOUND") || !strings.Contains(out, "o 3\n") {
			t.Fatalf("args %v -ls-flips 10000: exit %d, want optimum 3:\n%s", args, code, out)
		}
	}
	out, code := runBsoloEnv(t, []string{"GOMAXPROCS=1"}, in, "-portfolio", "-ls", "1")
	if code != 0 || !strings.Contains(out, "s OPTIMUM FOUND") || !strings.Contains(out, "o 3\n") {
		t.Fatalf("GOMAXPROCS=1 -portfolio -ls 1: exit %d, want optimum 3:\n%s", code, out)
	}
}

// TestLSMemberDoesNotStarveTheProvers: with more members than CPUs, a race
// with one LS member must still let lpr, which proves this synth instance
// at the root, run at once. When members waited for slots in roster order,
// the LS member and plain held both CPUs until the 3 s deadline. The bound
// is on the race's own "c solved in" time, not on the process: start-up and
// exit are not the race, and under -race they alone approach a second.
func TestLSMemberDoesNotStarveTheProvers(t *testing.T) {
	p, err := gen.Synthesis(gen.SynthesisConfig{Nodes: 28, Impls: 4, Fanout: 1.5, Incompat: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, code := runBsoloEnv(t, []string{"GOMAXPROCS=2"}, opb.WriteString(p),
		"-portfolio", "-ls", "1", "-time", "3s", "-model=false")
	if code != 0 || !strings.Contains(out, "s OPTIMUM FOUND") {
		t.Fatalf("exit %d, want an optimum:\n%s", code, out)
	}
	_, v, ok := strings.Cut(out, "c solved in ")
	v, _, _ = strings.Cut(v, "\n")
	race, err := time.ParseDuration(v)
	if !ok || err != nil {
		t.Fatalf("no race time (%v):\n%s", err, out)
	}
	if race >= time.Second {
		t.Fatalf("race took %v, want under 1s (a prover waited for a slot):\n%s", race, out)
	}
}

func TestCoreGuidedRequiresWeightedInput(t *testing.T) {
	out, code := runBsolo(t, "min: +1 x1 ;\n+1 x1 >= 0 ;\n", "-core-guided")
	if code != 1 || !strings.Contains(out, "-core-guided requires") {
		t.Fatalf("exit %d, want usage error:\n%s", code, out)
	}
}

// TestPlainOPBExitZero guards the pre-existing contract: plain OPB runs keep
// exit code 0 regardless of the weighted-mode exit-code convention.
func TestPlainOPBExitZero(t *testing.T) {
	out, code := runBsolo(t, "min: +1 x1 ;\n+1 x1 +1 x2 >= 1 ;\n")
	if !strings.Contains(out, "s OPTIMUM FOUND") || code != 0 {
		t.Fatalf("exit %d, want 0 with optimum:\n%s", code, out)
	}
}

func TestWeightedValueLineNames(t *testing.T) {
	wi := &wbo.Instance{NumVars: 3, Names: []string{"a", ""}}
	got := weightedValueLine(wi, []bool{true, false, true})
	if got != "v a -x2 x3" {
		t.Fatalf("got %q", got)
	}
}

// mcncOPB renders a generated MCNC covering instance as OPB text.
func mcncOPB(t *testing.T, inputs int) string {
	t.Helper()
	p, err := gen.MinCover(gen.MinCoverConfig{Inputs: inputs, OnDensity: 0.3, DcDensity: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return opb.WriteString(p)
}

// TestPBCardNormalizedReachesMetrics checks that the count of learned PB
// constraints normalized to cardinality constraints reaches the -metrics
// document with the value -stats prints.
func TestPBCardNormalizedReachesMetrics(t *testing.T) {
	p, err := gen.Sym(gen.SymConfig{Inputs: 7, LowK: 3, HighK: 6})
	if err != nil {
		t.Fatal(err)
	}
	metrics := filepath.Join(t.TempDir(), "m.json")
	out, code := runBsolo(t, opb.WriteString(p),
		"-lb", "plain", "-pb-learning", "-conflicts", "5000", "-stats", "-metrics", metrics)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	var printed int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, "c pb_card_normalized="); ok {
			if printed, err = strconv.ParseInt(v, 10, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	if printed <= 0 {
		t.Fatalf("-stats printed no pb_card_normalized count; the check is vacuous:\n%s", out)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Solvers []map[string]any `json:"solvers"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Solvers) != 1 {
		t.Fatalf("want one solver block, got %d", len(doc.Solvers))
	}
	got, ok := doc.Solvers[0]["pb_card_normalized"]
	if !ok || got != float64(printed) {
		t.Fatalf("metrics pb_card_normalized = %v (present %v), -stats printed %d", got, ok, printed)
	}
}

// TestPortfolioHonoursAblationFlags checks that the tuning flags reach
// every portfolio member, not only single solves: -no-knapsack and -chrono
// (no eq. 10 incumbent cuts, no levels saved by non-chronological
// backjumps). The members run one after another (-members 1 -share=false),
// so the counts are deterministic, and a run without the flags shows the
// counters the flags must zero.
func TestPortfolioHonoursAblationFlags(t *testing.T) {
	text := mcncOPB(t, 9)
	solvers := func(flags ...string) ([]obs.SolverMetrics, []byte) {
		t.Helper()
		metrics := filepath.Join(t.TempDir(), "m.json")
		args := append([]string{"-portfolio", "-members", "1", "-share=false", "-conflicts", "50",
			"-metrics", metrics}, flags...)
		out, code := runBsolo(t, text, args...)
		if code != 0 {
			t.Fatalf("exit %d, want 0:\n%s", code, out)
		}
		raw, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatal(err)
		}
		return snap.Solvers, raw
	}
	base, _ := solvers()
	var cuts, saved int64
	for _, m := range base {
		cuts += m.KnapsackCuts
		saved += m.NCBSavedLevels
	}
	if cuts == 0 || saved == 0 {
		t.Fatalf("without the flags the members report knapsack_cuts=%d ncb_saved_levels=%d; the check is vacuous",
			cuts, saved)
	}
	ablated, raw := solvers("-no-knapsack", "-chrono")
	sawLPR := false
	for _, m := range ablated {
		if m.KnapsackCuts != 0 || m.NCBSavedLevels != 0 {
			t.Errorf("member %s: knapsack_cuts=%d ncb_saved_levels=%d under -no-knapsack -chrono",
				m.Name, m.KnapsackCuts, m.NCBSavedLevels)
		}
		if m.Name == "lpr" {
			sawLPR = true
			if m.BoundCalls == 0 {
				t.Errorf("lpr member made no bound calls; the check is vacuous")
			}
		}
	}
	if !sawLPR {
		t.Fatalf("no lpr member in the metrics snapshot: %s", raw)
	}
}

// TestSIGTERMReportsVerifiedIncumbent stops a long plain search with SIGTERM
// once it has printed an incumbent, and checks that bsolo says so, exits
// promptly, and prints a value line that satisfies the problem at the
// printed objective.
func TestSIGTERMReportsVerifiedIncumbent(t *testing.T) {
	text := mcncOPB(t, 10)
	prob, err := opb.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-lb", "plain")
	cmd.Env = append(os.Environ(), "BSOLO_RUN_MAIN=1")
	cmd.Stdin = strings.NewReader(text)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	// Read up to the first o line, then signal; each phase has a kill
	// switch so a hung process fails the test instead of stalling it.
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var out []string
	sawO := false
	kill := time.AfterFunc(60*time.Second, func() { cmd.Process.Kill() })
	for !sawO && sc.Scan() {
		out = append(out, sc.Text())
		sawO = strings.HasPrefix(sc.Text(), "o ")
	}
	kill.Stop()
	if !sawO {
		t.Fatalf("no o line before exit or 60s:\n%s", strings.Join(out, "\n"))
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	signalled := time.Now()
	kill = time.AfterFunc(10*time.Second, func() { cmd.Process.Kill() })
	defer kill.Stop()
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("bsolo exit after SIGTERM: %v\n%s", err, strings.Join(out, "\n"))
	}
	if waited := time.Since(signalled); waited > 5*time.Second {
		t.Fatalf("bsolo took %v to exit after SIGTERM", waited)
	}

	all := strings.Join(out, "\n")
	if !strings.Contains(all, "c caught terminated") {
		t.Fatalf("no 'c caught' line:\n%s", all)
	}
	if !strings.Contains(all, "s UNKNOWN") {
		t.Fatalf("an interrupted plain search must report s UNKNOWN:\n%s", all)
	}
	var best int64
	haveBest := false
	for _, l := range out {
		if strings.HasPrefix(l, "o ") {
			if best, err = strconv.ParseInt(strings.TrimPrefix(l, "o "), 10, 64); err != nil {
				t.Fatal(err)
			}
			haveBest = true
		}
	}
	if !haveBest {
		t.Fatalf("no o line:\n%s", all)
	}
	asg, err := verify.ScanValueLine(prob, strings.NewReader(all))
	if err != nil {
		t.Fatal(err)
	}
	rep := verify.Check(prob, asg.Values)
	if !rep.Feasible {
		t.Fatalf("printed assignment violates constraint %d", rep.ViolatedIdx)
	}
	if rep.Objective != best {
		t.Fatalf("printed assignment costs %d, last o line says %d", rep.Objective, best)
	}
}

// TestPortfolioPropsPerSecCountsEveryMember checks that a race's -stats rate
// line divides the propagations of every member, not the winner's alone, by
// the run's wall time. The members run one after another under a conflict
// budget (-members 1 -share=false), so the losers that ran out of budget
// before the winner carry most of the propagations.
func TestPortfolioPropsPerSecCountsEveryMember(t *testing.T) {
	out, code := runBsolo(t, mcncOPB(t, 7), "-portfolio", "-members", "1", "-share=false",
		"-conflicts", "20", "-stats", "-model=false")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	winner, elapsed, rate, props := "", time.Duration(0), -1.0, map[string]float64{}
	var err error
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, "c portfolio winner: "); ok {
			winner, _, _ = strings.Cut(v, " ")
		}
		if v, ok := strings.CutPrefix(line, "c solved in "); ok {
			if elapsed, err = time.ParseDuration(v); err != nil {
				t.Fatal(err)
			}
		}
		if v, ok := strings.CutPrefix(line, "c props_per_sec="); ok {
			if rate, err = strconv.ParseFloat(v, 64); err != nil {
				t.Fatal(err)
			}
		}
		if v, ok := strings.CutPrefix(line, "c member."); ok {
			if name, n, ok := strings.Cut(v, ".propagations="); ok {
				if props[name], err = strconv.ParseFloat(n, 64); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var total float64
	for _, n := range props {
		total += n
	}
	if winner == "" || elapsed <= 0 || rate < 0 || total <= props[winner] {
		t.Fatalf("want a winner, a wall time, a rate and losers with propagations; the check is vacuous:\n%s", out)
	}
	if want := total / elapsed.Seconds(); math.Abs(rate-want) > 1 {
		t.Fatalf("props_per_sec=%.0f, want %.0f (%.0f propagations over %v, the winner %s ran %.0f):\n%s",
			rate, want, total, elapsed, winner, props[winner], out)
	}
}

// verdict is what a run reports: its s line, its last o line ("" when it
// prints none) and its exit code.
type verdict struct {
	s, o string
	code int
}

func verdictOf(out string, code int) verdict {
	v := verdict{code: code}
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "s "):
			v.s = line
		case strings.HasPrefix(line, "o "):
			v.o = line
		}
	}
	return v
}

// tableRow renders the first row of a Table 1 family, at a scale every
// member solves in milliseconds, as OPB text.
func tableRow(t *testing.T, fam harness.Family, sc harness.Scale) string {
	t.Helper()
	sc.PerFamily = 1
	insts, err := harness.Instances([]harness.Family{fam}, sc)
	if err != nil {
		t.Fatal(err)
	}
	return opb.WriteString(insts[0].Prob)
}

// TestEveryModeReportsTheSameAnswer feeds the same inputs to every run mode.
// Each mode is a race through the same member runner and claim check, and
// one report step prints its answer, so every mode must print the same s
// line, the same final o line and the same exit code.
func TestEveryModeReportsTheSameAnswer(t *testing.T) {
	weightedModes := [][]string{{"-lb", "lpr"}, {"-portfolio", "-members", "1", "-share=false"},
		{"-core-guided"}, {"-core-guided", "-portfolio"}}
	opbModes := weightedModes[:2]
	for _, tc := range []struct {
		name  string
		in    string
		flags []string
		modes [][]string
		s     string
		code  int
	}{
		{"synth", tableRow(t, harness.FamilySynth, harness.Scale{SynthNodes: 20}), nil, opbModes, "s OPTIMUM FOUND", 0},
		{"acc (objective-free)", tableRow(t, harness.FamilyAcc, harness.Scale{AccTeams: 6}), nil, opbModes, "s SATISFIABLE", 0},
		{"wcnfSplit", wcnfSplit, []string{"-wcnf"}, weightedModes, "s OPTIMUM FOUND", 30},
		{"hard-UNSAT wcnf", "p wcnf 1 2 9\n9 0\n5 1 0\n", []string{"-wcnf"}, weightedModes, "s UNSATISFIABLE", 20},
	} {
		var first verdict
		for i, mode := range tc.modes {
			out, code := runBsolo(t, tc.in, append(append([]string{"-model=false"}, tc.flags...), mode...)...)
			got := verdictOf(out, code)
			if i == 0 {
				if got.s != tc.s || got.code != tc.code {
					t.Fatalf("%s %v: %q exit %d, want %q exit %d:\n%s", tc.name, mode, got.s, got.code, tc.s, tc.code, out)
				}
				first = got
				continue
			}
			if got != first {
				t.Errorf("%s %v: %+v, but %v reports %+v:\n%s", tc.name, mode, got, tc.modes[0], first, out)
			}
		}
	}
}

// TestCoreGuidedCounters checks that the core-guided member alone reports
// its loop's counters, its proved lower bound included, in -stats and as
// the one solver block of -metrics.
func TestCoreGuidedCounters(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")
	out, code := runBsolo(t, wcnfSplit, "-wcnf", "-core-guided", "-stats", "-metrics", metrics)
	if code != 30 {
		t.Fatalf("exit %d, want 30:\n%s", code, out)
	}
	for _, line := range []string{"c core_guided.iterations=3", "c core_guided.cores=2", "c core_guided.lower_bound=5"} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("-stats lacks %q:\n%s", line, out)
		}
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Solvers) != 1 || snap.Solvers[0].Name != "core-guided" {
		t.Fatalf("want one core-guided solver block: %s", raw)
	}
	m := snap.Solvers[0]
	if m.Status != "optimal" || m.CoreGuided == nil || m.CoreGuided.LowerBound != 5 || m.CoreGuided.Cores != 2 {
		t.Fatalf("core-guided block: status %q counters %+v, want optimal with 2 cores and lower bound 5: %s",
			m.Status, m.CoreGuided, raw)
	}
}
