// Command tablebench is the end-to-end benchmark of the solver: it generates
// a workload's rows from a seed, writes them as text, parses them back with
// the public readers, solves them with the configurations bsolo uses, checks
// every answer, and prints the metrics as one JSON line.
//
//	go run . --workload table1-lpr --seed 7 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and what each one measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// A run reads and compiles its inputs at least minSetupReps times, and more
// until setupSeconds of reference CPU time are spent (at most maxSetupReps);
// setup_s is the median.
const (
	minSetupReps = 5
	maxSetupReps = 21
	setupSeconds = 2.0
)

// spanDir is where a traced run writes its spans, relative to the working
// directory.
const spanDir = ".bench_build/spans"

// rowCounts is one row's entry in the determinism record.
type rowCounts struct {
	Row          string `json:"row"`
	Conflicts    int64  `json:"conflicts"`
	Decisions    int64  `json:"decisions"`
	Propagations int64  `json:"propagations"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: table1-lpr | race-wbo")
		seed    = flag.Int64("seed", defaultSeed, "workload seed; every generator seed derives from it")
		seconds = flag.Int("seconds", 20, "measure for at least this long, in whole passes over the rows")
		traced  = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "tablebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tablebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tablebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run: set-up, the reference solves, then whole
// passes over the rows until the measuring time is spent. Each metric is the
// median over passes; times are reference CPU times (see speed). A traced
// run alternates untraced and traced passes, so the two differ only in
// tracing.
func run(w workload, seed int64, measure time.Duration, traced bool) (result, error) {
	procs := 1
	if w.race {
		procs = raceWorkers
	}
	runtime.GOMAXPROCS(procs)
	ins, err := w.inputs(seed)
	if err != nil {
		return result{}, err
	}
	var setups []float64
	var ps []parsed
	for total := 0.0; len(setups) < minSetupReps || (total < setupSeconds && len(setups) < maxSetupReps); {
		ps = nil
		runtime.GC() // every repetition starts from the same heap
		var d time.Duration
		if ps, d, err = setup(ins); err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
		total += d.Seconds()
	}
	t0 := time.Now()
	refs := references(ps)
	fmt.Fprintf(os.Stderr, "tablebench: %d set-ups, references %.1f s\n", len(setups), time.Since(t0).Seconds())
	ps = nil
	runtime.GC()

	var (
		plain     []map[string]float64
		withTrace []map[string]float64
		gaps      []float64
		record    []rowCounts
		failures  []string
		attempted int
	)
	tr := newTracer()
	start := time.Now()
	for pass := 0; ; pass++ {
		var ptr *tracer
		if traced && pass%2 == 1 {
			ptr = tr
			tr.pass = pass
		}
		rs := make([]rowResult, len(ins))
		var sp speed
		for i, in := range ins {
			sp.sample()
			rs[i] = w.runRow(in, ptr, i)
		}
		for i := range rs {
			rs[i].ref, rs[i].bestRef = sp.ref(i, rs[i].cpu), sp.ref(i, rs[i].bestAt)
		}
		crossCheck(rs, refs)
		if !w.race {
			counts := countsOf(rs)
			if record == nil {
				record = counts
			} else if msg := sameCounts(record, counts); msg != "" {
				failures = append(failures, fmt.Sprintf("pass %d: %s", pass, msg))
			}
		}
		attempted += len(rs)
		for i := range rs {
			if rs[i].failure != "" {
				failures = append(failures, fmt.Sprintf("pass %d: %s: %s", pass, rs[i].name, rs[i].failure))
			}
		}
		gaps = append(gaps, primalGap(rs, refs))
		e := endToEnd(rs)
		fmt.Fprintf(os.Stderr, "tablebench: pass %d: solve %.3f s reference CPU, %.3f s CPU, %.3f s wall; probe %.4f ms\n",
			pass, e["solve_ref_s"], cpuSeconds(rs), wallSeconds(rs), sp.probeMS())
		if ptr == nil {
			plain = append(plain, e)
		} else {
			l := layers(rs)
			l["solve_ref_s"] = e["solve_ref_s"]
			l["host.probe_ms"] = sp.probeMS()
			withTrace = append(withTrace, l)
		}
		if time.Since(start) >= measure && (!traced || len(withTrace) > 0) {
			break
		}
	}

	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "tablebench: FAILED", f)
	}
	if record != nil {
		// Strings and integers only: Marshal cannot fail here.
		line, _ := json.Marshal(map[string]any{"determinism": map[string]any{
			"workload": w.name, "seed": seed, "rows": record}})
		fmt.Println(string(line))
	}
	_, pct, beyond := tail(make([]float64, len(ins)))
	fmt.Printf("tablebench: workload=%s seed=%d rows=%d passes=%d row_ref_tail_ms=p%d (%d rows beyond it)\n",
		w.name, seed, len(ins), len(plain)+len(withTrace), pct, beyond)

	out := result{Attempted: attempted, Failed: len(failures), Metrics: map[string]metric{}}
	out.Correct = out.Failed == 0
	if !traced {
		for k, v := range medians(plain) {
			out.Metrics[k] = metric{v, endToEndUnits[k]}
		}
		out.Metrics["setup_s"] = metric{median(setups), endToEndUnits["setup_s"]}
		out.Metrics["peak_rss_mb"] = metric{peakRSS(), endToEndUnits["peak_rss_mb"]}
		return out, nil
	}
	l := medians(withTrace)
	untraced := medians(plain)["solve_ref_s"]
	l["trace.overhead_pct"] = 100 * (l["solve_ref_s"] - untraced) / untraced
	l["primal_gap_pct"] = median(gaps)
	delete(l, "solve_ref_s")
	for k, v := range l {
		out.Metrics[k] = metric{v, layerUnits[k]}
	}
	path, err := tr.write(spanDir, w.name, seed)
	if err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	names := tr.names()
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("tablebench: %d spans in %s:", len(tr.spans), path)
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, names[k])
	}
	fmt.Println()
	return out, nil
}

// medians reduces per-pass metric maps to the median of each metric.
func medians(passes []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	if len(passes) == 0 {
		return out
	}
	for k := range passes[0] {
		vs := make([]float64, len(passes))
		for i, p := range passes {
			vs[i] = p[k]
		}
		out[k] = median(vs)
	}
	return out
}

// wallSeconds is the total wall time of a pass's solve calls.
func wallSeconds(rs []rowResult) float64 {
	var s float64
	for i := range rs {
		s += rs[i].solve.Seconds()
	}
	return s
}

// cpuSeconds is the total CPU time of a pass's solve calls.
func cpuSeconds(rs []rowResult) float64 {
	var s float64
	for i := range rs {
		s += rs[i].cpu.Seconds()
	}
	return s
}

// countsOf is the determinism record of one pass.
func countsOf(rs []rowResult) []rowCounts {
	out := make([]rowCounts, len(rs))
	for i := range rs {
		st := &rs[i].stats
		out[i] = rowCounts{Row: rs[i].name, Conflicts: st.Conflicts + st.BoundConflicts,
			Decisions: st.Decisions, Propagations: st.Propagations}
	}
	return out
}

// sameCounts reports the first row whose counts differ between two passes.
func sameCounts(a, b []rowCounts) string {
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("%s: counts changed between passes: %+v vs %+v", a[i].Row, a[i], b[i])
		}
	}
	return ""
}

// peakRSS returns the process's peak resident memory in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
