// Command bsolo is the reproduction's pseudo-Boolean optimizer CLI: it reads
// an OPB instance and solves it with a selectable lower-bound method and
// search strategy, printing results in the pseudo-Boolean-evaluation style
// (c comments, "s" status line, "o" objective line, "v" value line).
//
// Usage:
//
//	bsolo [flags] [instance.opb]
//
// With no file argument the instance is read from standard input.
//
// Weighted Boolean Optimization inputs are selected with -wcnf (DIMACS
// weighted CNF) or -wbo (soft OPB). They solve through the big-M compilation
// by default; -core-guided switches to the WPM1 core-guided loop (or, with
// -portfolio, adds it to the race). Weighted runs report the penalty optimum
// in instance space and exit 30 (optimum), 20 (the hard constraints alone
// are contradictory) or 0 (unknown), per the MaxSAT-evaluation convention.
//
// Every mode runs as a portfolio race (one member unless -portfolio), and
// every printed answer is re-checked in the input's own variables first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/opb"
	"repro/internal/pb"
	"repro/internal/portfolio"
	"repro/internal/preprocess"
	"repro/internal/verify"
	"repro/internal/wbo"
	"repro/internal/wcnf"
)

func main() {
	var (
		lbFlag       = flag.String("lb", "lpr", "lower bound method: plain|mis|lgr|lpr")
		strategy     = flag.String("strategy", "bb", "search strategy: bb (branch-and-bound) | linear")
		wcnfIn       = flag.Bool("wcnf", false, "parse the input as weighted CNF (DIMACS wcnf; weights at or above the header top are hard)")
		wboIn        = flag.Bool("wbo", false, "parse the input as soft OPB (soft: header plus [w]-prefixed soft constraints)")
		coreGuided   = flag.Bool("core-guided", false, "with -wcnf/-wbo: WPM1 core-guided search instead of big-M branch-and-bound (with -portfolio: joins the race as an extra member)")
		timeLimit    = flag.Duration("time", 0, "wall-clock limit on the whole run, parsing, presolve and every portfolio member included (e.g. 30s; 0 = none)")
		maxConflicts = flag.Int64("conflicts", 0, "conflict limit (0 = none)")
		chrono       = flag.Bool("chrono", false, "chronological backtracking on bound conflicts (§4 ablation)")
		noLPBranch   = flag.Bool("no-lp-branching", false, "disable §5 LP-guided branching")
		noKnapsack   = flag.Bool("no-knapsack", false, "disable the eq. 10 incumbent constraint")
		cardInf      = flag.Bool("card-inference", true, "enable eq. 11-13 cardinality inference")
		lgrIters     = flag.Int("lgr-iters", 50, "Lagrangian subgradient iterations per bound")
		pre          = flag.Bool("preprocess", false, "apply probing/strengthening/subsumption first")
		presolve     = flag.Bool("presolve", false, "fix variables by probing + roof-duality-style persistency and solve the reduced problem (results are mapped back to the original variables)")
		pbLearn      = flag.Bool("pb-learning", false, "derive Galena-style cutting-plane constraints at conflicts")
		cutsOn       = flag.Bool("cuts", true, "with -lb lpr: separate knapsack-cover and clique cuts into a managed pool")
		portfolioRun = flag.Bool("portfolio", false, "race all four lower-bound methods concurrently")
		shareOn      = flag.Bool("share", true, "with -portfolio: cooperative sharing (incumbents + learned clauses); false = isolated race")
		maxMembers   = flag.Int("members", 0, "with -portfolio: cap on concurrently running members (0 = every member at once; 1 + -share=false = deterministic)")
		lsMembers    = flag.Int("ls", 0, "with -portfolio: append this many stochastic local-search members (UB-only: they publish incumbents but never prove optimality or infeasibility)")
		lsFlips      = flag.Int64("ls-flips", 0, "with -ls: per-member flip limit (0 = none; the wall clock governs)")
		auditRun     = flag.Bool("audit", false, "replay learned clauses, bound conflicts, imports and incumbents against the original problem (exhaustive on small instances; see internal/audit)")
		showStats    = flag.Bool("stats", false, "print solver statistics")
		showModel    = flag.Bool("model", true, "print the v (values) line")
		tracePath    = flag.String("trace", "", "record structured search events and write them as JSONL to this file at exit")
		tracePretty  = flag.Bool("trace-pretty", false, "print the recorded search events human-readably on stderr at exit (implies tracing)")
		traceCap     = flag.Int("trace-cap", obs.DefaultTraceCapacity, "trace ring capacity in events (oldest events are overwritten beyond it)")
		debugAddr    = flag.String("debug-addr", "", "serve the live introspection endpoint (GET /metrics JSON + /debug/pprof) on this address; \":port\" binds loopback only")
		metricsPath  = flag.String("metrics", "", "write the final unified metrics snapshot JSON to this file at exit")
	)
	flag.Parse()
	// The run's one deadline: parsing, presolve and every solver layer and
	// portfolio member count toward -time.
	var deadline time.Time
	if *timeLimit > 0 {
		deadline = time.Now().Add(*timeLimit)
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	var (
		prob *pb.Problem
		wi   *wbo.Instance // weighted instance (-wcnf/-wbo); nil for plain OPB
		err  error
	)
	switch {
	case *wcnfIn && *wboIn:
		fatal(fmt.Errorf("-wcnf and -wbo are mutually exclusive"))
	case *wcnfIn, *wboIn:
		if *wcnfIn {
			wi, err = wcnf.Parse(in)
		} else {
			wi, err = wcnf.ParseWBO(in)
		}
		if err != nil {
			fatal(err)
		}
		// The big-M compilation is the problem every exact member, the
		// auditor and the share board see; core-guided witnesses are mapped
		// into it via ExtendedWitness before they are verified or published.
		b, berr := wi.Builder()
		if berr != nil {
			fatal(berr)
		}
		if prob, err = b.Problem(); err != nil {
			fatal(err)
		}
		fmt.Printf("c parsed weighted instance: %d variables, %d hard, %d soft (offset %d)\n",
			wi.NumVars, len(wi.Hard), len(wi.Soft), wi.Offset)
		fmt.Printf("c compiled to %d variables, %d constraints\n", prob.NumVars, len(prob.Constraints))
	default:
		if prob, err = opb.Parse(in); err != nil {
			fatal(err)
		}
		fmt.Printf("c parsed %d variables, %d constraints\n", prob.NumVars, len(prob.Constraints))
	}
	if *coreGuided && wi == nil {
		fatal(fmt.Errorf("-core-guided requires a weighted instance (-wcnf or -wbo)"))
	}
	if wi != nil && (*pre || *presolve) {
		// These passes renumber or rewrite variables, which would silently
		// break the soft-constraint index mapping behind ExtendedWitness.
		fatal(fmt.Errorf("-preprocess/-presolve are not supported with -wcnf/-wbo"))
	}

	if *pre {
		var info preprocess.Info
		prob, info, err = preprocess.Apply(prob, preprocess.Options{CardinalityDetect: true})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("c preprocess: fixed=%d implications=%d subsumed=%d card=%d\n",
			info.FixedLiterals, info.Implications, info.SubsumedRemoved, info.CardinalityNormalized)
	}

	// -presolve eliminates variables and renumbers the problem; origProb and
	// fixing carry the mapping so the o/v lines and the final verification
	// stay in the ORIGINAL variable space.
	origProb := prob
	var fixing *preprocess.Fixing
	if *presolve {
		fixing, err = preprocess.FixVariables(prob)
		if err != nil {
			fatal(err)
		}
		prob = fixing.Problem
		fmt.Printf("c presolve: fixed=%d (probing=%d persistency=%d rounds=%d) vars %d -> %d, constraints %d -> %d\n",
			fixing.NumFixed(), fixing.ProbeFixed, fixing.PersistencyFixed, fixing.Rounds,
			origProb.NumVars, prob.NumVars, len(origProb.Constraints), len(prob.Constraints))
		if fixing.ProvedUnsat {
			fmt.Println("c presolve: proved infeasible at the root")
		}
	}

	opt := core.Options{
		Deadline:             deadline,
		MaxConflicts:         *maxConflicts,
		CardinalityInference: *cardInf,
		Tuning: core.Tuning{
			ChronologicalBounds: *chrono,
			NoLPBranching:       *noLPBranch,
			NoKnapsackCuts:      *noKnapsack,
			LGRIterations:       *lgrIters,
			PBLearning:          *pbLearn,
			NoCuts:              !*cutsOn,
		},
	}

	// SIGINT/SIGTERM close the race's Stop channel so the search unwinds
	// gracefully and prints the best incumbent with an "s UNKNOWN" status
	// line; a second signal exits immediately.
	cancel := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Printf("c caught %v: stopping search, reporting best incumbent\n", sig)
		close(cancel)
		<-sigc
		fmt.Println("s UNKNOWN")
		os.Exit(130)
	}()
	switch strings.ToLower(*lbFlag) {
	case "plain":
		opt.LowerBound = core.LBNone
	case "mis":
		opt.LowerBound = core.LBMIS
	case "lgr":
		opt.LowerBound = core.LBLGR
	case "lpr":
		opt.LowerBound = core.LBLPR
	default:
		fatal(fmt.Errorf("unknown -lb %q", *lbFlag))
	}
	switch strings.ToLower(*strategy) {
	case "bb":
		opt.Strategy = core.StrategyBranchBound
	case "linear":
		opt.Strategy = core.StrategyLinearSearch
	default:
		fatal(fmt.Errorf("unknown -strategy %q", *strategy))
	}

	var auditor *audit.Auditor
	if *auditRun {
		auditor = audit.New(prob)
		opt.Audit = auditor
		if prob.NumVars > audit.DefaultMaxExhaustiveVars {
			fmt.Printf("c audit: %d variables exceed the exhaustive gate (%d); clause/bound replays will be skipped, incumbents still re-verified\n",
				prob.NumVars, audit.DefaultMaxExhaustiveVars)
		}
	}

	// Observability: the trace ring records structured search events (JSONL
	// and/or pretty-printed at exit); the registry serves tear-free unified
	// metrics snapshots live on -debug-addr and writes the terminal snapshot
	// with -metrics. All nil (zero-cost) when the flags are unset.
	var tracer *obs.Tracer
	if *tracePath != "" || *tracePretty {
		tracer = obs.NewTracer(*traceCap)
	}
	var registry *obs.Registry
	if *debugAddr != "" || *metricsPath != "" {
		registry = obs.NewRegistry()
		if flag.NArg() > 0 {
			registry.SetMeta("instance", flag.Arg(0))
		}
		registry.SetMeta("lb", strings.ToLower(*lbFlag))
	}
	if *debugAddr != "" {
		bound, shutdown, err := obs.Serve(*debugAddr, registry)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
		fmt.Printf("c debug endpoint: http://%s/metrics (pprof at /debug/pprof/)\n", bound)
	}

	if *lsMembers > 0 && !*portfolioRun {
		fatal(fmt.Errorf("-ls requires -portfolio (a lone UB-only worker cannot conclude; race it against the exact members)"))
	}
	if *lsMembers > 0 && *timeLimit == 0 && *lsFlips == 0 && *maxMembers > 0 && *maxMembers <= *lsMembers {
		// LS members take the first slots and run until cancelled, so
		// without a budget an explicit cap must leave a slot for an exact
		// member.
		fatal(fmt.Errorf("-ls %d with %d member slots would never finish: unbudgeted LS members hold every slot; set -time or -ls-flips, or raise -members", *lsMembers, *maxMembers))
	}

	// Every mode is a race through portfolio.SolveOpts, so every answer
	// passes the race's one member runner and claim check: the default mode
	// races the one configuration the flags describe (named after -lb, so
	// trace, registry and metrics names are the method's), -core-guided
	// races the core-guided member alone, and -portfolio races the roster.
	var configs []portfolio.Config
	switch {
	case *portfolioRun:
		var cg *wbo.Instance
		if *coreGuided {
			cg = wi
		}
		configs = portfolio.Roster(opt, *lsMembers, *lsFlips, cg)
	case *coreGuided:
		configs = portfolio.Roster(opt, 0, 0, wi)[:1]
	default:
		// Each improving incumbent is printed as an o line the moment it is
		// found (the PB competition convention), so a run stopped by a
		// signal has already reported its progress.
		var offset int64
		if wi != nil {
			offset = wi.Offset
		}
		opt.OnIncumbent = func(best int64) { fmt.Printf("o %d\n", best+offset) }
		configs = []portfolio.Config{{Name: strings.ToLower(*lbFlag), Options: opt}}
	}
	start := time.Now()
	res := portfolio.SolveOpts(prob, configs, portfolio.Options{
		NoSharing:     !*portfolioRun || !*shareOn,
		MaxConcurrent: *maxMembers,
		Stop:          cancel,
		Audit:         auditor,
		Trace:         tracer,
		Registry:      registry,
	})
	elapsed := time.Since(start)
	if *portfolioRun {
		fmt.Printf("c portfolio winner: %s (members=%d concurrency=%d sharing=%t)\n",
			res.Winner, len(res.Members), res.Concurrency, res.Sharing)
	}
	fmt.Printf("c solved in %v\n", elapsed)

	auditOK := true
	if auditor != nil {
		rep := auditor.Snapshot()
		auditOK = rep.Ok()
		for _, line := range strings.Split(rep.String(), "\n") {
			fmt.Printf("c audit: %s\n", strings.TrimSpace(line))
		}
	}
	code := report(res, input{prob: origProb, fixing: fixing, wi: wi}, *showModel)
	if *showStats {
		if err := printStats(&res, *portfolioRun); err != nil {
			fatal(err)
		}
		// A race's rate counts every member's propagations over its wall
		// time, not the winner's alone.
		if secs := elapsed.Seconds(); secs > 0 && wi == nil {
			fmt.Printf("c props_per_sec=%.0f\n", float64(res.TotalPropagations())/secs)
		}
		if fixing != nil {
			fmt.Printf("c presolveFixed=%d\n", fixing.NumFixed())
		}
	}
	if err := writeObsOutputs(tracer, registry, *tracePath, *tracePretty, *metricsPath); err != nil {
		fatal(err)
	}
	if !auditOK {
		code = 2 // audit violations are a soundness bug, not a solver answer
	}
	if code != 0 {
		os.Exit(code)
	}
}

// input is the problem as the user stated it. The race solves a compiled
// (weighted input) or presolved (-presolve) form of it; the answer is
// mapped back into the input's own variables, re-checked and printed there.
type input struct {
	prob   *pb.Problem        // the problem before presolve (the compilation, for weighted input)
	fixing *preprocess.Fixing // -presolve's variable map, or nil
	wi     *wbo.Instance      // the weighted instance, or nil for OPB input
}

// recheck verifies an answer in the input's own space: values must satisfy
// every constraint and cost exactly best there (the penalty plus the
// offset, for weighted input). It returns what is wrong, or "".
func (in input) recheck(values []bool, best int64) string {
	if in.wi != nil {
		// The compiled hard rows are the instance's hard constraints; the
		// soft rows hold through the selectors ExtendedWitness sets.
		if rep := verify.Check(in.prob, in.wi.ExtendedWitness(values)); !rep.Feasible {
			return fmt.Sprintf("witness violates compiled constraint %d", rep.ViolatedIdx)
		}
		if pen, _ := in.wi.Penalty(values); pen+in.wi.Offset != best {
			return fmt.Sprintf("witness pays penalty %d, solver claimed %d", pen+in.wi.Offset, best)
		}
		return ""
	}
	rep := verify.Check(in.prob, values)
	switch {
	case !rep.Feasible:
		return fmt.Sprintf("model violates input constraint %d", rep.ViolatedIdx)
	case rep.Objective != best:
		return fmt.Sprintf("model costs %d in the input's space, solver claimed %d", rep.Objective, best)
	}
	return ""
}

// report prints the race's answer in the input's own space: a c solver
// error line per crashed member, then the o, s and v lines. It returns the
// exit code: weighted input follows the MaxSAT-evaluation convention (30
// optimum, 20 hard-UNSAT, 0 unknown), OPB input exits 0, and an answer that
// fails its re-check exits 2 and is not printed (s UNKNOWN).
//
// For weighted input, "s UNSATISFIABLE" means the hard constraints alone
// are contradictory, while an optimum that merely pays soft penalties
// prints the penalty on the o line under "s OPTIMUM FOUND": the compiled
// soft rows are always satisfiable through their selectors, so the compiled
// problem is infeasible exactly when the hard skeleton is.
func report(res portfolio.Result, in input, showModel bool) (code int) {
	names := make([]string, 0, len(res.Errors))
	for name := range res.Errors {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("c solver error: %v\n", firstLine(res.Errors[name]))
	}

	status, hasSol, best, values := res.Status, res.HasSolution, res.Best, res.Values
	if status == core.StatusSatisfiable && (in.wi != nil || in.prob.HasObjective()) {
		// The solved problem has no objective left but the input has one
		// (presolve fixed every costed variable, or no soft constraint
		// survived compilation): a feasible model is the input's optimum.
		status = core.StatusOptimal
	}
	if hasSol {
		switch {
		case in.wi != nil:
			values, best = values[:in.wi.NumVars], best+in.wi.Offset
		case in.fixing != nil:
			values = in.fixing.Lift(values)
		}
		if bug := in.recheck(values, best); bug != "" {
			fmt.Printf("c SOUNDNESS BUG — %s\n", bug)
			hasSol, status, code = false, core.StatusLimit, 2
		}
	}

	upper := "c best upper bound %d\n"
	if in.wi != nil {
		upper = "c best penalty upper bound %d\n"
	}
	switch status {
	case core.StatusOptimal:
		fmt.Printf("o %d\n", best)
		fmt.Println("s OPTIMUM FOUND")
		if in.wi != nil {
			code = 30
		}
	case core.StatusSatisfiable:
		fmt.Println("s SATISFIABLE")
	case core.StatusUnsat:
		if in.wi != nil {
			fmt.Println("c the hard constraints alone are contradictory (not a penalty optimum)")
			code = 20
		}
		fmt.Println("s UNSATISFIABLE")
	default:
		if hasSol {
			fmt.Printf(upper, best)
			fmt.Printf("o %d\n", best)
		}
		fmt.Println("s UNKNOWN")
	}
	if hasSol && showModel {
		if in.wi != nil {
			fmt.Println(weightedValueLine(in.wi, values))
		} else {
			fmt.Println(verify.FormatValueLine(in.prob, values))
		}
	}
	return code
}

// writeObsOutputs flushes the end-of-run observability artifacts: the JSONL
// event trace, the human-readable trace dump (stderr), and the terminal
// unified metrics snapshot. Any write failure is a hard error — a benchmark
// pipeline must not mistake a truncated artifact for a clean run.
func writeObsOutputs(tracer *obs.Tracer, registry *obs.Registry, tracePath string, tracePretty bool, metricsPath string) error {
	if tracer != nil {
		if dropped := tracer.Dropped(); dropped > 0 {
			fmt.Printf("c trace: ring overwrote %d oldest events (raise -trace-cap to keep them)\n", dropped)
		}
		if tracePath != "" {
			f, err := os.Create(tracePath)
			if err != nil {
				return err
			}
			err = tracer.WriteJSONL(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("writing trace %s: %w", tracePath, err)
			}
			fmt.Printf("c trace: %d events written to %s\n", tracer.Len(), tracePath)
		}
		if tracePretty {
			if err := tracer.WritePretty(os.Stderr); err != nil {
				return fmt.Errorf("writing trace to stderr: %w", err)
			}
		}
	}
	if registry != nil && metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(registry.Snapshot())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing metrics %s: %w", metricsPath, err)
		}
		fmt.Printf("c metrics: snapshot written to %s\n", metricsPath)
	}
	return nil
}

// printStats prints every non-zero counter of the run as one
// "c <path>=<value>" line: a single-member run's counter block, or a race's
// board block ("board.") and each member's ("member.<name>.").
func printStats(res *portfolio.Result, race bool) error {
	if !race {
		return obs.PrintCounters(os.Stdout, "", res.Members[0].Stats)
	}
	if res.Sharing {
		if err := obs.PrintCounters(os.Stdout, "board.", res.Board); err != nil {
			return err
		}
	}
	for _, m := range res.Members {
		if err := obs.PrintCounters(os.Stdout, "member."+m.Name+".", m.Result.Metrics("")); err != nil {
			return err
		}
	}
	return nil
}

// weightedValueLine renders a weighted-instance witness over the ORIGINAL
// variables only — the compiled selector variables are an encoding artifact
// and never appear on the v line.
func weightedValueLine(wi *wbo.Instance, values []bool) string {
	var sb strings.Builder
	sb.WriteString("v")
	for v := 0; v < wi.NumVars; v++ {
		sb.WriteByte(' ')
		if !values[v] {
			sb.WriteByte('-')
		}
		if v < len(wi.Names) && wi.Names[v] != "" {
			sb.WriteString(wi.Names[v])
		} else {
			fmt.Fprintf(&sb, "x%d", v+1)
		}
	}
	return sb.String()
}

// firstLine trims a multi-line error (StatusError carries a stack trace) to
// its first line for the comment stream.
func firstLine(err error) string {
	if err == nil {
		return "unknown"
	}
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	return msg
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bsolo:", err)
	os.Exit(1)
}
