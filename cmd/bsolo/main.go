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
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
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
		fallbackK    = flag.Int("fallback-after", 0, "consecutive bound failures before demoting to MIS (0 = default 8; <0 = never)")
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
		prob, info, err = preprocess.Apply(prob, preprocess.Options{
			Probing:           true,
			Strengthening:     true,
			Subsumption:       true,
			CardinalityDetect: true,
		})
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
			FallbackAfter:       *fallbackK,
			NoCuts:              !*cutsOn,
		},
	}

	// SIGINT/SIGTERM close the Cancel channel so the search unwinds
	// gracefully and prints the best incumbent with an "s UNKNOWN" status
	// line; a second signal exits immediately.
	cancel := make(chan struct{})
	opt.Cancel = cancel
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

	start := time.Now()
	var res core.Result
	var pres *portfolio.Result
	var wres *wbo.Result
	if *portfolioRun {
		var cg *wbo.Instance
		if *coreGuided {
			cg = wi
		}
		p := portfolio.SolveOpts(prob, portfolio.Roster(opt, *lsMembers, *lsFlips, cg), portfolio.Options{
			NoSharing:     !*shareOn,
			MaxConcurrent: *maxMembers,
			Stop:          cancel,
			Audit:         auditor,
			Trace:         tracer,
			Registry:      registry,
		})
		pres = &p
		res = p.Result
		fmt.Printf("c portfolio winner: %s (members=%d concurrency=%d sharing=%t)\n",
			p.Winner, len(p.Members), p.Concurrency, p.Sharing)
		for name, err := range p.Errors {
			fmt.Printf("c portfolio member %s crashed: %v\n", name, firstLine(err))
		}
	} else if *coreGuided {
		r := wbo.Solve(wi, wbo.Options{
			Deadline:     deadline,
			MaxConflicts: opt.MaxConflicts,
			Cancel:       cancel,
		})
		wres = &r
		if auditor != nil {
			// The auditor is scoped to the compiled problem: replay the
			// witness there (selectors set on exactly the violated softs) and
			// state the verdict in compiled-objective terms (minus Offset).
			if r.HasSolution {
				auditor.Incumbent(r.Best-wi.Offset, wi.ExtendedWitness(r.Values))
			}
			switch {
			case r.Status == core.StatusOptimal:
				auditor.Termination(audit.Claim{Optimal: true, Best: r.Best - wi.Offset})
			case r.HardUnsat:
				auditor.Termination(audit.Claim{Unsat: true})
			case r.HasSolution:
				auditor.Termination(audit.Claim{UpperBound: true, Best: r.Best - wi.Offset})
			}
		}
	} else {
		// Each improving incumbent is printed as an o line the moment it is
		// found (the PB competition convention), so a run stopped by a
		// signal has already reported its progress.
		var offset int64
		if wi != nil {
			offset = wi.Offset
		}
		opt.OnIncumbent = func(best int64) { fmt.Printf("o %d\n", best+offset) }
		opt.Trace = tracer.Named(strings.ToLower(*lbFlag))
		if registry != nil {
			live := &obs.Live{}
			registry.RegisterSolver(strings.ToLower(*lbFlag), live)
			opt.Live = live
		}
		res = core.SafeSolve(prob, opt)
	}
	elapsed := time.Since(start)
	fmt.Printf("c solved in %v\n", elapsed)

	auditOK := true
	if auditor != nil {
		rep := auditor.Snapshot()
		auditOK = rep.Ok()
		for _, line := range strings.Split(rep.String(), "\n") {
			fmt.Printf("c audit: %s\n", strings.TrimSpace(line))
		}
	}

	// Weighted (-wcnf/-wbo) runs report in instance space, with the
	// hard-UNSAT vs penalty-optimum distinction explicit: "s UNSATISFIABLE"
	// means the hard constraints alone are contradictory (exit 20), while an
	// optimum that merely pays soft penalties prints the penalty on the o
	// line under "s OPTIMUM FOUND" (exit 30). Witnesses are re-verified
	// against both the original soft penalties and the compiled hard rows
	// before printing; any disagreement is a soundness bug (exit 2).
	if wi != nil {
		var (
			status    core.Status
			hardUnsat bool
			hasSol    bool
			best      int64 // instance-space penalty, Offset included
			values    []bool
		)
		if wres != nil {
			status, hardUnsat, hasSol, best = wres.Status, wres.HardUnsat, wres.HasSolution, wres.Best
			values = wres.Values
			fmt.Printf("c core-guided: iterations=%d cores=%d cardRewrites=%d conflicts=%d\n",
				wres.Iterations, wres.Cores, wres.CardRewrites, wres.Conflicts)
			if status == core.StatusLimit {
				fmt.Printf("c proved penalty lower bound %d\n", wres.LowerBound)
			}
			if status == core.StatusError {
				fmt.Printf("c solver error: %v\n", firstLine(wres.Err))
			}
		} else {
			status, hasSol = res.Status, res.HasSolution
			// The compiled soft rows are always satisfiable through their
			// selectors, so compiled-UNSAT can only mean the hard skeleton is.
			hardUnsat = res.Status == core.StatusUnsat
			if res.Status == core.StatusSatisfiable {
				// No soft constraints survived compilation (objective-free
				// problem): a feasible model is the penalty-free optimum.
				status = core.StatusOptimal
			}
			if res.Status == core.StatusError {
				fmt.Printf("c solver error: %v\n", firstLine(res.Err))
			}
			if hasSol {
				values = res.Values[:wi.NumVars]
				best = res.Best + wi.Offset
			}
		}
		sound := true
		if hasSol {
			if pen, _ := wi.Penalty(values); pen+wi.Offset != best {
				fmt.Printf("c weighted: SOUNDNESS BUG — witness pays penalty %d, solver claimed %d\n",
					pen+wi.Offset, best)
				sound = false
			}
			if rep := verify.Check(prob, wi.ExtendedWitness(values)); !rep.Feasible {
				fmt.Printf("c weighted: SOUNDNESS BUG — witness violates compiled constraint %d\n",
					rep.ViolatedIdx)
				sound = false
			}
		}
		code := 0
		switch {
		case status == core.StatusOptimal && hasSol:
			fmt.Printf("o %d\n", best)
			fmt.Println("s OPTIMUM FOUND")
			code = 30
		case status == core.StatusUnsat && hardUnsat:
			fmt.Println("c the hard constraints alone are contradictory (not a penalty optimum)")
			fmt.Println("s UNSATISFIABLE")
			code = 20
		default:
			if hasSol {
				fmt.Printf("c best penalty upper bound %d\n", best)
				fmt.Printf("o %d\n", best)
			}
			fmt.Println("s UNKNOWN")
		}
		if hasSol && *showModel {
			fmt.Println(weightedValueLine(wi, values))
		}
		if *showStats && wres == nil {
			if err := printStats(&res, pres); err != nil {
				fatal(err)
			}
		}
		if err := writeObsOutputs(tracer, registry, *tracePath, *tracePretty, *metricsPath); err != nil {
			fatal(err)
		}
		if !auditOK || !sound {
			os.Exit(2)
		}
		os.Exit(code)
	}

	// When presolve fixes every costed variable, the reduced problem has no
	// objective left and a proved solve reports StatusSatisfiable — but in
	// the original space that is a proved optimum (Best carries the absorbed
	// CostOffset).
	if res.Status == core.StatusSatisfiable && fixing != nil && origProb.HasObjective() {
		res.Status = core.StatusOptimal
	}
	switch res.Status {
	case core.StatusOptimal:
		fmt.Printf("o %d\n", res.Best)
		fmt.Println("s OPTIMUM FOUND")
	case core.StatusSatisfiable:
		fmt.Println("s SATISFIABLE")
	case core.StatusUnsat:
		fmt.Println("s UNSATISFIABLE")
	case core.StatusError:
		fmt.Printf("c solver error: %v\n", firstLine(res.Err))
		if res.HasSolution {
			fmt.Printf("o %d\n", res.Best)
		}
		fmt.Println("s UNKNOWN")
	case core.StatusLimit:
		if res.HasSolution {
			fmt.Printf("c best upper bound %d\n", res.Best)
			fmt.Printf("o %d\n", res.Best)
		}
		fmt.Println("s UNKNOWN")
	}
	presolveOK := true
	if res.HasSolution {
		values := res.Values
		if fixing != nil {
			// Map the reduced-space model back to the original variables and
			// re-verify there: a Lift or CostOffset bug must fail loudly, not
			// emit a value line that checkers reject.
			values = fixing.Lift(values)
			rep := verify.Check(origProb, values)
			switch {
			case !rep.Feasible:
				fmt.Printf("c presolve: SOUNDNESS BUG — lifted model violates original constraint %d\n", rep.ViolatedIdx)
				presolveOK = false
			case rep.Objective != res.Best:
				fmt.Printf("c presolve: SOUNDNESS BUG — lifted model costs %d in original space, solver claimed %d\n",
					rep.Objective, res.Best)
				presolveOK = false
			}
		}
		if *showModel {
			fmt.Println(verify.FormatValueLine(origProb, values))
		}
	}
	if *showStats {
		if err := printStats(&res, pres); err != nil {
			fatal(err)
		}
		// A race's rate counts every member's propagations over its wall
		// time, not the winner's alone.
		props := res.Stats.Propagations
		if pres != nil {
			props = pres.TotalPropagations()
		}
		if secs := elapsed.Seconds(); secs > 0 {
			fmt.Printf("c props_per_sec=%.0f\n", float64(props)/secs)
		}
		if fixing != nil {
			fmt.Printf("c presolveFixed=%d\n", fixing.NumFixed())
		}
	}
	if err := writeObsOutputs(tracer, registry, *tracePath, *tracePretty, *metricsPath); err != nil {
		fatal(err)
	}
	if !auditOK || !presolveOK {
		os.Exit(2) // audit/lift violations are a soundness bug, not a solver answer
	}
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
// "c <path>=<value>" line: the single solve's counter block, or the board's
// block ("board.") and each member's ("member.<name>.").
func printStats(res *core.Result, pres *portfolio.Result) error {
	if pres == nil {
		return obs.PrintCounters(os.Stdout, "", res.Stats)
	}
	if pres.Sharing {
		if err := obs.PrintCounters(os.Stdout, "board.", pres.Board); err != nil {
			return err
		}
	}
	for _, m := range pres.Members {
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
