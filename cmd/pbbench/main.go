// Command pbbench regenerates the paper's Table 1: it runs the seven solver
// columns (pbs, galena, the MILP stand-in for cplex, and bsolo with
// plain/MIS/LGR/LPR lower bounding) over the four benchmark families and
// prints the results in the paper's layout, with "ub" entries for
// budget-exhausted runs and the #Solved summary row.
//
// Usage:
//
//	pbbench -all -time 10s
//	pbbench -family grout -solvers lpr,plain -time 5s
//
// Beyond Table 1's seven columns, the solver list accepts "portfolio" (the
// cooperative four-member race: shared incumbents + clause exchange) and
// "portfolio-iso" (the same race with sharing disconnected); the CSV output
// carries their conflict/decision totals and sharing counters, so
//
//	pbbench -family synth -solvers portfolio,portfolio-iso -csv out.csv
//
// measures what cooperation buys on identical instances.
//
// The solver list also accepts "ls" (the stochastic local-search worker
// alone — UB-only: incumbents but never proofs) and "portfolio-ls" (the
// cooperative race plus one LS member), and the family list accepts "sat"
// (large always-feasible synthesis instances sized for first-incumbent
// latency). The ttfiMs CSV/snapshot column records wall-clock to the first
// incumbent any member reported, so
//
//	pbbench -family sat -solvers portfolio,portfolio-ls -csv out.csv
//
// measures how much earlier the mixed portfolio reaches a feasible solution
// (make bench-ls wraps exactly this comparison).
//
// The family list further accepts "wbo" (generated Weighted Boolean
// Optimization instances: hard-feasible skeletons plus weighted soft rows),
// and the solver list accepts "core-guided" (the WPM1 core-guided loop on
// the WBO payload) and "portfolio-wbo" (the cooperative race plus the
// core-guided member), so
//
//	pbbench -family wbo -solvers portfolio,portfolio-wbo -csv out.csv
//
// measures what core-guided search adds over pure branch-and-bound on
// penalty optimization (make bench-wbo wraps exactly this comparison).
//
// Benchmark trajectory: -snapshot writes the run as a versioned
// BENCH_<family>_<date>.json document (-snapshot auto picks the canonical
// name), and -compare old.json re-runs the same cells and flags regressions
// — lost solves, worsened incumbents, slowdowns beyond -compare-tol — with a
// non-zero exit code, so CI can gate on it.
//
// Exit codes: 0 clean, 1 on any setup failure (an unknown family or solver
// id among them) or output-write failure, 3 when -compare found
// regressions. A truncated artifact is never reported as a clean run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("pbbench", flag.ExitOnError)
	var (
		family    = fs.String("family", "", "family to run: grout|synth|mcnc|acc|sat|wbo (empty with -all = the four Table 1 families)")
		all       = fs.Bool("all", false, "run all four families")
		solvers   = fs.String("solvers", "", "comma-separated solver subset (default: all seven columns)")
		timeLimit = fs.Duration("time", 10*time.Second, "wall-clock limit per cell, presolve and every portfolio member included")
		conflicts = fs.Int64("conflicts", 0, "per-run conflict limit (0 = none)")
		milpNodes = fs.Int64("milp-nodes", 0, "MILP node limit (0 = default)")
		perFamily = fs.Int("n", 10, "instances per family")

		groutNets  = fs.Int("grout-nets", 0, "override grout net count")
		synthNodes = fs.Int("synth-nodes", 0, "override synth node count")
		mcncInputs = fs.Int("mcnc-inputs", 0, "override mcnc input count")
		accTeams   = fs.Int("acc-teams", 0, "override acc team count")
		satNodes   = fs.Int("sat-nodes", 0, "override sat-family node count")
		wboVars    = fs.Int("wbo-vars", 0, "override wbo-family variable count")
		csvOut     = fs.String("csv", "", "also write machine-readable results to this file")
		ablations  = fs.Bool("ablations", false, "run the A1-A8 ablations instead of Table 1")

		presolve     = fs.Bool("presolve", false, "fix variables by probing + persistency presolve before every run (fixedVars/propsPerSec land in the CSV and snapshot rows)")
		cutsOn       = fs.Bool("cuts", true, "knapsack-cover/clique cut separation in the lpr column")
		boundProfile = fs.Bool("bound-profile", false, "print per-solver bound-pipeline timing after the table")

		snapshotOut = fs.String("snapshot", "", "write the run as a versioned bench snapshot JSON (\"auto\" = BENCH_<family>_<date>.json)")
		compareOld  = fs.String("compare", "", "compare this run against an earlier bench snapshot and flag regressions (exit 3)")
		compareTol  = fs.Float64("compare-tol", 1.5, "with -compare: wall-clock slowdown factor tolerated before a cell regresses")
	)
	_ = fs.Parse(args)

	fail := func(err error) int {
		fmt.Fprintln(stderr, "pbbench:", err)
		return 1
	}

	if *ablations {
		sc := harness.Scale{GroutNets: 18, SynthNodes: 24, McncInputs: 7, AccTeams: 8, PerFamily: 3}
		fmt.Fprintf(stdout, "running ablations A1-A8 (limit %v per run)\n\n", *timeLimit)
		var rows []harness.AblationResult
		for _, id := range harness.Ablations() {
			insts, err := harness.AblationInstances(id, sc)
			if err != nil {
				return fail(err)
			}
			rows = append(rows, harness.RunAblation(id, insts, *timeLimit, *conflicts)...)
		}
		if _, err := io.WriteString(stdout, harness.FormatAblations(rows)); err != nil {
			return fail(err)
		}
		return 0
	}

	var fams []harness.Family
	switch {
	case *all || *family == "" || *family == "all":
		fams = harness.Families()
	default:
		for _, f := range strings.Split(*family, ",") {
			fams = append(fams, harness.Family(strings.TrimSpace(f)))
		}
	}

	cols := harness.Solvers()
	if *solvers != "" {
		var err error
		if cols, err = harness.ParseSolvers(*solvers); err != nil {
			return fail(err)
		}
	}

	sc := harness.DefaultScale()
	sc.PerFamily = *perFamily
	if *groutNets > 0 {
		sc.GroutNets = *groutNets
	}
	if *synthNodes > 0 {
		sc.SynthNodes = *synthNodes
	}
	if *mcncInputs > 0 {
		sc.McncInputs = *mcncInputs
	}
	if *accTeams > 0 {
		sc.AccTeams = *accTeams
	}
	if *satNodes > 0 {
		sc.SatNodes = *satNodes
	}
	if *wboVars > 0 {
		sc.WboVars = *wboVars
	}

	insts, err := harness.Instances(fams, sc)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "running %d instances x %d solvers (limit %v per run)\n",
		len(insts), len(cols), *timeLimit)

	lim := harness.Limits{Time: *timeLimit, MaxConflicts: *conflicts, MilpNodes: *milpNodes,
		Presolve: *presolve, Tuning: core.Tuning{NoCuts: !*cutsOn}}
	var results []harness.RunResult
	for _, inst := range insts {
		for _, id := range cols {
			r := harness.Run(inst, id, lim)
			results = append(results, r)
			status := "solved"
			if !r.Solved {
				status = "limit"
				if r.HasUB {
					status = fmt.Sprintf("ub %d", r.Best)
				}
			}
			extra := ""
			if r.Members > 0 {
				extra = fmt.Sprintf("  winner=%s conflicts=%d decisions=%d shImp=%d shPrunes=%d",
					r.Winner, r.Conflicts, r.Decisions, r.ShClausesImp, r.ShForeignPrunes)
			}
			if r.FirstIncumbent > 0 {
				extra += fmt.Sprintf("  ttfi=%v", r.FirstIncumbent.Round(time.Millisecond))
			}
			fmt.Fprintf(stderr, "  %-18s %-7s %-10s %v%s\n", inst.Name, id, status, r.Duration.Round(time.Millisecond), extra)
		}
	}
	if _, err := fmt.Fprintf(stdout, "\n%s", harness.FormatTable(results, cols)); err != nil {
		return fail(err)
	}
	if *boundProfile {
		if prof := harness.FormatBoundProfile(results); prof != "" {
			if _, err := fmt.Fprintf(stdout, "\n%s", prof); err != nil {
				return fail(err)
			}
		}
	}
	if *csvOut != "" {
		if err := os.WriteFile(*csvOut, []byte(harness.FormatCSV(results)), 0o644); err != nil {
			return fail(fmt.Errorf("writing csv: %w", err))
		}
	}

	var snap *obs.BenchSnapshot
	if *snapshotOut != "" || *compareOld != "" {
		snap = harness.BenchSnapshot(results, fams, *timeLimit, map[string]string{
			"n":       fmt.Sprint(sc.PerFamily),
			"solvers": joinSolvers(cols),
		})
	}
	if *snapshotOut != "" {
		path := *snapshotOut
		if path == "auto" {
			path = snap.DefaultName()
		}
		if err := snap.WriteFile(path); err != nil {
			return fail(fmt.Errorf("writing snapshot: %w", err))
		}
		fmt.Fprintf(stdout, "\nsnapshot written to %s (%d rows)\n", path, len(snap.Rows))
	}
	if *compareOld != "" {
		old, err := obs.LoadBenchSnapshot(*compareOld)
		if err != nil {
			return fail(fmt.Errorf("loading baseline: %w", err))
		}
		diff := obs.CompareBench(old, snap, *compareTol)
		if _, err := fmt.Fprintf(stdout, "\ncompare vs %s:\n%s\n", *compareOld, diff.String()); err != nil {
			return fail(err)
		}
		if diff.HasRegressions() {
			return 3
		}
	}
	return 0
}

func joinSolvers(cols []harness.SolverID) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = string(c)
	}
	return strings.Join(parts, ",")
}
