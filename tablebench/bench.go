package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/milp"
	"repro/internal/opb"
	"repro/internal/pb"
	"repro/internal/portfolio"
	"repro/internal/verify"
	"repro/internal/wbo"
	"repro/internal/wcnf"
)

// rowSafety cancels a row that runs this long. It never binds on a healthy
// run (the slowest row takes about two seconds); a row that reaches it
// counts as failed, not as capped.
const rowSafety = 20 * time.Second

// raceWorkers is the race's member concurrency, fixed so that the load does
// not follow the machine's core count. The race runs with as many Go
// processors; the single-solver workload runs with one, so that the CPU time
// of a row is the solver's own work plus its garbage collection, and not
// idle processors spinning for work.
const raceWorkers = 2

// milpNodes and refConflicts are the budgets of the reference solves per
// row: MILP nodes for plain rows, conflicts for weighted rows.
const (
	milpNodes    = 200_000
	refConflicts = 1_000_000
)

// workload is one fixed set of rows and the way each row is solved.
type workload struct {
	name   string
	inputs func(seed int64) ([]input, error)
	// budget caps each single-solver row by conflicts (BCP + bound); 0 for
	// the race, whose members run until one proves the row.
	budget int64
	// capped reports whether reaching budget is an expected outcome (the
	// row then counts as unsolved) rather than a failure.
	capped bool
	race   bool
}

// workloads are sized so that a run holds enough rows for its sums, medians
// and tails to repeat across seeds: row times within one family spread over
// two orders of magnitude, so a few hundred rows leave the aggregates at the
// mercy of which rows the seed drew.
var workloads = map[string]workload{
	// 24 copies of the 40-row Table 1 suite. The 300-conflict cap binds on
	// about two rows in five, which bounds each row's share of the sum: at 3
	// copies and a 1500-conflict cap, solve time moved by 19% of its median
	// over 5 seeds, because the mcnc-9 rows either ended fast or ran ten
	// times longer to the cap, as the seed drew them. At 12 copies, seeds
	// still differed by up to 10% in CPU time, mostly in the grout rows.
	"table1-lpr": {name: "table1-lpr", budget: 300, capped: true,
		inputs: func(seed int64) ([]input, error) {
			return table1Inputs(seed, harness.DefaultScale(), 24)
		}},
	// Weighted rows of 26–30 variables, each proved by the race in
	// milliseconds to a fraction of a second. At 400 rows of 34–38
	// variables, the 10 slowest rows held a quarter of the solve time, and
	// the sum moved by 22% of its median over 5 seeds; at 1000 rows of 28–32
	// variables it still moved by 9% over 10.
	"race-wbo": {name: "race-wbo", race: true,
		inputs: func(seed int64) ([]input, error) { return wboInputs(seed, 1500, 26) }},
}

// parsed is a row after its reader (and, for weighted rows, the soft
// compiler) ran: the problem the solver sees.
type parsed struct {
	prob           *pb.Problem
	inst           *wbo.Instance // weighted rows only
	parse, compile time.Duration
}

// parseRow reads one row's text through the public readers, as bsolo does.
func parseRow(in input, tr *tracer, parent, row int) (parsed, error) {
	var out parsed
	var err error
	if !in.weighted {
		sp := tr.begin("opb.parse", parent, row)
		t0 := time.Now()
		out.prob, err = opb.Parse(bytes.NewReader(in.text))
		out.parse = time.Since(t0)
		tr.end(sp, nil)
		return out, err
	}
	sp := tr.begin("wcnf.parse", parent, row)
	t0 := time.Now()
	out.inst, err = wcnf.ParseWBO(bytes.NewReader(in.text))
	out.parse = time.Since(t0)
	tr.end(sp, nil)
	if err != nil {
		return out, err
	}
	sp = tr.begin("soft.compile", parent, row)
	t0 = time.Now()
	b, err := out.inst.Builder()
	if err == nil {
		out.prob, err = b.Problem()
	}
	out.compile = time.Since(t0)
	tr.end(sp, nil)
	return out, err
}

// setup reads and compiles every row once and returns the reference CPU
// time it took. The probe runs before every row, outside the timed part.
func setup(ins []input) ([]parsed, time.Duration, error) {
	out := make([]parsed, len(ins))
	cpu := make([]time.Duration, len(ins))
	var sp speed
	for i, in := range ins {
		sp.sample()
		c0 := procCPU()
		p, err := parseRow(in, nil, 0, i)
		cpu[i] = procCPU() - c0
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", in.name, err)
		}
		out[i] = p
	}
	var total time.Duration
	for i, c := range cpu {
		total += sp.ref(i, c)
	}
	return out, total, nil
}

// reference is the cross-check of one row by an independent complete
// method, computed outside the timed region: proved reports that the method
// finished within its own budget.
type reference struct {
	proved   bool
	feasible bool
	best     int64
}

// references cross-checks plain rows with internal/milp. Weighted rows are
// checked by one deterministic branch-and-bound solve with MIS bounds and no
// portfolio or sharing instead: their big-M compilation leaves the LP
// relaxation too weak for the MILP to prove a row within its budget, and the
// core-guided solver alone takes minutes on rows the race proves in
// milliseconds.
//
// The rows are shared out among GOMAXPROCS workers; each reference is itself
// sequential and deterministic.
func references(ps []parsed) []reference {
	out := make([]reference, len(ps))
	rows := make(chan int, len(ps))
	for i := range ps {
		rows <- i
	}
	close(rows)
	var wg sync.WaitGroup
	for w := runtime.GOMAXPROCS(0); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rows {
				out[i] = referenceOf(ps[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// referenceOf solves one row with its reference method. Satisfaction rows
// need no reference: the verified witness is the proof.
func referenceOf(p parsed) reference {
	switch {
	case p.inst != nil:
		r := core.SafeSolve(p.prob, core.Options{LowerBound: core.LBMIS, MaxConflicts: refConflicts})
		switch r.Status {
		case core.StatusOptimal:
			return reference{proved: true, feasible: true, best: r.Best}
		case core.StatusUnsat:
			return reference{proved: true}
		}
	case p.prob.HasObjective():
		m := milp.Solve(p.prob, milp.Options{MaxNodes: milpNodes})
		switch m.Status {
		case milp.StatusOptimal:
			return reference{proved: true, feasible: true, best: m.Best}
		case milp.StatusInfeasible:
			return reference{proved: true}
		}
	}
	return reference{}
}

// bsoloOptions is the default bsolo configuration, exactly what
// baseline.Bsolo(p, core.LBLPR, baseline.Limits{MaxConflicts: budget})
// passes to core.Solve: LPR with cuts, warm LP, incremental reduce and
// cardinality inference. The benchmark adds only the incumbent callback and
// the safety cancel channel, neither of which changes the search.
func bsoloOptions(budget int64) core.Options {
	return core.Options{
		Strategy:             core.StrategyBranchBound,
		LowerBound:           core.LBLPR,
		MaxConflicts:         budget,
		CardinalityInference: true,
	}
}

// raceConfigs is the portfolio-wbo roster: one core-guided member plus the
// four default branch-and-bound members, without local search.
func raceConfigs(in *wbo.Instance, onIncumbent func(int64)) []portfolio.Config {
	configs := []portfolio.Config{{Name: "core-guided", CoreGuided: &portfolio.CoreGuided{Instance: in}}}
	for _, c := range portfolio.DefaultConfigs() {
		c.Options.OnIncumbent = onIncumbent
		configs = append(configs, c)
	}
	return configs
}

// rowResult is one solved row.
type rowResult struct {
	name           string
	bytes          int
	weighted       bool
	parse, compile time.Duration
	solve, check   time.Duration // wall time
	cpu            time.Duration // CPU time of the solve call
	bestAt         time.Duration // CPU time until the final incumbent was found
	ref, bestRef   time.Duration // cpu and bestAt as reference CPU time
	status         core.Status
	hasSol         bool
	best           int64
	stats          core.Stats        // single-solver rows
	race           *portfolio.Result // race rows
	failure        string            // non-empty: the row counts as failed
}

// proved reports whether the row ended in a proof.
func (r *rowResult) proved() bool {
	return r.failure == "" && (r.status == core.StatusOptimal ||
		r.status == core.StatusSatisfiable || r.status == core.StatusUnsat)
}

// incumbentClock records the process CPU time at which the final incumbent
// was first reported. Race members report concurrently, hence the lock.
type incumbentClock struct {
	mu    sync.Mutex
	start time.Duration // procCPU when the solve call began
	have  bool
	best  int64
	at    time.Duration
}

func (c *incumbentClock) note(v int64) {
	at := procCPU() - c.start
	c.mu.Lock()
	if !c.have || v < c.best {
		c.have, c.best, c.at = true, v, at
	}
	c.mu.Unlock()
}

// runRow parses, solves and checks one row. Only the solve call is timed as
// solve time, in CPU and in wall time; the reference comparison happens
// later, outside the pass.
func (w *workload) runRow(in input, tr *tracer, row int) (r rowResult) {
	r = rowResult{name: in.name, bytes: len(in.text), weighted: in.weighted}
	rs := tr.begin("row", 0, row)
	defer tr.end(rs, nil)
	defer func() {
		if p := recover(); p != nil {
			r.failure = fmt.Sprintf("panic: %v", p)
		}
	}()
	p, err := parseRow(in, tr, rs, row)
	r.parse, r.compile = p.parse, p.compile
	if err != nil {
		r.failure = "input: " + err.Error()
		return r
	}

	stop := make(chan struct{})
	timer := time.AfterFunc(rowSafety, func() { close(stop) })
	clock := &incumbentClock{}
	var res core.Result
	if w.race {
		sp := tr.begin("portfolio.solve", rs, row)
		t0 := time.Now()
		clock.start = procCPU()
		pr := portfolio.SolveOpts(p.prob, raceConfigs(p.inst, clock.note),
			portfolio.Options{MaxConcurrent: raceWorkers, Stop: stop})
		r.cpu, r.solve = procCPU()-clock.start, time.Since(t0)
		tr.end(sp, raceCounts(&pr))
		res, r.race = pr.Result, &pr
	} else {
		opt := bsoloOptions(w.budget)
		opt.OnIncumbent, opt.Cancel = clock.note, stop
		sp := tr.begin("core.solve", rs, row)
		t0 := time.Now()
		clock.start = procCPU()
		res = core.SafeSolve(p.prob, opt)
		r.cpu, r.solve = procCPU()-clock.start, time.Since(t0)
		tr.end(sp, statMetrics(&res.Stats))
		r.stats = res.Stats
	}
	safetyHit := !timer.Stop()
	r.status, r.hasSol, r.best = res.Status, res.HasSolution, res.Best
	r.bestAt = r.cpu
	if clock.have && clock.best == res.Best {
		r.bestAt = clock.at
	}

	sp := tr.begin("verify.check", rs, row)
	t0 := time.Now()
	r.failure = w.check(p, res, safetyHit)
	r.check = time.Since(t0)
	tr.end(sp, nil)
	return r
}

// check re-verifies the answer against the parsed input and returns the
// failure, if any.
func (w *workload) check(p parsed, res core.Result, safetyHit bool) string {
	switch {
	case res.Status == core.StatusError:
		return fmt.Sprintf("solver error: %v", res.Err)
	case safetyHit:
		return "safety limit reached"
	}
	if res.HasSolution {
		if len(res.Values) != p.prob.NumVars {
			return fmt.Sprintf("witness has %d values for %d variables", len(res.Values), p.prob.NumVars)
		}
		rep := verify.Check(p.prob, res.Values)
		if !rep.Feasible {
			return fmt.Sprintf("witness violates constraint %d", rep.ViolatedIdx)
		}
		if p.prob.HasObjective() && rep.Objective != res.Best {
			return fmt.Sprintf("witness costs %d, solver claimed %d", rep.Objective, res.Best)
		}
		if p.inst != nil {
			if pen, _ := p.inst.Penalty(res.Values[:p.inst.NumVars]); pen != res.Best {
				return fmt.Sprintf("witness pays penalty %d, solver claimed %d", pen, res.Best)
			}
		}
	}
	switch res.Status {
	case core.StatusOptimal, core.StatusUnsat:
		return ""
	case core.StatusSatisfiable:
		if p.prob.HasObjective() {
			return "satisfiable verdict on an optimization row"
		}
		return ""
	}
	// StatusLimit: acceptable only as the conflict budget of a capped row.
	if w.capped && res.Stats.Conflicts+res.Stats.BoundConflicts >= w.budget {
		return ""
	}
	return "stopped before a proof"
}

// crossCheck compares a pass's verdicts with the references and marks any
// disagreement as a failure.
func crossCheck(rs []rowResult, refs []reference) {
	for i := range rs {
		r, ref := &rs[i], refs[i]
		if r.failure != "" || !ref.proved {
			continue
		}
		switch {
		case !ref.feasible && r.hasSol:
			r.failure = "the reference proved the row infeasible, but a witness was verified"
		case ref.feasible && r.status == core.StatusUnsat:
			r.failure = fmt.Sprintf("unsat verdict, but the reference found optimum %d", ref.best)
		case ref.feasible && r.status == core.StatusOptimal && r.best != ref.best:
			r.failure = fmt.Sprintf("optimum %d disagrees with the reference optimum %d", r.best, ref.best)
		case ref.feasible && r.hasSol && r.best < ref.best:
			r.failure = fmt.Sprintf("incumbent %d below the reference optimum %d", r.best, ref.best)
		}
	}
}
