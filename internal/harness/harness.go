// Package harness assembles the paper's Table 1: it generates the four
// benchmark families at a reproducible scale, runs the seven solver columns
// (pbs, galena, the MILP stand-in, and bsolo with plain/MIS/LGR/LPR lower
// bounding), and formats the results in the paper's layout, including "ub"
// entries for budget-exhausted runs and the #Solved summary row.
package harness

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/milp"
	"repro/internal/obs"
	"repro/internal/pb"
	"repro/internal/portfolio"
	"repro/internal/preprocess"
	"repro/internal/soft"
	"repro/internal/wbo"
)

// Family identifies a Table 1 benchmark family.
type Family string

// The four families of Table 1.
const (
	FamilyGrout Family = "grout" // FPGA routing [2]
	FamilySynth Family = "synth" // mixed PTL/CMOS synthesis [18]
	FamilyMcnc  Family = "mcnc"  // MCNC two-level minimization [17]
	FamilyAcc   Family = "acc"   // scheduling satisfaction [16]
)

// FamilySat (beyond Table 1) is a satisfiable synthesis family sized so that
// finding *any* feasible assignment takes the B&B columns a while: buffered
// incompatibilities keep every instance feasible while the larger node count
// pushes the first incumbent deep into the search. It exists for the
// local-search columns (time-to-first-incumbent benchmarks, make bench-ls)
// and is not part of Families() — select it explicitly (pbbench -family sat).
const FamilySat Family = "sat"

// FamilyWbo (beyond Table 1) is a Weighted Boolean Optimization family:
// a feasible hard clause skeleton plus weighted soft constraints of mixed
// shapes (clauses, PB inequalities, equalities). It exists for the
// core-guided columns (make bench-wbo) and is not part of Families() —
// select it explicitly (pbbench -family wbo). Its instances carry the WBO
// payload alongside the soft-relaxed compilation, so both the core-guided
// and the branch-and-bound columns run on the same problem.
const FamilyWbo Family = "wbo"

// Families lists all families in Table 1 order.
func Families() []Family {
	return []Family{FamilyGrout, FamilySynth, FamilyMcnc, FamilyAcc}
}

// Instance is one benchmark row.
type Instance struct {
	Name   string
	Family Family
	Prob   *pb.Problem
	// WBO is the Weighted Boolean Optimization payload of a FamilyWbo row
	// (nil otherwise). Prob is its Builder() compilation, so the exact
	// columns and the core-guided columns report comparable incumbents
	// (the generator keeps Offset at 0).
	WBO *wbo.Instance
}

// Scale adjusts instance sizes: 1 is the default reproduction scale
// (seconds per solver column); smaller values shrink instances for tests.
type Scale struct {
	// GroutNets, SynthNodes, McncInputs, AccTeams, SatNodes override the
	// per-family size knobs when nonzero.
	GroutNets  int
	SynthNodes int
	McncInputs int
	AccTeams   int
	SatNodes   int
	WboVars    int
	// PerFamily is the number of instances per family (default 10, as in
	// Table 1).
	PerFamily int
}

// DefaultScale returns the reproduction-scale configuration.
func DefaultScale() Scale {
	return Scale{GroutNets: 22, SynthNodes: 36, McncInputs: 8, AccTeams: 12, SatNodes: 420, WboVars: 24, PerFamily: 10}
}

// Instances generates the benchmark suite for the given families.
func Instances(families []Family, sc Scale) ([]Instance, error) {
	if sc.PerFamily == 0 {
		sc.PerFamily = 10
	}
	d := DefaultScale()
	if sc.GroutNets == 0 {
		sc.GroutNets = d.GroutNets
	}
	if sc.SynthNodes == 0 {
		sc.SynthNodes = d.SynthNodes
	}
	if sc.McncInputs == 0 {
		sc.McncInputs = d.McncInputs
	}
	if sc.AccTeams == 0 {
		sc.AccTeams = d.AccTeams
	}
	if sc.SatNodes == 0 {
		sc.SatNodes = d.SatNodes
	}
	if sc.WboVars == 0 {
		sc.WboVars = d.WboVars
	}
	var out []Instance
	for _, fam := range families {
		for k := 0; k < sc.PerFamily; k++ {
			seed := int64(1000*k + 7)
			var p *pb.Problem
			var err error
			var name string
			var wi *wbo.Instance
			switch fam {
			case FamilyGrout:
				// Net count ramps across the family (like the paper's
				// grout-4-3-1..10 mix of easy and hard rows). Capacity 2
				// forces congestion detours: the per-net one-hot rows alone
				// (all MIS can use) under-estimate the cost, while the LP
				// relaxation sees the capacity interaction.
				nets := sc.GroutNets - 6 + (k*12)/sc.PerFamily
				if nets < 4 {
					nets = 4
				}
				name = fmt.Sprintf("grout-%d-%d", nets, k+1)
				p, err = gen.Grout(gen.GroutConfig{
					Width: 5, Height: 5,
					Nets:        nets,
					PathsPerNet: 6,
					Capacity:    2,
					Seed:        seed,
				})
			case FamilySynth:
				// High incompatibility drives the optimum above the sum of
				// per-node minima — the regime where lower bound quality
				// dominates (the paper's synthesis rows). Node count ramps
				// mildly across the family.
				nodes := sc.SynthNodes - 4 + k
				if nodes < 4 {
					nodes = 4
				}
				name = fmt.Sprintf("synth-%d-%d", nodes, k+1)
				p, err = gen.Synthesis(gen.SynthesisConfig{
					Nodes:    nodes,
					Impls:    4,
					Fanout:   2.0,
					Incompat: 0.5,
					Seed:     seed,
				})
			case FamilyMcnc:
				// Input count ramps: the first rows are mid-size, the later
				// rows larger; the last is deliberately out of reach for
				// every solver (the paper's alu4.b / e64.b rows).
				inputs := sc.McncInputs
				switch {
				case sc.McncInputs >= 8 && k >= sc.PerFamily-1:
					inputs = sc.McncInputs + 2
				case sc.McncInputs >= 8 && k >= sc.PerFamily/2:
					inputs = sc.McncInputs + 1
				}
				name = fmt.Sprintf("mcnc-%d-%d", inputs, k+1)
				p, err = gen.MinCover(gen.MinCoverConfig{
					Inputs:    inputs,
					OnDensity: 0.3,
					DcDensity: 0.1,
					Seed:      seed,
				})
			case FamilySat:
				// Always feasible (planted witness), but a dense random core
				// near the satisfiability threshold: a branch-and-bound dive
				// cannot reach a feasible leaf by propagation alone and
				// conflicts its way toward the first incumbent, while local
				// search walks to one quickly — the regime the LS columns
				// are measured in. SatNodes is the variable count.
				vars := sc.SatNodes - 10 + 5*k
				if vars < 12 {
					vars = 12
				}
				name = fmt.Sprintf("sat-%d-%d", vars, k+1)
				p, err = gen.Planted(gen.PlantedConfig{
					Vars: vars,
					Seed: seed,
				})
			case FamilyWbo:
				// Variable count ramps across the family; soft density and
				// the weight range stay fixed so the rows differ in search
				// depth, not in character. The compiled problem is the
				// Builder() relaxation of the SAME instance the core-guided
				// columns solve — both report comparable incumbents.
				vars := sc.WboVars - 4 + k
				if vars < 6 {
					vars = 6
				}
				name = fmt.Sprintf("wbo-%d-%d", vars, k+1)
				wi, err = gen.WBO(gen.WBOConfig{Vars: vars, Seed: seed})
				if err == nil {
					var b *soft.Builder
					if b, err = wi.Builder(); err == nil {
						p, err = b.Problem()
					}
				}
			case FamilyAcc:
				name = fmt.Sprintf("acc-tight-%d-%d", sc.AccTeams, k+1)
				p, err = gen.ACC(gen.ACCConfig{
					Teams:            sc.AccTeams,
					FixedMatches:     2 + k%4,
					ForbiddenMatches: 6 + 2*k,
					Seed:             seed,
				})
			default:
				return nil, fmt.Errorf("harness: unknown family %q", fam)
			}
			if err != nil {
				return nil, fmt.Errorf("harness: generating %s: %w", name, err)
			}
			out = append(out, Instance{Name: name, Family: fam, Prob: p, WBO: wi})
		}
	}
	return out, nil
}

// SolverID names a Table 1 solver column.
type SolverID string

// The seven Table 1 columns.
const (
	SolverPBS    SolverID = "pbs"
	SolverGalena SolverID = "galena"
	SolverMILP   SolverID = "milp" // the paper's cplex column
	SolverPlain  SolverID = "plain"
	SolverMIS    SolverID = "mis"
	SolverLGR    SolverID = "lgr"
	SolverLPR    SolverID = "lpr"
)

// The portfolio columns (beyond Table 1): the cooperative four-member race
// and its sharing-ablated twin. Not part of Solvers() — select explicitly
// (pbbench -solvers portfolio,portfolio-iso).
const (
	// SolverPortfolio races the four bsolo members cooperatively (shared
	// incumbents + clause exchange; see internal/share).
	SolverPortfolio SolverID = "portfolio"
	// SolverPortfolioIso is the same race with sharing disconnected — the
	// isolated baseline the sharing columns are compared against.
	SolverPortfolioIso SolverID = "portfolio-iso"
	// SolverLS runs the stochastic local-search worker alone (internal/ls),
	// as a one-member race. UB-only: the cell can report an incumbent (and
	// SAT on objective-free instances) but never proves optimality or
	// infeasibility.
	SolverLS SolverID = "ls"
	// SolverPortfolioLS is the cooperative race extended with one LS member:
	// the mixed portfolio the first-incumbent benchmarks (make bench-ls)
	// compare against SolverPortfolio.
	SolverPortfolioLS SolverID = "portfolio-ls"
	// SolverCoreGuided runs the core-guided WBO loop alone (internal/wbo),
	// as a one-member race. Valid only on FamilyWbo rows (the cell needs the
	// WBO payload).
	SolverCoreGuided SolverID = "core-guided"
	// SolverPortfolioWbo is the cooperative race extended with one
	// core-guided member: the mixed portfolio the WBO benchmarks
	// (make bench-wbo) compare against SolverPortfolio. FamilyWbo only.
	SolverPortfolioWbo SolverID = "portfolio-wbo"
)

// Solvers lists the columns in Table 1 order.
func Solvers() []SolverID {
	return []SolverID{SolverPBS, SolverGalena, SolverMILP, SolverPlain, SolverMIS, SolverLGR, SolverLPR}
}

// Columns lists every solver id Run accepts: the Table 1 columns, then the
// portfolio columns.
func Columns() []SolverID {
	return append(Solvers(), SolverPortfolio, SolverPortfolioIso, SolverLS, SolverPortfolioLS,
		SolverCoreGuided, SolverPortfolioWbo)
}

// ParseSolvers reads a comma-separated solver list (pbbench -solvers). An
// empty or unknown id is an error that names it, so a misspelt column fails
// before any instance is generated instead of running as an empty column.
func ParseSolvers(list string) ([]SolverID, error) {
	var ids []SolverID
	for _, s := range strings.Split(list, ",") {
		id := SolverID(strings.TrimSpace(s))
		if id == "" {
			return nil, fmt.Errorf("harness: empty solver id in %q", list)
		}
		if !slices.Contains(Columns(), id) {
			return nil, fmt.Errorf("harness: unknown solver %q", id)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Limits bounds each solver run.
type Limits struct {
	Time         time.Duration
	MaxConflicts int64
	MilpNodes    int64
	// Tuning is applied to every bsolo column and portfolio member
	// (ablation runs; see core.Tuning).
	Tuning core.Tuning
	// Presolve runs preprocess.FixVariables on each instance before the
	// solver (all columns): variables fixed at the root are eliminated and
	// the solver sees the reduced, renumbered problem. Incumbents stay
	// comparable — the reduced CostOffset absorbs fixed-true costs. The
	// presolve time counts toward the cell's wall clock.
	Presolve bool
}

// RunResult is one cell of the table.
type RunResult struct {
	Instance string
	Family   Family
	Solver   SolverID
	Solved   bool // proved optimal (or SAT for satisfaction instances)
	HasUB    bool
	Best     int64 // incumbent (upper bound when !Solved)
	Duration time.Duration
	// Err is non-empty when the solver crashed (recovered panic) or ended
	// in core.StatusError; the cell renders as "crash" and never counts as
	// solved. One crashing column must not abort a whole table run.
	Err string
	// Bounds is the bound-pipeline profile of the run (bsolo columns only:
	// reduction mode/cost, per-estimator call/time aggregates, LP warm-start
	// counters). Zero for the baselines and the MILP column.
	Bounds obs.BoundsStats
	// Conflicts / Decisions measure search effort: BCP + bound conflicts and
	// decisions (summed across members for the portfolio columns; zero for
	// the MILP column). The sharing benchmarks compare these between the
	// cooperative and isolated portfolio columns.
	Conflicts int64
	Decisions int64
	// FixedVars counts the variables presolve eliminated before the run
	// (0 unless Limits.Presolve).
	FixedVars int
	// Propagations counts engine propagation steps (bsolo columns; summed
	// across members for the portfolio columns). PropsPerSec derives the
	// node-throughput rate the data-oriented engine work is gated on.
	Propagations int64
	// Members is the member count of a portfolio run (0 for single solvers);
	// Winner names the member that produced the verdict.
	Members int
	Winner  string
	// Sharing counters of a cooperative portfolio run: clauses accepted into
	// the exchange, clauses imported into member engines, and nodes pruned
	// while a foreign incumbent was in force. All zero for single solvers
	// and for portfolio-iso.
	ShClausesPub    int64
	ShClausesImp    int64
	ShForeignPrunes int64
	// FirstIncumbent is the wall-clock from run start to the first incumbent
	// reported by any member (0 = no incumbent was ever reported). The LS
	// benchmarks (make bench-ls) compare this column between the mixed and
	// the B&B-only portfolios.
	FirstIncumbent time.Duration
	// Flips counts local-search flips (ls column; summed across members for
	// the mixed portfolio; 0 for the exact columns).
	Flips int64
}

// PropsPerSec returns the propagation rate of the run (0 when unmeasured).
func (r *RunResult) PropsPerSec() float64 {
	if r.Duration <= 0 || r.Propagations == 0 {
		return 0
	}
	return float64(r.Propagations) / r.Duration.Seconds()
}

// BoundCalls returns the total estimation calls of the run.
func (r *RunResult) BoundCalls() int64 { return r.Bounds.TotalCalls() }

// BoundTime returns the wall-clock the run spent in the bound pipeline
// (reduction + estimation).
func (r *RunResult) BoundTime() time.Duration { return r.Bounds.TotalTime() }

// Run executes one solver on one instance. The solver runs behind a panic
// barrier: a crash is reported in RunResult.Err instead of tearing down the
// matrix run.
func Run(inst Instance, id SolverID, lim Limits) RunResult {
	start := time.Now()
	// The cell's one deadline: every column and every race member stops at
	// it, presolve included.
	var deadline time.Time
	if lim.Time > 0 {
		deadline = start.Add(lim.Time)
	}
	rr := RunResult{Instance: inst.Name, Family: inst.Family, Solver: id}
	bl := baseline.Limits{Deadline: deadline, MaxConflicts: lim.MaxConflicts, Tuning: lim.Tuning}
	// Time-to-first-incumbent capture: any member (B&B or LS) reporting its
	// first incumbent stamps the wall-clock once. Concurrent members race on
	// the stamp, hence the CAS; presolve time counts (it is part of the cell).
	var firstInc atomic.Int64 // ns since start; 0 = none yet
	noteInc := func(int64) {
		ns := int64(time.Since(start))
		if ns < 1 {
			ns = 1
		}
		firstInc.CompareAndSwap(0, ns)
	}
	base := core.Options{Deadline: deadline, MaxConflicts: lim.MaxConflicts, Tuning: lim.Tuning, OnIncumbent: noteInc}
	func() {
		defer func() {
			if r := recover(); r != nil {
				rr.Solved, rr.HasUB = false, false
				rr.Err = fmt.Sprintf("panic: %v", r)
			}
		}()
		prob := inst.Prob
		if lim.Presolve {
			fx, err := preprocess.FixVariables(prob)
			if err != nil {
				rr.Err = "presolve: " + err.Error()
				return
			}
			prob = fx.Problem
			rr.FixedVars = fx.NumFixed()
		}
		switch id {
		case SolverPBS:
			fill(&rr, baseline.PBS(prob, bl))
		case SolverGalena:
			fill(&rr, baseline.Galena(prob, bl))
		case SolverMILP:
			nodes := lim.MilpNodes
			if nodes == 0 {
				nodes = 2_000_000
			}
			m := milp.Solve(prob, milp.Options{Deadline: deadline, MaxNodes: nodes})
			rr.Solved = m.Status == milp.StatusOptimal || m.Status == milp.StatusInfeasible
			rr.HasUB = m.HasSolution
			rr.Best = m.Best
		case SolverPlain:
			fill(&rr, baseline.Bsolo(prob, core.LBNone, bl))
		case SolverMIS:
			fill(&rr, baseline.Bsolo(prob, core.LBMIS, bl))
		case SolverLGR:
			fill(&rr, baseline.Bsolo(prob, core.LBLGR, bl))
		case SolverLPR:
			fill(&rr, baseline.Bsolo(prob, core.LBLPR, bl))
		case SolverPortfolio:
			fillPortfolio(&rr, portfolio.SolveOpts(prob, portfolio.Roster(base, 0, 0, nil), portfolio.Options{}))
		case SolverPortfolioIso:
			fillPortfolio(&rr, portfolio.SolveOpts(prob, portfolio.Roster(base, 0, 0, nil), portfolio.Options{NoSharing: true}))
		case SolverPortfolioLS:
			fillPortfolio(&rr, portfolio.SolveOpts(prob, portfolio.Roster(base, 1, lsFlipBudget(lim), nil), portfolio.Options{}))
		case SolverCoreGuided:
			if inst.WBO == nil {
				rr.Err = "core-guided requires a wbo-family instance"
				return
			}
			// Like portfolio-wbo, on the original compilation: the witness
			// mapping needs the WBO instance's extended variable space. The
			// roster's first member is the core-guided one.
			fillPortfolio(&rr, portfolio.SolveOpts(inst.Prob,
				portfolio.Roster(base, 0, 0, inst.WBO)[:1], portfolio.Options{NoSharing: true}))
		case SolverPortfolioWbo:
			if inst.WBO == nil {
				rr.Err = "portfolio-wbo requires a wbo-family instance"
				return
			}
			// The mixed race pairs the core-guided member with the exact
			// members on the ORIGINAL compilation: presolve would renumber
			// the compiled problem away from the WBO instance's extended
			// space and break the witness mapping.
			fillPortfolio(&rr, runPortfolioWbo(inst, base))
		case SolverLS:
			// The LS member of the portfolio-ls roster, alone.
			fillPortfolio(&rr, portfolio.SolveOpts(prob,
				portfolio.Roster(base, 1, lsFlipBudget(lim), nil)[:1], portfolio.Options{NoSharing: true}))
		}
	}()
	rr.Duration = time.Since(start)
	rr.FirstIncumbent = time.Duration(firstInc.Load())
	// Enforce the wall-clock budget strictly (the paper's 1h cutoff): a
	// solver that only finished after the deadline does not count as
	// having solved the instance within it.
	if lim.Time > 0 && rr.Duration > lim.Time+lim.Time/10 && rr.Solved {
		rr.Solved = false
	}
	return rr
}

func fill(rr *RunResult, res core.Result) {
	rr.Solved = res.Status == core.StatusOptimal ||
		res.Status == core.StatusSatisfiable ||
		res.Status == core.StatusUnsat
	rr.HasUB = res.HasSolution
	rr.Best = res.Best
	rr.Bounds = res.Stats.Bounds
	rr.Conflicts = res.Stats.Conflicts + res.Stats.BoundConflicts
	rr.Decisions = res.Stats.Decisions
	rr.Propagations = res.Stats.Propagations
	if res.Status == core.StatusError {
		rr.Solved, rr.HasUB = false, false
		if res.Err != nil {
			rr.Err = res.Err.Error()
		} else {
			rr.Err = "error"
		}
	}
}

// runPortfolioWbo runs the default four-member race plus one core-guided
// member on a FamilyWbo instance. The race operates on the instance's
// Builder() compilation (inst.Prob), which is exactly the space the
// core-guided member's ExtendedWitness maps into. Every member starts at
// once, so the core-guided member genuinely races the B&B members.
func runPortfolioWbo(inst Instance, base core.Options) portfolio.Result {
	return portfolio.SolveOpts(inst.Prob, portfolio.Roster(base, 0, 0, inst.WBO), portfolio.Options{})
}

// lsFlipBudget bounds a local-search member when the cell has no wall-clock
// limit: LS has no conflict budget of its own, so the B&B conflict limit is
// scaled into a flip limit (flips are far cheaper than conflicts). With a
// time limit the clock governs and flips stay unlimited.
func lsFlipBudget(lim Limits) int64 {
	if lim.Time > 0 || lim.MaxConflicts == 0 {
		return 0
	}
	return 256 * lim.MaxConflicts
}

// fillPortfolio maps a portfolio outcome onto the table cell: the verdict and
// incumbent come from the race result, the effort counters are summed across
// every member, and the sharing columns aggregate the member-side counters
// plus the board's accepted-clause total.
func fillPortfolio(rr *RunResult, res portfolio.Result) {
	fill(rr, res.Result)
	rr.Winner = res.Winner
	rr.Members = len(res.Members)
	rr.Conflicts = res.TotalConflicts()
	rr.Decisions = res.TotalDecisions()
	rr.Propagations = res.TotalPropagations()
	rr.ShClausesPub = res.Board.ClausesPublished
	for _, m := range res.Members {
		rr.ShClausesImp += m.Stats.ImportedClauses
		rr.ShForeignPrunes += m.Stats.Sharing.ForeignUBPrunes
		rr.Flips += m.Stats.Flips
	}
}

// RunMatrix runs every solver on every instance.
func RunMatrix(insts []Instance, solvers []SolverID, lim Limits) []RunResult {
	var out []RunResult
	for _, inst := range insts {
		for _, id := range solvers {
			out = append(out, Run(inst, id, lim))
		}
	}
	return out
}

// FormatTable renders results in the paper's Table 1 layout: one row per
// instance, one column per solver; solved cells show the time, unsolved
// cells show "ub <value>" (or "—" with no incumbent), and a #Solved summary
// row closes the table.
func FormatTable(results []RunResult, solvers []SolverID) string {
	byInstance := map[string]map[SolverID]RunResult{}
	var order []string
	for _, r := range results {
		m, ok := byInstance[r.Instance]
		if !ok {
			m = map[SolverID]RunResult{}
			byInstance[r.Instance] = m
			order = append(order, r.Instance)
		}
		m[r.Solver] = r
	}
	sort.Strings(order)

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s", "Benchmark")
	for _, s := range solvers {
		fmt.Fprintf(&sb, " %12s", s)
	}
	sb.WriteByte('\n')
	solved := map[SolverID]int{}
	for _, name := range order {
		fmt.Fprintf(&sb, "%-18s", name)
		for _, s := range solvers {
			r, ok := byInstance[name][s]
			switch {
			case !ok:
				fmt.Fprintf(&sb, " %12s", "-")
			case r.Solved:
				solved[s]++
				fmt.Fprintf(&sb, " %12s", fmtDur(r.Duration))
			case r.Err != "":
				fmt.Fprintf(&sb, " %12s", "crash")
			case r.HasUB:
				fmt.Fprintf(&sb, " %12s", fmt.Sprintf("ub %d", r.Best))
			default:
				fmt.Fprintf(&sb, " %12s", "time")
			}
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%-18s", "#Solved")
	for _, s := range solvers {
		fmt.Fprintf(&sb, " %12d", solved[s])
	}
	sb.WriteByte('\n')
	return sb.String()
}

// SolvedCounts aggregates the #Solved row.
func SolvedCounts(results []RunResult) map[SolverID]int {
	out := map[SolverID]int{}
	for _, r := range results {
		if r.Solved {
			out[r.Solver]++
		}
	}
	return out
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// FormatCSV renders results machine-readably: one line per (instance,
// solver) cell with status, incumbent, wall time in milliseconds, the
// bound-pipeline profile (estimation calls, milliseconds spent estimating,
// LP warm/cold solve counts — zero for the non-bsolo columns), the search
// effort (conflicts, decisions — summed across members for the portfolio
// columns), the cut-pool counters (cuts separated/live/evicted — zero unless
// the LPR column ran with cuts), the sharing counters (members, clauses
// published/imported, foreign-UB prunes — zero outside the cooperative
// portfolio column), and the incumbent-latency columns (ttfiMs: wall-clock
// milliseconds to the first incumbent any member reported, empty when none;
// flips: local-search flips, zero for the exact columns). Each line is read
// off the cell's BenchRow, the same row the bench snapshots carry.
func FormatCSV(results []RunResult) string {
	var sb strings.Builder
	sb.WriteString("instance,family,solver,solved,best,ms,boundCalls,boundMs,lpWarm,lpCold," +
		"cutsSep,cutsActive,cutsPruned," +
		"conflicts,decisions,fixedVars,propsPerSec,members,shPub,shImp,shPrunes,ttfiMs,flips\n")
	for i := range results {
		row := results[i].BenchRow()
		best, ttfi := "", ""
		if row.Best != nil {
			best = fmt.Sprint(*row.Best)
		}
		if row.TtfiMs > 0 {
			ttfi = fmt.Sprintf("%.2f", row.TtfiMs)
		}
		fmt.Fprintf(&sb, "%s,%s,%s,%t,%s,%.2f,%d,%.2f,%d,%d,%d,%d,%d,%d,%d,%d,%.0f,%d,%d,%d,%d,%s,%d\n",
			row.Instance, row.Family, row.Solver, row.Solved, best, row.WallMs,
			row.BoundCalls, row.BoundMs, row.LPWarm, row.LPCold,
			row.CutsSep, row.CutsActive, row.CutsPruned,
			row.Conflicts, row.Decisions, row.FixedVars, row.PropsPerSec,
			row.Members, row.ShPub, row.ShImp, row.ShPrunes, ttfi, row.Flips)
	}
	return sb.String()
}

// FormatBoundProfile renders the bound-pipeline timing columns aggregated
// per solver: estimator call volume, mean per-call cost, total share of the
// run, and the LP warm-start ratio where applicable. Rows for solvers that
// never estimated a bound (pbs, galena, milp, plain) are omitted.
func FormatBoundProfile(results []RunResult) string {
	type agg struct {
		calls, warm, cold, fallbacks, incomplete, failed int64
		time, wall                                       time.Duration
		reduces                                          int64
		reduceTime                                       time.Duration
	}
	bysolver := map[SolverID]*agg{}
	var order []SolverID
	for _, r := range results {
		if r.Bounds.TotalCalls() == 0 && r.Bounds.Reduces == 0 {
			continue
		}
		a, ok := bysolver[r.Solver]
		if !ok {
			a = &agg{}
			bysolver[r.Solver] = a
			order = append(order, r.Solver)
		}
		a.calls += r.Bounds.TotalCalls()
		a.warm += r.Bounds.WarmSolves
		a.cold += r.Bounds.ColdSolves
		a.fallbacks += r.Bounds.WarmFallbacks
		a.reduces += r.Bounds.Reduces
		a.reduceTime += time.Duration(r.Bounds.ReduceTime)
		for _, p := range r.Bounds.Per {
			a.time += time.Duration(p.Time)
			a.incomplete += p.Incomplete
			a.failed += p.Failed
		}
		a.wall += r.Duration
	}
	if len(order) == 0 {
		return ""
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %10s %12s %12s %8s %18s %10s\n",
		"solver", "boundCalls", "boundTime", "meanCall", "share", "lpWarm/cold(fb)", "reduceTime")
	for _, s := range order {
		a := bysolver[s]
		mean := time.Duration(0)
		if a.calls > 0 {
			mean = a.time / time.Duration(a.calls)
		}
		share := 0.0
		if a.wall > 0 {
			share = float64(a.time+a.reduceTime) / float64(a.wall) * 100
		}
		warmcold := "-"
		if a.warm+a.cold > 0 {
			warmcold = fmt.Sprintf("%d/%d(%d)", a.warm, a.cold, a.fallbacks)
		}
		fmt.Fprintf(&sb, "%-8s %10d %12v %12v %7.1f%% %18s %10v\n",
			s, a.calls, a.time.Round(time.Microsecond), mean.Round(time.Microsecond),
			share, warmcold, a.reduceTime.Round(time.Microsecond))
	}
	return sb.String()
}
