// Package milp implements a generic LP-based branch-and-bound solver for 0-1
// integer programs — the reproduction's stand-in for the commercial MILP
// solver (CPLEX 7.5) the paper compares against. It exhibits the same
// structural behaviour the paper reports: strong pruning from LP relaxation
// bounds on optimization instances, and weak, enumeration-like search on
// pure satisfaction instances whose LP relaxation carries no objective
// information (the acc-tight rows of Table 1).
//
// The algorithm is textbook [11]: best-bound node selection, most-fractional
// branching, an LP-rounding primal heuristic at the root, and integer bound
// tightening (the objective is integral, so a node with
// ⌈z_lp⌉ ≥ incumbent is pruned).
package milp

import (
	"container/heap"
	"math"
	"time"

	"repro/internal/lp"
	"repro/internal/pb"
)

// Options configures a solve.
type Options struct {
	// MaxNodes bounds the number of branch-and-bound nodes (0 = 1e6).
	MaxNodes int64
	// Deadline is the absolute wall-clock stop time (zero = none).
	Deadline time.Time
	// LPIter bounds simplex iterations per node LP (0 = solver default).
	LPIter int
	// StrongBranching evaluates the child LPs of the most fractional
	// candidates (up to StrongCandidates of them) and branches on the
	// variable with the best worst-child bound — fewer nodes at a higher
	// per-node cost, the classic MILP trade.
	StrongBranching bool
	// StrongCandidates caps how many fractional variables strong branching
	// probes per node (default 4).
	StrongCandidates int
}

// Status reports how the solve ended.
type Status int

const (
	// StatusOptimal: proved optimal (or proved infeasible with no solution).
	StatusOptimal Status = iota
	// StatusInfeasible: the instance has no 0-1 solution.
	StatusInfeasible
	// StatusLimit: node or time budget expired.
	StatusLimit
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	default:
		return "limit"
	}
}

// Result is the outcome of Solve.
type Result struct {
	Status      Status
	HasSolution bool
	// Best is the objective of the best solution (includes CostOffset).
	Best   int64
	Values []bool
	Nodes  int64
}

const intTol = 1e-6

// node is a subproblem: a chain of variable fixings from the root.
type node struct {
	parent *node
	fixVar int
	fixVal float64
	bound  float64 // LP bound of the parent (priority key)
	depth  int
}

type nodeQueue []*node

func (q nodeQueue) Len() int            { return len(q) }
func (q nodeQueue) Less(i, j int) bool  { return q[i].bound < q[j].bound }
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// Solve runs branch-and-bound on the 0-1 program p.
func Solve(p *pb.Problem, opt Options) Result {
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 1_000_000
	}
	base := buildLP(p, opt.LPIter)
	n := p.NumVars

	res := Result{Status: StatusLimit, Best: math.MaxInt64}
	incumbent := int64(math.MaxInt64 / 2)

	lo := make([]float64, n)
	hi := make([]float64, n)
	// One LP workspace serves every node and strong-branching probe: the
	// tableau and simplex buffers are reused instead of reallocated per LP.
	ws := &lp.Workspace{}
	q := &nodeQueue{}
	heap.Push(q, &node{bound: math.Inf(-1)})

	for q.Len() > 0 {
		if res.Nodes >= maxNodes {
			return finishLimit(res, incumbent, p)
		}
		if !opt.Deadline.IsZero() && time.Now().After(opt.Deadline) {
			return finishLimit(res, incumbent, p)
		}
		nd := heap.Pop(q).(*node)
		// Best-bound pruning against the incumbent before solving.
		if nd.bound > -math.Inf(1) && ceilInt(nd.bound) >= incumbent {
			continue
		}
		res.Nodes++

		materialize(nd, lo, hi, n)
		base.Lo, base.Hi = lo, hi
		sol, err := ws.Solve(base)
		if err != nil || sol.Status == lp.Infeasible {
			continue
		}
		if sol.Status != lp.Optimal {
			// Iteration limit: keep the node alive conservatively by
			// branching on its first free variable without a bound.
			if v := firstFree(lo, hi, n); v >= 0 {
				pushChildren(q, nd, v, math.Inf(-1))
			}
			continue
		}
		nodeBound := ceilInt(sol.Objective)
		if nodeBound >= incumbent {
			continue
		}
		// Primal rounding heuristic at the root: round the LP point and
		// keep it when feasible — an early incumbent makes best-bound
		// pruning effective from the start.
		if nd.depth == 0 {
			vals := make([]bool, n)
			for j := 0; j < n; j++ {
				vals[j] = sol.X[j] >= 0.5
			}
			if p.Feasible(vals) {
				if obj := p.ObjectiveValue(vals) - p.CostOffset; obj < incumbent {
					incumbent = obj
					res.HasSolution = true
					res.Best = obj + p.CostOffset
					res.Values = vals
				}
			}
		}
		// Integral?
		branchVar, dist := -1, -1.0
		var fracVars []int
		for j := 0; j < n; j++ {
			f := sol.X[j] - math.Floor(sol.X[j])
			frac := math.Min(f, 1-f)
			if frac > intTol {
				fracVars = append(fracVars, j)
				if frac > dist {
					dist = frac
					branchVar = j
				}
			}
		}
		if opt.StrongBranching && len(fracVars) > 1 {
			if v := strongBranch(ws, base, lo, hi, fracVars, sol.X, opt); v >= 0 {
				branchVar = v
			}
		}
		if branchVar < 0 {
			// Integral LP solution: round and validate.
			vals := make([]bool, n)
			for j := 0; j < n; j++ {
				vals[j] = sol.X[j] > 0.5
			}
			if p.Feasible(vals) {
				obj := p.ObjectiveValue(vals) - p.CostOffset
				if obj < incumbent {
					incumbent = obj
					res.HasSolution = true
					res.Best = obj + p.CostOffset
					res.Values = vals
				}
			}
			continue
		}
		pushChildren(q, nd, branchVar, sol.Objective)
	}

	if res.HasSolution {
		res.Status = StatusOptimal
	} else {
		res.Status = StatusInfeasible
	}
	return res
}

// strongBranch probes the most fractional candidates: for each, solve both
// child LPs and score by the worse child's objective (the bound improvement
// a branch guarantees). Returns the best candidate, or -1 to fall back to
// most-fractional.
func strongBranch(ws *lp.Workspace, base *lp.Problem, lo, hi []float64, fracVars []int, x []float64, opt Options) int {
	cands := opt.StrongCandidates
	if cands <= 0 {
		cands = 4
	}
	// Order candidates by fractionality, keep the top few.
	sortByFrac(fracVars, x)
	if len(fracVars) > cands {
		fracVars = fracVars[:cands]
	}
	best, bestScore := -1, math.Inf(-1)
	for _, j := range fracVars {
		score := math.Inf(1)
		for _, fix := range []float64{0, 1} {
			saveLo, saveHi := lo[j], hi[j]
			lo[j], hi[j] = fix, fix
			sol, err := ws.Solve(base)
			lo[j], hi[j] = saveLo, saveHi
			if err != nil {
				return -1
			}
			child := math.Inf(1) // infeasible child: the branch fully decides j
			if sol.Status == lp.Optimal {
				child = sol.Objective
			} else if sol.Status == lp.IterLimit {
				child = sol.Objective // anytime estimate
			}
			if child < score {
				score = child
			}
		}
		if score > bestScore {
			bestScore = score
			best = j
		}
	}
	return best
}

func sortByFrac(vars []int, x []float64) {
	frac := func(j int) float64 {
		f := x[j] - math.Floor(x[j])
		return math.Min(f, 1-f)
	}
	for i := 1; i < len(vars); i++ {
		for k := i; k > 0 && frac(vars[k]) > frac(vars[k-1]); k-- {
			vars[k], vars[k-1] = vars[k-1], vars[k]
		}
	}
}

func pushChildren(q *nodeQueue, parent *node, v int, bound float64) {
	heap.Push(q, &node{parent: parent, fixVar: v, fixVal: 0, bound: bound, depth: parent.depth + 1})
	heap.Push(q, &node{parent: parent, fixVar: v, fixVal: 1, bound: bound, depth: parent.depth + 1})
}

func firstFree(lo, hi []float64, n int) int {
	for j := 0; j < n; j++ {
		if hi[j]-lo[j] > 0.5 {
			return j
		}
	}
	return -1
}

func finishLimit(res Result, incumbent int64, p *pb.Problem) Result {
	res.Status = StatusLimit
	if res.HasSolution {
		res.Best = incumbent + p.CostOffset
	}
	return res
}

func ceilInt(v float64) int64 {
	return int64(math.Ceil(v - 1e-6))
}

// materialize walks the fixing chain into dense bounds.
func materialize(nd *node, lo, hi []float64, n int) {
	for j := 0; j < n; j++ {
		lo[j], hi[j] = 0, 1
	}
	for cur := nd; cur != nil && cur.parent != nil; cur = cur.parent {
		lo[cur.fixVar] = cur.fixVal
		hi[cur.fixVar] = cur.fixVal
	}
}

// buildLP converts the PB problem's constraints to an x-space LP.
func buildLP(p *pb.Problem, maxIter int) *lp.Problem {
	prob := &lp.Problem{
		NumVars: p.NumVars,
		Cost:    make([]float64, p.NumVars),
		MaxIter: maxIter,
	}
	for v, c := range p.Cost {
		prob.Cost[v] = float64(c)
	}
	for _, c := range p.Constraints {
		row := lp.Row{RHS: float64(c.Degree)}
		for _, t := range c.Terms {
			a := float64(t.Coef)
			if t.Lit.IsNeg() {
				row.Entries = append(row.Entries, lp.Entry{Var: int(t.Lit.Var()), Coef: -a})
				row.RHS -= a
			} else {
				row.Entries = append(row.Entries, lp.Entry{Var: int(t.Lit.Var()), Coef: a})
			}
		}
		prob.Rows = append(prob.Rows, row)
	}
	return prob
}
