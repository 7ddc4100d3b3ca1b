// Package wbo implements Weighted Boolean Optimization — partial weighted
// MaxSAT over pseudo-Boolean constraints — with core-guided search, the
// Fu–Malik/WPM1 algorithm of Manquinho, Marques-Silva and Planes
// ("Algorithms for Weighted Boolean Optimization"): instead of branch-and-
// bound over the soft-relaxed compilation, iteratively ask the engine for a
// satisfying assignment in which EVERY soft constraint holds (selector
// variables assumed off, core.Options.Assumptions), and use each refusal's
// unsat core to relax exactly the constraints that provably cannot all hold:
//
//  1. Solve hard ∧ soft-rows under assumptions {¬sel_i}.
//  2. SAT → the lower bound accumulated so far is the optimum; the witness
//     achieves it (see the soundness note below).
//  3. UNSAT with an empty core → the HARD constraints are infeasible.
//  4. UNSAT with core K ⊆ softs: let wmin = min weight in K. Add wmin to the
//     lower bound. For every soft s ∈ K: keep a residual copy at weight
//     w_s − wmin (if positive), and add a CLONE at weight wmin extended with
//     a fresh blocking variable b_s (soft.SoftWithRelaxers — the blocker
//     buys the clone off completely, both rows of an equality). Add the
//     hard at-most-one constraint Σ_{s∈K} b_s ≤ 1 and iterate.
//
// Soundness sketch (DESIGN.md §16): the core proves every hard-feasible
// assignment violates ≥ 1 member of K, i.e. pays ≥ wmin, so the optimum of
// the transformed instance is exactly wmin less — the AMO row lets one
// violated member be "paid for" by its blocker while every additional
// violated member still pays its residual + clone in full. By induction the
// accumulated lower bound is always ≤ the optimum, and at the terminal SAT
// the witness's penalty over the ORIGINAL soft constraints equals it:
// a soft can only be violated in the witness when its weight was fully
// consumed by cores, each violated soft needs one blocker per consuming
// core, and each core's AMO funds at most one violated soft — so the
// witness penalty is ≤ Σ wmin = lb ≤ optimum ≤ witness penalty. The solver
// still verifies penalty == lb defensively and degrades the claim to an
// upper bound (StatusLimit) on any mismatch rather than asserting a wrong
// optimum.
package wbo

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cuts"
	"repro/internal/pb"
	"repro/internal/soft"
)

// HardCons is a mandatory constraint Σ Terms Cmp Rhs.
type HardCons struct {
	Terms []pb.Term
	Cmp   pb.Cmp
	Rhs   int64
}

// SoftCons is a violable constraint with a positive violation weight.
type SoftCons struct {
	Weight int64
	Terms  []pb.Term
	Cmp    pb.Cmp
	Rhs    int64
}

// Instance is a WBO problem: hard constraints plus weighted soft constraints
// over NumVars original variables. The objective is the total weight of
// violated soft constraints plus Offset.
type Instance struct {
	NumVars int
	// Names optionally maps variables to external names (value lines).
	Names []string
	Hard  []HardCons
	Soft  []SoftCons
	// Offset is a constant added to every reported cost (e.g. from soft
	// constraints that can never be satisfied, folded away by a reader).
	Offset int64
}

// eval reports whether the soft constraint holds under values.
func (sc *SoftCons) eval(values []bool) bool {
	var lhs int64
	for _, t := range sc.Terms {
		if t.Lit.Eval(values[t.Lit.Var()]) {
			lhs += t.Coef
		}
	}
	switch sc.Cmp {
	case pb.GE:
		return lhs >= sc.Rhs
	case pb.LE:
		return lhs <= sc.Rhs
	default:
		return lhs == sc.Rhs
	}
}

// Validate checks weights, variable ranges and objective headroom.
func (in *Instance) Validate() error {
	if in.NumVars < 0 {
		return fmt.Errorf("wbo: negative variable count %d", in.NumVars)
	}
	check := func(terms []pb.Term) error {
		for _, t := range terms {
			if v := int(t.Lit.Var()); v < 0 || v >= in.NumVars {
				return fmt.Errorf("wbo: literal %v out of range [0,%d)", t.Lit, in.NumVars)
			}
		}
		return nil
	}
	for i := range in.Hard {
		if err := check(in.Hard[i].Terms); err != nil {
			return err
		}
	}
	total := in.Offset
	if total < 0 {
		var err error
		if total, err = pb.CheckedNeg(total); err != nil {
			return fmt.Errorf("wbo: offset: %w", err)
		}
	}
	for i := range in.Soft {
		sc := &in.Soft[i]
		if sc.Weight <= 0 {
			return fmt.Errorf("wbo: soft constraint %d: weight must be positive, got %d", i, sc.Weight)
		}
		if err := check(sc.Terms); err != nil {
			return err
		}
		var err error
		if total, err = pb.CheckedAdd(total, sc.Weight); err != nil {
			return fmt.Errorf("wbo: total soft weight: %w", err)
		}
	}
	if total > pb.MaxObjective {
		return fmt.Errorf("wbo: total soft weight %d exceeds solver headroom %d: %w",
			total, pb.MaxObjective, pb.ErrOverflow)
	}
	return nil
}

// Penalty evaluates the witness against the original soft constraints:
// the total violated weight (excluding Offset) and the violated indices.
func (in *Instance) Penalty(values []bool) (int64, []int) {
	var p int64
	var violated []int
	for i := range in.Soft {
		if !in.Soft[i].eval(values) {
			p += in.Soft[i].Weight
			violated = append(violated, i)
		}
	}
	return p, violated
}

// Builder compiles the instance through soft.Builder for the branch-and-
// bound path: every soft constraint becomes its big-M relaxation with the
// violation weight on the selector variable (selector of soft i =
// b.RelaxVar(i) = variable NumVars+i). The compiled problem's optimum equals
// the WBO optimum minus Offset.
func (in *Instance) Builder() (*soft.Builder, error) {
	b := soft.NewBuilder(in.NumVars)
	for i := range in.Hard {
		b.Hard(in.Hard[i].Terms, in.Hard[i].Cmp, in.Hard[i].Rhs)
	}
	for i := range in.Soft {
		b.Soft(in.Soft[i].Weight, in.Soft[i].Terms, in.Soft[i].Cmp, in.Soft[i].Rhs)
	}
	if _, err := b.Problem(); err != nil {
		return nil, err
	}
	return b, nil
}

// ExtendedWitness maps an original-variable witness into the compiled
// (Builder) space: selectors are set exactly on the violated softs, which
// keeps the compiled rows feasible and the compiled cost equal to the
// penalty. Used to replay core-guided incumbents against an auditor or a
// share board scoped to the compiled problem.
func (in *Instance) ExtendedWitness(values []bool) []bool {
	out := make([]bool, in.NumVars+len(in.Soft))
	copy(out, values[:in.NumVars])
	for i := range in.Soft {
		out[in.NumVars+i] = !in.Soft[i].eval(values)
	}
	return out
}

// Options configure a core-guided solve.
type Options struct {
	// Deadline is the absolute wall-clock stop time for the whole loop,
	// every sub-solve included (zero = none).
	Deadline time.Time
	// Cancel, when closed, stops the solve at the next iteration boundary
	// (and mid-iteration through the engine's interrupt hook).
	Cancel <-chan struct{}
	// MaxConflicts bounds the total BCP conflicts across iterations (0 =
	// none); each sub-solve receives the remaining budget.
	MaxConflicts int64
}

// Result is the outcome of a core-guided solve.
type Result struct {
	// Status: StatusOptimal (penalty optimum proved), StatusUnsat (hard
	// skeleton infeasible — see HardUnsat), StatusLimit (budget exhausted;
	// LowerBound still valid, Values/Best carry a witness only if the
	// terminal penalty check failed), or StatusError.
	Status core.Status
	// HardUnsat distinguishes "the hard constraints are infeasible" from
	// "the optimum pays penalties": it is set exactly when Status is
	// StatusUnsat, and a fully-violated-softs instance instead reports
	// StatusOptimal with Best = total weight + Offset.
	HardUnsat   bool
	HasSolution bool
	// Best is the witness penalty + Offset (with HasSolution).
	Best int64
	// Values is the witness over the ORIGINAL variables.
	Values []bool
	// Violated lists violated original soft-constraint indices.
	Violated []int
	// LowerBound is the proved optimum lower bound + Offset; valid on every
	// status except StatusError (on StatusOptimal it equals Best).
	LowerBound int64
	// Iterations counts engine sub-solves; Cores counts extracted unsat
	// cores (Iterations = Cores + 1 on a clean optimal run).
	Iterations int
	Cores      int
	// CardRewrites counts compiled rows normalized to cardinality form.
	CardRewrites int64
	// Conflicts totals BCP conflicts across sub-solves.
	Conflicts int64
	Err       error
}

// workSoft is a soft constraint in the working (relaxed) instance: the
// original terms plus the blocking variables accumulated from the cores it
// participated in. Blockers live in the extended variable space [NumVars, nv).
type workSoft struct {
	weight   int64
	terms    []pb.Term
	cmp      pb.Cmp
	rhs      int64
	blockers []pb.Var
}

// Solve runs the core-guided loop. The instance is not modified.
func Solve(in *Instance, opt Options) Result {
	if err := in.Validate(); err != nil {
		return Result{Status: core.StatusError, Err: err}
	}
	nv := in.NumVars
	hards := append([]HardCons(nil), in.Hard...)
	work := make([]*workSoft, 0, len(in.Soft))
	for i := range in.Soft {
		sc := &in.Soft[i]
		work = append(work, &workSoft{weight: sc.Weight, terms: sc.Terms, cmp: sc.Cmp, rhs: sc.Rhs})
	}

	res := Result{LowerBound: in.Offset}
	lb := int64(0) // accumulated core weight, excluding Offset

	for {
		if !opt.Deadline.IsZero() && !time.Now().Before(opt.Deadline) {
			res.Status = core.StatusLimit
			return res
		}
		if cancelled(opt.Cancel) {
			res.Status = core.StatusLimit
			return res
		}

		// Compile the working instance: hards (original + accumulated AMO
		// rows) and the working softs with their blockers. Selector costs
		// are zeroed — the sub-query is pure feasibility; the weights live
		// in the core arithmetic, not the compiled objective.
		b := soft.NewBuilder(nv)
		for i := range hards {
			b.Hard(hards[i].Terms, hards[i].Cmp, hards[i].Rhs)
		}
		sel := make(map[pb.Var]int, len(work)) // selector var -> work index
		assumptions := make([]pb.Lit, 0, len(work))
		for i, ws := range work {
			idx := b.SoftWithRelaxers(ws.weight, ws.terms, ws.cmp, ws.rhs, ws.blockers...)
			if idx < 0 {
				res.Status, res.Err = core.StatusError, b.Err()
				return res
			}
			v := b.RelaxVar(idx)
			sel[v] = i
			assumptions = append(assumptions, pb.NegLit(v))
		}
		p, err := b.Problem()
		if err != nil {
			res.Status, res.Err = core.StatusError, err
			return res
		}
		for i := range p.Cost {
			p.Cost[i] = 0
		}
		res.CardRewrites += normalizeCardinality(p)

		sub := core.Options{Assumptions: assumptions, Cancel: opt.Cancel, Deadline: opt.Deadline}
		if opt.MaxConflicts > 0 {
			rem := opt.MaxConflicts - res.Conflicts
			if rem <= 0 {
				res.Status = core.StatusLimit
				return res
			}
			sub.MaxConflicts = rem
		}
		r := core.Solve(p, sub)
		res.Iterations++
		res.Conflicts += r.Stats.Conflicts

		switch r.Status {
		case core.StatusSatisfiable:
			vals := append([]bool(nil), r.Values[:in.NumVars]...)
			penalty, violated := in.Penalty(vals)
			res.HasSolution = true
			res.Values = vals
			res.Violated = violated
			res.Best = penalty + in.Offset
			res.LowerBound = lb + in.Offset
			if penalty != lb {
				// The WPM1 invariant (witness penalty == accumulated core
				// weight) failed — a bug, not a property of the instance.
				// Degrade to an upper bound instead of claiming a wrong
				// optimum; LowerBound stays sound.
				res.Status = core.StatusLimit
				res.Err = fmt.Errorf("wbo: witness penalty %d != proved lower bound %d (degrading to upper bound)",
					penalty, lb)
				return res
			}
			res.Status = core.StatusOptimal
			return res

		case core.StatusUnsat:
			if len(r.FailedAssumptions) == 0 {
				res.Status = core.StatusUnsat
				res.HardUnsat = true
				res.LowerBound = lb + in.Offset
				return res
			}
			coreIdx := make([]int, 0, len(r.FailedAssumptions))
			seen := make(map[int]bool, len(r.FailedAssumptions))
			for _, l := range r.FailedAssumptions {
				i, ok := sel[l.Var()]
				if !ok || seen[i] {
					continue
				}
				seen[i] = true
				coreIdx = append(coreIdx, i)
			}
			if len(coreIdx) == 0 {
				// Cannot happen (assumptions are exactly the selectors);
				// defensive: refuse to loop forever.
				res.Status = core.StatusError
				res.Err = fmt.Errorf("wbo: unsat core %v contains no selector", r.FailedAssumptions)
				return res
			}
			wmin := work[coreIdx[0]].weight
			for _, i := range coreIdx[1:] {
				if work[i].weight < wmin {
					wmin = work[i].weight
				}
			}
			if lb, err = pb.CheckedAdd(lb, wmin); err != nil {
				res.Status, res.Err = core.StatusError, fmt.Errorf("wbo: lower bound: %w", err)
				return res
			}
			res.Cores++

			if len(coreIdx) == 1 {
				// Singleton core: the constraint can never hold given the
				// hards — its remaining weight is paid unconditionally and
				// it leaves the working set (a clone would just carry a
				// blocker forced on forever).
				work = removeWork(work, coreIdx[0])
			} else {
				amo := make([]pb.Term, 0, len(coreIdx))
				var clones []*workSoft
				drop := make(map[int]bool, len(coreIdx))
				for _, i := range coreIdx {
					ws := work[i]
					blocker := pb.Var(nv)
					nv++
					amo = append(amo, pb.Term{Coef: 1, Lit: pb.PosLit(blocker)})
					clone := &workSoft{
						weight:   wmin,
						terms:    ws.terms,
						cmp:      ws.cmp,
						rhs:      ws.rhs,
						blockers: append(append([]pb.Var(nil), ws.blockers...), blocker),
					}
					clones = append(clones, clone)
					if ws.weight > wmin {
						ws.weight -= wmin // residual keeps its blockers as-is
					} else {
						drop[i] = true
					}
				}
				kept := work[:0]
				for i, ws := range work {
					if !drop[i] {
						kept = append(kept, ws)
					}
				}
				work = append(kept, clones...)
				hards = append(hards, HardCons{Terms: amo, Cmp: pb.LE, Rhs: 1})
			}

		case core.StatusLimit:
			res.Status = core.StatusLimit
			res.LowerBound = lb + in.Offset
			return res

		default: // StatusError (or unexpected StatusOptimal on a cost-free problem)
			res.Status = core.StatusError
			res.Err = r.Err
			if res.Err == nil {
				res.Err = fmt.Errorf("wbo: unexpected sub-solve status %v", r.Status)
			}
			return res
		}
	}
}

// removeWork deletes index i preserving order (indices in sel maps are
// rebuilt every iteration, so renumbering is safe here).
func removeWork(work []*workSoft, i int) []*workSoft {
	return append(work[:i], work[i+1:]...)
}

// normalizeCardinality rewrites compiled rows that are semantic cardinality
// constraints (cuts.DetectCardinality) into unit-coefficient form: big-M
// clause relaxations like x1+…+xk + (k+1)·sel + (k+1)·b ≥ 1 propagate
// identically but count and watch far better as x1+…+xk + sel + b ≥ 1.
// Returns the number of rewritten rows.
func normalizeCardinality(p *pb.Problem) int64 {
	var n int64
	for _, c := range p.Constraints {
		uniform := true
		for _, t := range c.Terms {
			if t.Coef != c.Terms[0].Coef {
				uniform = false
				break
			}
		}
		if uniform {
			continue // already cardinality-shaped
		}
		if need, ok := cuts.DetectCardinality(c.Terms, c.Degree); ok {
			c.Terms = cuts.UnitTerms(c.Terms)
			c.Degree = int64(need)
			n++
		}
	}
	return n
}

func cancelled(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
