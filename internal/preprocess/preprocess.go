// Package preprocess implements the preprocessing techniques the paper's
// experimental section mentions (§6): probing for necessary assignments and
// constraint strengthening in the style of Savelsbergh [14] and Dixon &
// Ginsberg [6], plus the covering-style simplification (clause subsumption)
// used on the synthesis benchmark set [7,15].
//
// All transformations are solution-preserving:
//
//   - Failed-literal probing: assigning l and propagating to a conflict
//     proves ¬l; the literal is fixed with a unit constraint.
//   - Implication strengthening: if propagating l forces q, the binary
//     clause ¬l ∨ q is entailed; adding it strengthens unit propagation
//     (the engine's counter propagation does not otherwise see the
//     implication until l is assigned).
//   - Subsumption: a clause whose literal set is a subset of another
//     clause's implies it; the superset clause is removed. General PB rows
//     are left untouched.
package preprocess

import (
	"fmt"
	"sort"

	"repro/internal/cuts"
	"repro/internal/engine"
	"repro/internal/pb"
)

// Options tunes preprocessing. Probing, strengthening and subsumption always
// run; the zero value probes every variable and detects no cardinalities.
type Options struct {
	// MaxProbeVars caps how many variables are probed (0 = all). Variables
	// are probed in order of descending occurrence count.
	MaxProbeVars int
	// CardinalityDetect rewrites input rows that are semantically
	// cardinality constraints (identical solution set) to unit coefficients
	// — e.g. 3x+3y+2z ≥ 5 becomes x+y+z ≥ 2. Solution-set-preserving; the
	// unit form is cheaper to propagate and is recognized exactly by the LPR
	// clique-cut separator.
	CardinalityDetect bool
}

// Info reports what preprocessing did.
type Info struct {
	FixedLiterals   int
	Implications    int
	SubsumedRemoved int
	// CardinalityNormalized counts rows rewritten to unit coefficients by
	// CardinalityDetect.
	CardinalityNormalized int
	ProvedUnsat           bool
}

// Apply returns a preprocessed copy of p (same variable numbering; solutions
// map 1:1) together with statistics. When the instance is proved
// unsatisfiable during probing, Info.ProvedUnsat is set and the returned
// problem contains an explicit contradiction so downstream solvers agree.
func Apply(p *pb.Problem, opt Options) (*pb.Problem, Info, error) {
	out := p.Clone()
	var info Info

	if opt.CardinalityDetect {
		// Before subsumption: normalized degree-1 rows become clauses and
		// join the subsumption pass.
		info.CardinalityNormalized = normalizeCardinalities(out)
	}

	info.SubsumedRemoved = subsume(out)
	if err := probe(out, opt.MaxProbeVars, &info); err != nil {
		return nil, info, err
	}
	return out, info, nil
}

// normalizeCardinalities rewrites semantically-cardinality rows in place to
// unit coefficients (cuts.DetectCardinality certifies the solution set is
// unchanged). Returns the number of rows rewritten. Already-unit rows are
// left alone.
func normalizeCardinalities(p *pb.Problem) int {
	n := 0
	for _, c := range p.Constraints {
		unit := true
		for _, t := range c.Terms {
			if t.Coef != 1 {
				unit = false
				break
			}
		}
		if unit {
			continue
		}
		need, ok := cuts.DetectCardinality(c.Terms, c.Degree)
		if !ok {
			continue
		}
		for i := range c.Terms {
			c.Terms[i].Coef = 1
		}
		c.Degree = int64(need)
		n++
	}
	return n
}

// subsume removes clauses whose literal set is a superset of another
// clause's. Returns the number of removed constraints.
func subsume(p *pb.Problem) int {
	type clauseInfo struct {
		idx  int
		lits map[pb.Lit]bool
	}
	var clauses []clauseInfo
	for i, c := range p.Constraints {
		if c.Kind() != pb.KindClause {
			continue
		}
		m := make(map[pb.Lit]bool, len(c.Terms))
		for _, t := range c.Terms {
			m[t.Lit] = true
		}
		clauses = append(clauses, clauseInfo{i, m})
	}
	sort.Slice(clauses, func(a, b int) bool { return len(clauses[a].lits) < len(clauses[b].lits) })
	removed := map[int]bool{}
	for i := 0; i < len(clauses); i++ {
		if removed[clauses[i].idx] {
			continue
		}
		small := clauses[i]
		for j := i + 1; j < len(clauses); j++ {
			big := clauses[j]
			if removed[big.idx] || len(big.lits) <= len(small.lits) {
				continue
			}
			subset := true
			for l := range small.lits {
				if !big.lits[l] {
					subset = false
					break
				}
			}
			if subset {
				removed[big.idx] = true
			}
		}
	}
	if len(removed) == 0 {
		return 0
	}
	var kept []*pb.Constraint
	for i, c := range p.Constraints {
		if !removed[i] {
			kept = append(kept, c)
		}
	}
	p.Constraints = kept
	return len(removed)
}

// probe runs failed-literal probing and implication strengthening over at
// most maxVars variables (0 = all).
func probe(p *pb.Problem, maxVars int, info *Info) error {
	// At most 4× the constraint count implication clauses are added.
	maxImpl := 4 * len(p.Constraints)
	order := probeOrder(p, maxVars)

	e := engine.New(p)
	if e.SeedUnits() < 0 || e.Propagate() >= 0 {
		info.ProvedUnsat = true
		markUnsat(p)
		return nil
	}

	type implication struct{ from, to pb.Lit }
	var impls []implication
	fixed, unsat := probeFailed(e, order, func(probeLit pb.Lit, base int) {
		for i := base + 1; i < e.TrailSize() && len(impls) < maxImpl; i++ {
			impls = append(impls, implication{probeLit, e.TrailLit(i)})
		}
	})
	info.FixedLiterals = len(fixed)
	if unsat {
		info.ProvedUnsat = true
		markUnsat(p)
		return nil
	}

	for _, l := range fixed {
		if err := p.AddClause(l); err != nil {
			return fmt.Errorf("preprocess: fixing literal: %w", err)
		}
	}
	for _, im := range impls {
		if err := p.AddClause(im.from.Neg(), im.to); err != nil {
			return fmt.Errorf("preprocess: implication clause: %w", err)
		}
		info.Implications++
	}
	return nil
}

// probeFailed runs failed-literal probing at e's root over the variables of
// order: each still unassigned variable is decided both ways and
// propagated. A probe that conflicts is a failed literal: its negation is
// necessary, so it is enqueued at the root, propagated and returned in
// fixed. implied, when non-nil, is called after every probe
// that propagates without conflict, while the literals it implied are still
// on the trail past position base. unsat reports that a fixed negation
// propagated to a conflict: the problem is infeasible.
func probeFailed(e *engine.Engine, order []pb.Var, implied func(probeLit pb.Lit, base int)) (fixed []pb.Lit, unsat bool) {
	for _, v := range order {
		if e.Value(v) != engine.Unassigned {
			continue
		}
		for _, probeLit := range []pb.Lit{pb.PosLit(v), pb.NegLit(v)} {
			if e.Value(v) != engine.Unassigned {
				break
			}
			base := e.TrailSize()
			e.Decide(probeLit)
			if e.Propagate() < 0 {
				if implied != nil {
					implied(probeLit, base)
				}
				e.BacktrackTo(0)
				continue
			}
			e.BacktrackTo(0)
			if !e.Enqueue(probeLit.Neg(), engine.NoReason) || e.Propagate() >= 0 {
				return fixed, true
			}
			fixed = append(fixed, probeLit.Neg())
		}
	}
	return fixed, false
}

// markUnsat appends an explicit contradiction (empty constraint of positive
// degree is not expressible through AddConstraint, so use x ∧ ¬x on var 0,
// creating a variable when the problem has none).
func markUnsat(p *pb.Problem) {
	if p.NumVars == 0 {
		p.AddVar(0)
	}
	_ = p.AddClause(pb.PosLit(0))
	_ = p.AddClause(pb.NegLit(0))
}
