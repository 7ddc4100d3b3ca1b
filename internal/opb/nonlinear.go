package opb

import (
	"fmt"
	"slices"

	"repro/internal/pb"
)

// productTable linearizes nonlinear OPB terms: a product l1·l2·…·lk of
// literals is replaced by a fresh auxiliary variable z constrained to equal
// the conjunction:
//
//	z → l_i               (¬z ∨ l_i, one clause per factor)
//	l_1 ∧ … ∧ l_k → z     (z ∨ ¬l_1 ∨ … ∨ ¬l_k)
//
// Identical products (up to ordering) share one auxiliary variable. The
// equivalence (rather than a one-sided implication) keeps the substitution
// valid in every context: objectives, ≥/≤/= constraints, either sign.
type productTable struct {
	prob  *pb.Problem
	byKey map[string]pb.Var
	// pending holds each new product as z followed by its factors, for
	// flushDefinitions.
	pending [][]pb.Lit
}

// literal returns the literal representing the product of lits: the literal
// itself for a single factor, or the shared auxiliary variable otherwise.
// The defining clauses are deferred (the problem may still be growing
// variables) and installed by flushDefinitions.
func (pt *productTable) literal(lits []pb.Lit) (pb.Lit, error) {
	if len(lits) == 1 {
		return lits[0], nil
	}
	// Canonicalize: sort, deduplicate; a product containing both x and ¬x
	// is constant false, which has no literal representation — reject with
	// a clear error (a fresh always-false variable would silently grow the
	// problem; such inputs are malformed in practice).
	uniq := slices.Clone(lits)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	for i := 1; i < len(uniq); i++ {
		if uniq[i].Var() == uniq[i-1].Var() {
			return pb.NoLit, fmt.Errorf("opb: product contains both polarities of x%d", uniq[i].Var())
		}
	}
	if len(uniq) == 1 {
		return uniq[0], nil
	}
	key := fmt.Sprint(uniq)
	if z, ok := pt.byKey[key]; ok {
		return pb.PosLit(z), nil
	}
	// Every variable the parser creates is named, so z's name is appended.
	z := pt.prob.AddVar(0)
	pt.prob.Names = append(pt.prob.Names, fmt.Sprintf("_p%d", z))
	pt.byKey[key] = z
	pt.pending = append(pt.pending, append([]pb.Lit{pb.PosLit(z)}, uniq...))
	return pb.PosLit(z), nil
}

// flushDefinitions installs the defining clauses of every auxiliary
// product variable.
func (pt *productTable) flushDefinitions() error {
	for _, def := range pt.pending {
		z, clause := def[0], []pb.Lit{def[0]}
		for _, l := range def[1:] {
			// z → l_i for every factor.
			if err := pt.prob.AddClause(z.Neg(), l); err != nil {
				return err
			}
			clause = append(clause, l.Neg())
		}
		// Conjunction → z.
		if err := pt.prob.AddClause(clause...); err != nil {
			return err
		}
	}
	return nil
}
