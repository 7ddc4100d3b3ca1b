// Package cuts implements cutting-plane separation for the LPR bound
// pipeline (DESIGN.md §14): lifted knapsack-cover inequalities and clique
// cuts from a lazily-built conflict graph, managed by a bounded cut pool
// with duplicate hashing and activity-based aging.
//
// Every cut produced here is *globally valid*: it is implied by a single
// original problem constraint (covers) or by a set of pairwise
// incompatibilities each read off one original constraint (cliques), never
// by learned constraints or the current incumbent. Global validity is what
// makes the pool reusable across search nodes — a cut separated at one node
// may be residualized against any other node's partial assignment — and is
// what the audit hook (audit.PooledCut) re-verifies exhaustively on small
// instances.
//
// The package depends only on pb and obs (whose CutStats block the pool
// counts into). The bounds package residualizes pooled cuts per node and
// installs them into the LP as extra dual columns; see bounds.LPR.
package cuts

import (
	"sort"

	"repro/internal/pb"
)

// Source is one original problem constraint offered to the separators:
// Σ Coefs[j]·Lits[j] ≥ Degree in engine normal form (coefficients positive,
// descending, clipped at the degree). The slices are views into the engine's
// store and must not be retained past the separation call.
type Source struct {
	// EngIdx identifies the constraint in the engine store (used to absorb
	// each row into the conflict graph exactly once).
	EngIdx int
	Lits   []pb.Lit
	Coefs  []int64
	Degree int64
}

// RowReader reads an original constraint by its engine index, as a Source
// viewing the store as it is at the call: the store moves its rows, so the
// pool keeps the indices of pending rows and re-reads them when it absorbs.
type RowReader interface {
	Row(engIdx int) Source
}

// slack returns Σ Coefs − Degree: the capacity of the complemented knapsack
// Σ a_j·¬l_j ≤ slack, the quantity both separators reason over.
func (s Source) slack() int64 {
	var sum int64
	for _, a := range s.Coefs {
		sum += a
	}
	return sum - s.Degree
}

// Cut is one pooled cutting plane: Σ Terms ≥ Degree over original problem
// literals, implied by the original constraints alone.
type Cut struct {
	Terms  []pb.Term
	Degree int64
}

// The pool's and the separators' budgets.
const (
	// maxRounds caps separation rounds per root estimation (the root
	// separates to a fixpoint or this cap, whichever first).
	maxRounds = 8
	// every is the deep-node separation period: one separation round at
	// every every-th non-root estimation.
	every = 16
	// maxPool caps live cuts; beyond it the lowest-activity cut is evicted.
	maxPool = 256
	// maxPerRound caps cuts accepted per separation round.
	maxPerRound = 32
	// minViolation is the minimal LP violation (in the complemented
	// y-space) for a separated cut to be worth pooling.
	minViolation = 0.02
)

// sortTerms puts cut terms into the engine's normal order: descending
// coefficient, ties by ascending literal.
func sortTerms(terms []pb.Term) {
	sort.Slice(terms, func(i, j int) bool {
		if terms[i].Coef != terms[j].Coef {
			return terms[i].Coef > terms[j].Coef
		}
		return terms[i].Lit < terms[j].Lit
	})
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
