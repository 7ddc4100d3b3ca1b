package core

import "repro/internal/pb"

// CardSet is one eq. 11–13 cardinality set as a solve keeps it, for the
// external tests.
type CardSet struct {
	InK           []bool
	V, SumOutside int64
}

// CardSets returns the cardinality sets a solve of p builds its eq. 13 rows
// from, in row order.
func CardSets(p *pb.Problem) []CardSet {
	var out []CardSet
	for _, cs := range prepareCardSets(p) {
		out = append(out, CardSet{InK: cs.inK, V: cs.v, SumOutside: cs.sumOutside})
	}
	return out
}

// KnapsackTerms returns the eq. 10 row's terms for cost.
func KnapsackTerms(cost []int64) []pb.Term { return sortedCostTerms(cost) }

// CardTerms returns the eq. 13 row's terms for the set inK, filtered from
// the eq. 10 order.
func CardTerms(cost []int64, inK []bool) []pb.Term {
	return outsideK(sortedCostTerms(cost), inK, nil)
}
