package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pb"
)

// refCostTerms is the eq. 10/13 term builder as it stood before the rows
// shared one sorted order: Σ c_j·¬x_j over the positive-cost variables
// outside exclude, sorted by descending coefficient, then literal.
func refCostTerms(cost []int64, exclude []bool) []pb.Term {
	var terms []pb.Term
	for v, c := range cost {
		if c > 0 && (exclude == nil || !exclude[v]) {
			terms = append(terms, pb.Term{Coef: c, Lit: pb.NegLit(pb.Var(v))})
		}
	}
	sort.Slice(terms, func(i, j int) bool {
		if terms[i].Coef != terms[j].Coef {
			return terms[i].Coef > terms[j].Coef
		}
		return terms[i].Lit < terms[j].Lit
	})
	return terms
}

// refCardSets is the eq. 11–12 set selection as it stood before the one-pass
// rewrite: a NumVars-wide inK and a scan of the whole cost vector for every
// candidate row, then the 16 with the largest V.
func refCardSets(p *pb.Problem) []core.CardSet {
	var sets []core.CardSet
	for _, c := range p.Constraints {
		kind := c.Kind()
		if kind != pb.KindCardinality && kind != pb.KindClause {
			continue
		}
		u := c.CardinalityNeed()
		if u <= 0 {
			continue
		}
		inK := make([]bool, p.NumVars)
		var costs []int64
		allPositive := true
		for _, t := range c.Terms {
			if t.Lit.IsNeg() {
				allPositive = false
				break
			}
			inK[t.Lit.Var()] = true
			costs = append(costs, p.Cost[t.Lit.Var()])
		}
		if !allPositive {
			continue
		}
		sort.Slice(costs, func(i, j int) bool { return costs[i] < costs[j] })
		var v int64
		for i := int64(0); i < u && i < int64(len(costs)); i++ {
			v += costs[i]
		}
		if v <= 0 {
			continue
		}
		var sumOutside int64
		for vv, c := range p.Cost {
			if c > 0 && !inK[vv] {
				sumOutside += c
			}
		}
		sets = append(sets, core.CardSet{InK: inK, V: v, SumOutside: sumOutside})
	}
	sort.Slice(sets, func(a, b int) bool { return sets[a].V > sets[b].V })
	if len(sets) > 16 {
		sets = sets[:16]
	}
	return sets
}

// checkIncumbentRows compares the eq. 10–13 set-up against the reference:
// the same sets in the same order, and identical row terms.
func checkIncumbentRows(t *testing.T, name string, p *pb.Problem) {
	t.Helper()
	got, want := core.CardSets(p), refCardSets(p)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: card sets differ from the reference:\n got %d sets\nwant %d sets", name, len(got), len(want))
	}
	if !slices.Equal(core.KnapsackTerms(p.Cost), refCostTerms(p.Cost, nil)) {
		t.Fatalf("%s: eq. 10 terms differ from the reference", name)
	}
	for i, cs := range got {
		if !slices.Equal(core.CardTerms(p.Cost, cs.InK), refCostTerms(p.Cost, cs.InK)) {
			t.Fatalf("%s: eq. 13 terms of set %d differ from the reference", name, i)
		}
	}
}

// tiedCardProblem draws clause and cardinality rows over small costs, so many
// rows tie in V and more than 16 compete, plus rows the selection must skip
// (a negative literal, unequal coefficients) and one row, appended past
// AddConstraint's normalization, that repeats a variable.
func tiedCardProblem(rng *rand.Rand) *pb.Problem {
	n := 10 + rng.Intn(30)
	p := pb.NewProblem(n)
	for v := 0; v < n; v++ {
		p.SetCost(pb.Var(v), int64(rng.Intn(4)))
	}
	lits := func(k int) []pb.Lit {
		var out []pb.Lit
		for _, v := range rng.Perm(n)[:k] {
			out = append(out, pb.PosLit(pb.Var(v)))
		}
		return out
	}
	for r := 0; r < 10+rng.Intn(40); r++ {
		k := 2 + rng.Intn(5)
		switch rng.Intn(4) {
		case 0:
			_ = p.AddClause(lits(k)...)
		case 1:
			_ = p.AddAtLeast(lits(k), int64(1+rng.Intn(k)))
		case 2:
			ls := lits(k)
			ls[0] = ls[0].Neg()
			_ = p.AddAtLeast(ls, 1)
		default:
			var terms []pb.Term
			for i, l := range lits(k) {
				terms = append(terms, pb.Term{Coef: int64(1 + i%2), Lit: l})
			}
			_ = p.AddConstraint(terms, pb.GE, 2)
		}
	}
	v := pb.PosLit(pb.Var(rng.Intn(n)))
	w := pb.PosLit(pb.Var(rng.Intn(n)))
	p.Constraints = append(p.Constraints, &pb.Constraint{
		Terms: []pb.Term{{Coef: 1, Lit: v}, {Coef: 1, Lit: w}, {Coef: 1, Lit: v}}, Degree: 2})
	return p
}

// TestIncumbentRowsMatchReference: the one-pass card-set selection and the
// shared eq. 10 order build exactly the rows the reference builds, on random
// problems with ties in V and on the 40 Table 1 rows.
func TestIncumbentRowsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 300; iter++ {
		checkIncumbentRows(t, fmt.Sprintf("random-%d", iter), tiedCardProblem(rng))
	}
	insts, err := harness.Instances(harness.Families(), harness.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range insts {
		checkIncumbentRows(t, inst.Name, inst.Prob)
	}
}

// BenchmarkRootClose runs default bsolo-LPR over the 40 Table 1 rows under
// table1-lpr's 300-conflict cap, one sub-benchmark per family. Most grout,
// synth and mcnc rows close at the root, so their ns/op and allocs/op are
// dominated by what a root node costs: the root LP, the LP-point incumbent
// and the set-up around it. The acc rows are satisfaction rows with no LP.
func BenchmarkRootClose(b *testing.B) {
	insts, err := harness.Instances(harness.Families(), harness.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	opt := core.Options{LowerBound: core.LBLPR, CardinalityInference: true, MaxConflicts: 300}
	for _, fam := range harness.Families() {
		b.Run(string(fam), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, inst := range insts {
					if inst.Family == fam {
						core.Solve(inst.Prob, opt)
					}
				}
			}
		})
	}
}
