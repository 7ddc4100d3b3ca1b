package pb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLitEncoding(t *testing.T) {
	for v := Var(0); v < 100; v++ {
		pos, neg := PosLit(v), NegLit(v)
		if pos.Var() != v || neg.Var() != v {
			t.Fatalf("Var() mismatch for v=%d", v)
		}
		if pos.IsNeg() || !neg.IsNeg() {
			t.Fatalf("IsNeg mismatch for v=%d", v)
		}
		if pos.Neg() != neg || neg.Neg() != pos {
			t.Fatalf("Neg mismatch for v=%d", v)
		}
		if MkLit(v, false) != pos || MkLit(v, true) != neg {
			t.Fatalf("MkLit mismatch for v=%d", v)
		}
	}
}

func TestLitEval(t *testing.T) {
	if !PosLit(0).Eval(true) || PosLit(0).Eval(false) {
		t.Fatal("positive literal eval wrong")
	}
	if NegLit(0).Eval(true) || !NegLit(0).Eval(false) {
		t.Fatal("negative literal eval wrong")
	}
}

func TestLitString(t *testing.T) {
	if PosLit(3).String() != "x3" {
		t.Fatalf("got %q", PosLit(3).String())
	}
	if NegLit(3).String() != "~x3" {
		t.Fatalf("got %q", NegLit(3).String())
	}
	if NoLit.String() != "nil" {
		t.Fatalf("got %q", NoLit.String())
	}
}

func TestNormalizeTriviallyTrue(t *testing.T) {
	// x0 + x1 >= 0 is trivially true.
	c := mustNormalize([]Term{{1, PosLit(0)}, {1, PosLit(1)}}, 0)
	if c != nil {
		t.Fatalf("expected nil, got %v", c)
	}
	// Negative rhs likewise.
	if mustNormalize([]Term{{1, PosLit(0)}}, -5) != nil {
		t.Fatal("expected nil for negative rhs")
	}
}

func TestNormalizeNegativeCoef(t *testing.T) {
	// -2 x0 + 3 x1 >= 1  ⇔  2 ¬x0 + 3 x1 >= 3.
	c := mustNormalize([]Term{{-2, PosLit(0)}, {3, PosLit(1)}}, 1)
	if c == nil {
		t.Fatal("unexpected nil")
	}
	if c.Degree != 3 {
		t.Fatalf("degree=%d want 3", c.Degree)
	}
	found := map[string]int64{}
	for _, tm := range c.Terms {
		found[tm.Lit.String()] = tm.Coef
	}
	if found["~x0"] != 2 || found["x1"] != 3 {
		t.Fatalf("terms wrong: %v", c)
	}
}

func TestNormalizeMergesDuplicates(t *testing.T) {
	// 2 x0 + 3 x0 >= 4 ⇒ 5 x0 >= 4 ⇒ clipped to 4 x0 >= 4.
	c := mustNormalize([]Term{{2, PosLit(0)}, {3, PosLit(0)}}, 4)
	if c == nil || len(c.Terms) != 1 || c.Terms[0].Coef != 4 || c.Degree != 4 {
		t.Fatalf("got %v", c)
	}
	// x0 and ¬x0 cancel: 2 x0 + 3 ¬x0 >= 1 ⇔ -1 x0 >= -2 ⇔ ¬x0 >= -1: trivial.
	c = mustNormalize([]Term{{2, PosLit(0)}, {3, NegLit(0)}}, 1)
	if c != nil {
		t.Fatalf("expected trivial, got %v", c)
	}
	// 2 x0 + 3 ¬x0 >= 3 ⇔ ¬x0 >= 0 + ... : -1·x0 >= 0 ⇔ 1·¬x0 >= 1.
	c = mustNormalize([]Term{{2, PosLit(0)}, {3, NegLit(0)}}, 3)
	if c == nil || len(c.Terms) != 1 || c.Terms[0].Lit != NegLit(0) || c.Degree != 1 {
		t.Fatalf("got %v", c)
	}
}

func TestNormalizeClipping(t *testing.T) {
	// 10 x0 + 1 x1 >= 2 ⇒ coef 10 clipped to 2.
	c := mustNormalize([]Term{{10, PosLit(0)}, {1, PosLit(1)}}, 2)
	if c.Terms[0].Coef != 2 {
		t.Fatalf("not clipped: %v", c)
	}
}

func TestNormalizeSortsDescending(t *testing.T) {
	c := mustNormalize([]Term{{1, PosLit(0)}, {3, PosLit(1)}, {2, PosLit(2)}}, 3)
	for i := 1; i < len(c.Terms); i++ {
		if c.Terms[i].Coef > c.Terms[i-1].Coef {
			t.Fatalf("not sorted: %v", c)
		}
	}
}

// normalizePreservesSolutions: every assignment satisfies the raw constraint
// iff it satisfies the normalized one.
func TestNormalizePreservesSolutionSet(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(5)
		nt := 1 + rng.Intn(6)
		terms := make([]Term, nt)
		for i := range terms {
			terms[i] = Term{
				Coef: int64(rng.Intn(9) - 4),
				Lit:  MkLit(Var(rng.Intn(n)), rng.Intn(2) == 0),
			}
		}
		rhs := int64(rng.Intn(13) - 6)
		c := mustNormalize(append([]Term(nil), terms...), rhs)
		for mask := 0; mask < 1<<n; mask++ {
			values := make([]bool, n)
			for v := 0; v < n; v++ {
				values[v] = mask&(1<<v) != 0
			}
			var lhs int64
			for _, tm := range terms {
				if tm.Lit.Eval(values[tm.Lit.Var()]) {
					lhs += tm.Coef
				}
			}
			rawSat := lhs >= rhs
			normSat := c == nil || c.Eval(values)
			if rawSat != normSat {
				t.Fatalf("iter %d mask %b: raw=%v norm=%v (c=%v terms=%v rhs=%d)",
					iter, mask, rawSat, normSat, c, terms, rhs)
			}
		}
	}
}

func TestConstraintKind(t *testing.T) {
	cases := []struct {
		c    *Constraint
		want Kind
	}{
		{&Constraint{Degree: 0}, KindTrivial},
		{mustNormalize([]Term{{1, PosLit(0)}, {1, PosLit(1)}}, 1), KindClause},
		{mustNormalize([]Term{{1, PosLit(0)}, {1, PosLit(1)}, {1, PosLit(2)}}, 2), KindCardinality},
		{mustNormalize([]Term{{2, PosLit(0)}, {1, PosLit(1)}, {1, PosLit(2)}}, 3), KindGeneral},
		// 5x0 + 5x1 >= 3 clips to 3x0+3x1>=3: each alone satisfies ⇒ clause.
		{mustNormalize([]Term{{5, PosLit(0)}, {5, PosLit(1)}}, 3), KindClause},
	}
	for i, tc := range cases {
		if got := tc.c.Kind(); got != tc.want {
			t.Errorf("case %d: kind=%v want %v (%v)", i, got, tc.want, tc.c)
		}
	}
}

func TestCardinalityNeed(t *testing.T) {
	c := mustNormalize([]Term{{1, PosLit(0)}, {1, PosLit(1)}, {1, PosLit(2)}}, 2)
	if c.CardinalityNeed() != 2 {
		t.Fatalf("need=%d", c.CardinalityNeed())
	}
	c = mustNormalize([]Term{{3, PosLit(0)}, {2, PosLit(1)}, {2, PosLit(2)}}, 4)
	if got := c.CardinalityNeed(); got != 2 { // ceil(4/3)=2 literal minimum
		t.Fatalf("need=%d want 2", got)
	}
}

func TestAddConstraintLEandEQ(t *testing.T) {
	p := NewProblem(3)
	// x0 + x1 + x2 <= 1  ⇔  ¬x0+¬x1+¬x2 >= 2.
	if err := p.AddAtMost([]Lit{PosLit(0), PosLit(1), PosLit(2)}, 1); err != nil {
		t.Fatal(err)
	}
	if len(p.Constraints) != 1 {
		t.Fatalf("constraints=%d", len(p.Constraints))
	}
	c := p.Constraints[0]
	if c.Degree != 2 || len(c.Terms) != 3 {
		t.Fatalf("got %v", c)
	}
	for _, tm := range c.Terms {
		if !tm.Lit.IsNeg() {
			t.Fatalf("expected negated literals: %v", c)
		}
	}

	p2 := NewProblem(2)
	if err := p2.AddExactlyOne(PosLit(0), PosLit(1)); err != nil {
		t.Fatal(err)
	}
	if len(p2.Constraints) != 2 {
		t.Fatalf("EQ should split into 2 constraints, got %d", len(p2.Constraints))
	}
	// Check semantics by brute force: only assignments with exactly one true.
	for mask := 0; mask < 4; mask++ {
		values := []bool{mask&1 != 0, mask&2 != 0}
		want := (mask == 1 || mask == 2)
		if got := p2.Feasible(values); got != want {
			t.Fatalf("mask=%d feasible=%v want %v", mask, got, want)
		}
	}
}

func TestAddConstraintUndefinedVar(t *testing.T) {
	p := NewProblem(1)
	if err := p.AddClause(PosLit(5)); err == nil {
		t.Fatal("expected error for undefined variable")
	}
}

func TestProblemObjectiveAndOffset(t *testing.T) {
	p := NewProblem(2)
	p.SetCost(0, 3)
	p.SetCost(1, 5)
	p.CostOffset = 7
	if got := p.ObjectiveValue([]bool{true, false}); got != 10 {
		t.Fatalf("obj=%d want 10", got)
	}
	if got := p.ObjectiveValue([]bool{true, true}); got != 15 {
		t.Fatalf("obj=%d want 15", got)
	}
	if p.TotalCost() != 8 {
		t.Fatalf("total=%d", p.TotalCost())
	}
}

func TestSetCostNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := NewProblem(1)
	p.SetCost(0, -1)
}

func TestHasObjective(t *testing.T) {
	p := NewProblem(2)
	if p.HasObjective() {
		t.Fatal("empty cost should have no objective")
	}
	p.SetCost(1, 1)
	if !p.HasObjective() {
		t.Fatal("should have objective")
	}
}

func TestValidate(t *testing.T) {
	p := NewProblem(2)
	p.SetCost(0, 1)
	if err := p.AddClause(PosLit(0), NegLit(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	// Corrupt: duplicate variable.
	p.Constraints[0].Terms = append(p.Constraints[0].Terms, Term{1, PosLit(0)})
	p.Constraints[0].Degree = 2
	if err := p.Validate(); err == nil {
		t.Fatal("expected duplicate-variable error")
	}
}

func TestBruteForceSimple(t *testing.T) {
	// min x0 + 2x1 s.t. x0 + x1 >= 1 ⇒ optimum 1 at x0=1.
	p := NewProblem(2)
	p.SetCost(0, 1)
	p.SetCost(1, 2)
	if err := p.AddClause(PosLit(0), PosLit(1)); err != nil {
		t.Fatal(err)
	}
	r := BruteForce(p)
	if !r.Feasible || r.Optimum != 1 || !r.Values[0] || r.Values[1] {
		t.Fatalf("got %+v", r)
	}
}

func TestBruteForceInfeasible(t *testing.T) {
	p := NewProblem(1)
	if err := p.AddClause(PosLit(0)); err != nil {
		t.Fatal(err)
	}
	if err := p.AddClause(NegLit(0)); err != nil {
		t.Fatal(err)
	}
	// x0 ∧ ¬x0 — need both ≥1 of single literal each: infeasible.
	r := BruteForce(p)
	if r.Feasible {
		t.Fatalf("expected infeasible, got %+v", r)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewProblem(2)
	p.SetCost(0, 1)
	_ = p.AddClause(PosLit(0), PosLit(1))
	q := p.Clone()
	q.Cost[0] = 99
	q.Constraints[0].Degree = 99
	if p.Cost[0] != 1 || p.Constraints[0].Degree == 99 {
		t.Fatal("clone aliases original")
	}
}

// Property: normalize is idempotent — normalizing a normalized constraint's
// terms with its degree yields an equivalent constraint.
func TestNormalizeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		nt := 1 + rng.Intn(5)
		terms := make([]Term, nt)
		for i := range terms {
			terms[i] = Term{Coef: int64(rng.Intn(7) - 3), Lit: MkLit(Var(rng.Intn(n)), rng.Intn(2) == 0)}
		}
		rhs := int64(rng.Intn(9) - 3)
		c := mustNormalize(terms, rhs)
		if c == nil {
			return true
		}
		c2 := mustNormalize(append([]Term(nil), c.Terms...), c.Degree)
		if c2 == nil {
			return false
		}
		if c2.Degree != c.Degree || len(c2.Terms) != len(c.Terms) {
			return false
		}
		for i := range c.Terms {
			if c.Terms[i] != c2.Terms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any normalized constraint, Slack < 0 implies no satisfying
// assignment exists.
func TestSlackInfeasibilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		nt := 1 + rng.Intn(5)
		terms := make([]Term, nt)
		for i := range terms {
			terms[i] = Term{Coef: int64(1 + rng.Intn(5)), Lit: MkLit(Var(rng.Intn(n)), rng.Intn(2) == 0)}
		}
		rhs := int64(1 + rng.Intn(20))
		c := mustNormalize(terms, rhs)
		if c == nil {
			return true
		}
		anySat := false
		for mask := 0; mask < 1<<n; mask++ {
			values := make([]bool, n)
			for v := 0; v < n; v++ {
				values[v] = mask&(1<<v) != 0
			}
			if c.Eval(values) {
				anySat = true
				break
			}
		}
		if c.Slack() < 0 && anySat {
			return false
		}
		if c.Slack() >= 0 && !anySat {
			return false // normalized PB constraint with slack>=0 always satisfiable (set all lits true)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestConstraintString(t *testing.T) {
	c := mustNormalize([]Term{{2, PosLit(0)}, {1, NegLit(1)}}, 2)
	if got := c.String(); got != "+2 x0 +1 ~x1 >= 2" {
		t.Fatalf("got %q", got)
	}
}

func TestAddVar(t *testing.T) {
	p := NewProblem(0)
	v0 := p.AddVar(5)
	v1 := p.AddVar(0)
	if v0 != 0 || v1 != 1 || p.NumVars != 2 || p.Cost[0] != 5 || p.Cost[1] != 0 {
		t.Fatalf("AddVar wrong: %+v", p)
	}
}

// mustNormalize is normalize for constraints whose arithmetic cannot
// overflow.
func mustNormalize(terms []Term, rhs int64) *Constraint {
	c, err := normalize(terms, rhs, false)
	if err != nil {
		panic(err)
	}
	return c
}
