package opb

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/pb"
)

func TestParseSimple(t *testing.T) {
	src := `
* a comment
min: +1 x1 +2 x2 ;
+1 x1 +1 x2 >= 1 ;
`
	p, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVars != 2 {
		t.Fatalf("vars=%d", p.NumVars)
	}
	if p.Cost[0] != 1 || p.Cost[1] != 2 {
		t.Fatalf("costs=%v", p.Cost)
	}
	if len(p.Constraints) != 1 {
		t.Fatalf("constraints=%d", len(p.Constraints))
	}
	r := pb.BruteForce(p)
	if !r.Feasible || r.Optimum != 1 {
		t.Fatalf("brute force: %+v", r)
	}
}

func TestParseMultilineStatement(t *testing.T) {
	src := "min: +1 x1\n +2 x2 ;\n+1 x1 +1 x2\n >= 1 ;"
	p, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVars != 2 || len(p.Constraints) != 1 {
		t.Fatalf("parsed wrong: vars=%d cons=%d", p.NumVars, len(p.Constraints))
	}
}

func TestParseNegatedLiterals(t *testing.T) {
	src := "+2 ~x1 +3 x2 >= 2 ;"
	p, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Constraints[0]
	found := false
	for _, tm := range c.Terms {
		if tm.Lit.IsNeg() {
			found = true
		}
	}
	if !found {
		t.Fatalf("negated literal lost: %v", c)
	}
}

func TestParseEquality(t *testing.T) {
	src := "+1 x1 +1 x2 = 1 ;"
	p, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Constraints) != 2 {
		t.Fatalf("EQ should yield 2 normalized constraints, got %d", len(p.Constraints))
	}
	for mask := 0; mask < 4; mask++ {
		values := []bool{mask&1 != 0, mask&2 != 0}
		want := mask == 1 || mask == 2
		if got := p.Feasible(values); got != want {
			t.Fatalf("mask %d: %v want %v", mask, got, want)
		}
	}
}

func TestParseLessEqual(t *testing.T) {
	src := "+1 x1 +1 x2 +1 x3 <= 1 ;"
	p, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 8; mask++ {
		values := []bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}
		cnt := 0
		for _, b := range values {
			if b {
				cnt++
			}
		}
		if got := p.Feasible(values); got != (cnt <= 1) {
			t.Fatalf("mask %d: %v", mask, got)
		}
	}
}

func TestParseNegativeObjectiveCoef(t *testing.T) {
	// min -2 x1 + 3 x2: optimum picks x1=1, x2=0 ⇒ value −2.
	src := "min: -2 x1 +3 x2 ;\n+1 x1 +1 x2 >= 1 ;"
	p, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	r := pb.BruteForce(p)
	if !r.Feasible || r.Optimum != -2 {
		t.Fatalf("optimum=%d want -2 (%+v)", r.Optimum, r)
	}
}

func TestParseNegatedObjectiveLiteral(t *testing.T) {
	// min 2 ~x1 ⇒ offset 2, cost −2 on x1 ⇒ net encoding with optimum 0 at x1=1.
	src := "min: +2 ~x1 ;\n+1 x1 +1 x2 >= 1 ;"
	p, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	r := pb.BruteForce(p)
	if !r.Feasible || r.Optimum != 0 {
		t.Fatalf("optimum=%d want 0", r.Optimum)
	}
}

// TestParseErrors pins the text and line of every parse error. A statement
// reports the line of its terminating ';' (or the last line, at end of
// input), however many lines it spans.
func TestParseErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"max: +1 x1 ;", "opb: line 1: max: objectives are not supported (negate to min:)"},
		{"min: +1 x1 >= 1 ;", "opb: line 1: relational operator in objective"},
		{"+1 x1 +1 x2 ;", "opb: line 1: constraint without relational operator"},
		{"+1 x1 >= one ;", `opb: line 1: bad right-hand side "one"`},
		{"+1 x1 >= 99999999999999999999 ;", `opb: line 1: bad right-hand side "99999999999999999999"`},
		{"+1 x1 +2 >= 1 ;", `opb: line 1: coefficient "+2" without literal`},
		{"min: 3 ;", `opb: line 1: coefficient "3" without literal`},
		{"min: +1 x1 ;\nmin: +1 x1 ;", "opb: line 2: duplicate objective"},
		{"frob x1 >= 1 ;", `opb: line 1: expected coefficient, got "frob"`},
		{"+1 x1 >= 1 2 ;", "opb: line 1: expected single right-hand side, got [1 2]"},
		{"+1 x1 >= ;", "opb: line 1: expected single right-hand side, got []"},
		{"+1 x1 <=", "opb: line 1: expected single right-hand side, got []"},
		{"+1 x1 >= 1 ;\n+1 ~ >= 1 ;", "opb: line 2: empty literal"},
		{"+1 x1 - >= 1 ;", `opb: line 1: invalid variable name "-"`},
		{"+1 1x >= 1 ;", `opb: line 1: invalid variable name "1x"`},
		{"+1 x1 +2x2 >= 1 ;", `opb: line 1: invalid variable name "+2x2"`},
		{"+1 x1 ~x1 >= 1 ;", "opb: line 1: opb: product contains both polarities of x0"},
		// A statement spanning lines reports the line of its ';'.
		{"+1 x1\n+1 x2\n>= 3 2\n;", "opb: line 4: expected single right-hand side, got [3 2]"},
		// An unterminated last statement reports the last line.
		{"+1 x1 >= 1 ;\n\n+1 x2 >= 1 2\n", "opb: line 3: expected single right-hand side, got [1 2]"},
	}
	for _, c := range cases {
		_, err := ParseString(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("%q: err=%v, want %q", c.src, err, c.want)
		}
	}
}

func TestParseSemicolonHandling(t *testing.T) {
	// Semicolon glued to last token, and two statements on one line.
	src := "+1 x1 >= 1; +1 x2 >= 1 ;"
	p, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Constraints) != 2 {
		t.Fatalf("constraints=%d want 2", len(p.Constraints))
	}
}

func TestWriteRoundTrip(t *testing.T) {
	src := `min: +3 x1 +1 x2 +4 x3 ;
+2 x1 +1 ~x2 +1 x3 >= 2 ;
+1 x1 +1 x2 +1 x3 <= 2 ;
+1 x2 +1 x3 >= 1 ;
`
	p1, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	out := WriteString(p1)
	p2, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, out)
	}
	r1, r2 := pb.BruteForce(p1), pb.BruteForce(p2)
	if r1.Feasible != r2.Feasible || r1.Optimum+p1.CostOffset-p1.CostOffset != r2.Optimum+p1.CostOffset-p2.CostOffset {
		t.Fatalf("round trip changed semantics: %+v vs %+v", r1, r2)
	}
}

// Property-style: random problems survive a write/parse round trip with the
// same optimum.
func TestRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(5)
		p := pb.NewProblem(n)
		for v := 0; v < n; v++ {
			p.SetCost(pb.Var(v), int64(rng.Intn(6)))
		}
		m := 1 + rng.Intn(6)
		for i := 0; i < m; i++ {
			nt := 1 + rng.Intn(n)
			terms := make([]pb.Term, nt)
			for k := range terms {
				terms[k] = pb.Term{
					Coef: int64(1 + rng.Intn(4)),
					Lit:  pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0),
				}
			}
			cmp := pb.Cmp(rng.Intn(3))
			rhs := int64(rng.Intn(7))
			if err := p.AddConstraint(terms, cmp, rhs); err != nil {
				t.Fatal(err)
			}
		}
		out := WriteString(p)
		q, err := ParseString(out)
		if err != nil {
			t.Fatalf("iter %d: %v\n%s", iter, err, out)
		}
		rp, rq := pb.BruteForce(p), pb.BruteForce(q)
		if rp.Feasible != rq.Feasible {
			t.Fatalf("iter %d: feasibility changed (%v vs %v)\n%s", iter, rp.Feasible, rq.Feasible, out)
		}
		if rp.Feasible && rp.Optimum-p.CostOffset != rq.Optimum-q.CostOffset {
			t.Fatalf("iter %d: optimum changed (%d vs %d)\n%s", iter, rp.Optimum, rq.Optimum, out)
		}
	}
}

func TestWriteNoObjective(t *testing.T) {
	p := pb.NewProblem(2)
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
	out := WriteString(p)
	if strings.Contains(out, "min:") {
		t.Fatalf("pure satisfaction instance should have no objective line:\n%s", out)
	}
}

func TestVariableNamesPreserved(t *testing.T) {
	src := "min: +1 a +1 b ;\n+1 a +1 b >= 1 ;"
	p, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	names := slices.Clone(p.Names)
	slices.Sort(names)
	if names[0] != "a" || names[1] != "b" {
		t.Fatalf("names=%v", names)
	}
	out := WriteString(p)
	if !strings.Contains(out, " a") || !strings.Contains(out, " b") {
		t.Fatalf("names lost:\n%s", out)
	}
}
