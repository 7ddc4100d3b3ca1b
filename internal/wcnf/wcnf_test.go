package wcnf

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/opb"
	"repro/internal/pb"
	"repro/internal/verify"
	"repro/internal/wbo"
)

func parse(t *testing.T, text string) *wbo.Instance {
	t.Helper()
	in, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func parseErr(t *testing.T, text, wantSub string) {
	t.Helper()
	_, err := Parse(strings.NewReader(text))
	if err == nil {
		t.Fatalf("parse succeeded, want error containing %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("err=%q want substring %q", err, wantSub)
	}
}

func TestParseTopWeightIsHard(t *testing.T) {
	in := parse(t, `c weighted instance
p wcnf 3 4 10
10 1 2 0
15 -1 3 0
4 -2 0
1 3 0
`)
	if in.NumVars != 3 {
		t.Fatalf("NumVars=%d want 3", in.NumVars)
	}
	// Weights ≥ top (10 and 15) are hard, the rest soft.
	if len(in.Hard) != 2 || len(in.Soft) != 2 {
		t.Fatalf("hard=%d soft=%d want 2/2", len(in.Hard), len(in.Soft))
	}
	if in.Soft[0].Weight != 4 || in.Soft[1].Weight != 1 {
		t.Fatalf("soft weights %d,%d want 4,1", in.Soft[0].Weight, in.Soft[1].Weight)
	}
	// Hard clause 2 is ¬x1 ∨ x3.
	h := in.Hard[1]
	if h.Cmp != pb.GE || h.Rhs != 1 || len(h.Terms) != 2 {
		t.Fatalf("hard[1] malformed: %+v", h)
	}
	if h.Terms[0].Lit != pb.NegLit(0) || h.Terms[1].Lit != pb.PosLit(2) {
		t.Fatalf("hard[1] literals %v,%v", h.Terms[0].Lit, h.Terms[1].Lit)
	}
}

func TestParseNoTopMeansAllSoft(t *testing.T) {
	in := parse(t, "p wcnf 2 2\n7 1 0\n9 -1 2 0\n")
	if len(in.Hard) != 0 || len(in.Soft) != 2 {
		t.Fatalf("hard=%d soft=%d want 0/2", len(in.Hard), len(in.Soft))
	}
}

func TestParseRejectsNonPositiveWeights(t *testing.T) {
	parseErr(t, "p wcnf 1 1 5\n0 1 0\n", "weight must be positive")
	parseErr(t, "p wcnf 1 1 5\n-3 1 0\n", "weight must be positive")
	parseErr(t, "p wcnf 1 1 0\n1 1 0\n", "bad top weight")
}

func TestParseEmptyClauses(t *testing.T) {
	// Hard empty clause: instance is hard-UNSAT.
	in := parse(t, "p wcnf 1 2 9\n9 0\n1 1 0\n")
	if len(in.Hard) != 1 || len(in.Hard[0].Terms) != 0 {
		t.Fatalf("hard empty clause not preserved: %+v", in.Hard)
	}
	res := wbo.Solve(in, wbo.Options{})
	if !res.HardUnsat {
		t.Fatalf("hard empty clause must make the instance hard-UNSAT, got %+v", res)
	}

	// Soft empty clause: its weight is unconditionally paid via the offset.
	in2 := parse(t, "p wcnf 1 2 9\n3 0\n9 1 0\n")
	if in2.Offset != 3 || len(in2.Soft) != 0 {
		t.Fatalf("offset=%d softs=%d want 3/0", in2.Offset, len(in2.Soft))
	}
	res2 := wbo.Solve(in2, wbo.Options{})
	if res2.Status != core.StatusOptimal || res2.Best != 3 {
		t.Fatalf("got %v/%d want optimal/3", res2.Status, res2.Best)
	}
}

func TestParseDuplicateAndTautologicalLiterals(t *testing.T) {
	// Duplicates collapse to one occurrence; l ∨ ¬l clauses vanish entirely.
	in := parse(t, "p wcnf 2 2 9\n9 1 1 2 0\n4 1 -1 0\n")
	if len(in.Hard) != 1 || len(in.Hard[0].Terms) != 2 {
		t.Fatalf("duplicate literal not collapsed: %+v", in.Hard)
	}
	if len(in.Soft) != 0 {
		t.Fatalf("tautological soft clause kept: %+v", in.Soft)
	}
}

func TestParseTrailingZeroRequired(t *testing.T) {
	parseErr(t, "p wcnf 2 1 9\n9 1 2\n", "unterminated clause")
	// A clause may span lines until its terminating 0.
	in := parse(t, "p wcnf 3 1 9\n9 1\n2 3 0\n")
	if len(in.Hard) != 1 || len(in.Hard[0].Terms) != 3 {
		t.Fatalf("multi-line clause mis-parsed: %+v", in.Hard)
	}
}

func TestParseStructuralErrors(t *testing.T) {
	parseErr(t, "1 1 0\n", "clause before header")
	parseErr(t, "p cnf 1 1\n", "bad header")
	parseErr(t, "p wcnf 1 1 9\n9 2 0\n", "exceeds declared")
	parseErr(t, "p wcnf 1 1 9\n9 -9223372036854775808 0\n", "line 2: literal -9223372036854775808 exceeds declared")
	parseErr(t, "p wcnf 1 9 9\np wcnf 1 9 9\n", "duplicate header")
	parseErr(t, "", "missing \"p wcnf\" header")
	parseErr(t, "p wcnf 2 1 9\n9 1 x 0\n", "bad literal")
}

func TestParseValueLineRoundTrip(t *testing.T) {
	// Solve the compiled instance and push the witness through the
	// competition value-line format: formatting then re-parsing must
	// reproduce the assignment bit for bit.
	in := parse(t, `p wcnf 3 5 20
20 1 2 0
20 -1 -2 0
5 1 0
3 2 0
1 3 0
`)
	b, err := in.Builder()
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Problem()
	if err != nil {
		t.Fatal(err)
	}
	res := core.Solve(p, core.Options{})
	if res.Status != core.StatusOptimal || !res.HasSolution {
		t.Fatalf("status=%v want optimal with witness", res.Status)
	}
	line := verify.FormatValueLine(p, res.Values)
	asg, err := verify.ParseValueLine(p, line)
	if err != nil {
		t.Fatalf("round-trip parse of %q: %v", line, err)
	}
	if len(asg.Values) != p.NumVars {
		t.Fatalf("round-trip lost variables: %d vs %d", len(asg.Values), p.NumVars)
	}
	for v := range asg.Values {
		if asg.Values[v] != res.Values[v] {
			t.Fatalf("value of %s changed across round-trip", p.VarName(pb.Var(v)))
		}
	}
}

func TestParseWBO(t *testing.T) {
	in, err := ParseWBO(strings.NewReader(`* soft OPB example
soft: 11 ;
[2] +1 x1 +1 x2 >= 2 ;
[3] +1 x3 = 0 ;
+1 x1 +1 x3 >= 1 ;
`))
	if err != nil {
		t.Fatal(err)
	}
	if in.NumVars != 3 || len(in.Hard) != 1 || len(in.Soft) != 2 {
		t.Fatalf("vars=%d hard=%d soft=%d want 3/1/2", in.NumVars, len(in.Hard), len(in.Soft))
	}
	if in.Soft[0].Weight != 2 || in.Soft[1].Weight != 3 || in.Soft[1].Cmp != pb.EQ {
		t.Fatalf("soft constraints mis-parsed: %+v", in.Soft)
	}
	if in.Names[0] != "x1" || in.Names[2] != "x3" {
		t.Fatalf("names %v", in.Names)
	}
	// x1=1,x2=1,x3=0 satisfies everything: optimum 0.
	res := wbo.Solve(in, wbo.Options{})
	if res.Status != core.StatusOptimal || res.Best != 0 {
		t.Fatalf("got %v/%d want optimal/0", res.Status, res.Best)
	}
}

func TestParseWBOObjectiveBecomesUnitSofts(t *testing.T) {
	// min: +2 x1 -3 x2 ⟹ pay 2 when x1, pay 3 when ¬x2, offset −3.
	in, err := ParseWBO(strings.NewReader(`soft: 100 ;
min: +2 x1 -3 x2 ;
+1 x1 +1 x2 >= 1 ;
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Soft) != 2 || in.Offset != -3 {
		t.Fatalf("soft=%d offset=%d want 2/-3", len(in.Soft), in.Offset)
	}
	res := wbo.Solve(in, wbo.Options{})
	// Optimum x1=0, x2=1: cost 0 + offset −3.
	if res.Status != core.StatusOptimal || res.Best != -3 {
		t.Fatalf("got %v/%d want optimal/-3", res.Status, res.Best)
	}
}

func TestParseWBOErrors(t *testing.T) {
	cases := []struct{ text, sub string }{
		{"[2] +1 x1 >= 1 ;\n", "missing \"soft:\" header"},
		{"soft: 5 ;\n[5] +1 x1 >= 1 ;\n", "not below the top cost"},
		{"soft: 5 ;\n[0] +1 x1 >= 1 ;\n", "positive integer"},
		{"soft: 5 ;\n[2 +1 x1 >= 1 ;\n", "unterminated weight prefix"},
		{"soft: 5 ;\n+1 x1 ;\n", "without relational operator"},
		{"soft: 5 ;\nmax: +1 x1 ;\n", "not supported"},
		{"soft: 5 ;\n+1 1bad >= 1 ;\n", "bad variable name"},
		{"soft: 5 ;\n+1 ~ >= 1 ;\n", `wbo: line 2: wbo: bad variable name ""`},
		{"soft: 5 ;\nmin: +1 x1 >= 1 ;\n", `wbo: line 2: wbo: bad variable name ">="`},
		{"soft: 5 ;\n+1 >= 1 ;\n", "wbo: line 2: coefficient 1 without literal"},
		{"soft: 5 ;\n+1 x1 >= one ;\n", `wbo: line 2: bad right-hand side "one"`},
		{"soft: 5 ;\n+1 x1\n >= 1 2\n;\n", "wbo: line 4: expected single right-hand side, got [1 2]"},
		{"soft: 5 ;\nmin: +1 x1 ;\nmin: +1 x1 ;\n", "wbo: line 3: duplicate objective"},
		{"soft: 5 ;\nsoft: 5 ;\n", "wbo: line 2: duplicate soft: header"},
		{"soft: 5 3 ;\n", "wbo: line 1: bad soft: header [soft: 5 3]"},
		{"soft: x ;\n", `wbo: line 1: bad top cost "x"`},
		{"soft: 5 ;\n[x] +1 x1 >= 1 ;\n", `wbo: line 2: soft weight must be a positive integer, got "x"`},
	}
	for _, tc := range cases {
		_, err := ParseWBO(strings.NewReader(tc.text))
		if err == nil || !strings.Contains(err.Error(), tc.sub) {
			t.Errorf("%q: err=%v want substring %q", tc.text, err, tc.sub)
		}
	}
}

func TestParseWBOTopZeroMeansNoLimit(t *testing.T) {
	// "soft: ;" (no cost given) allows arbitrary soft weights.
	in, err := ParseWBO(strings.NewReader("soft: ;\n[1000000] +1 x1 >= 1 ;\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Soft) != 1 || in.Soft[0].Weight != 1000000 {
		t.Fatalf("soft=%+v", in.Soft)
	}
}

// TestGrammarSplit pins the two grammar differences between the readers:
// in OPB a coefficient followed by several literals is one product term,
// while soft OPB reads a bare literal as an implicit +1 term and has no
// products.
func TestGrammarSplit(t *testing.T) {
	p, err := opb.ParseString("+1 x1 x2 >= 1 ;")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVars != 3 || p.Names[2] != "_p2" || len(p.Constraints) != 4 || len(p.Constraints[0].Terms) != 1 {
		t.Fatalf("OPB: want the product x1·x2 as one term on _p2 and its 3 defining clauses, got %d vars %v\n%s",
			p.NumVars, p.Names, opb.WriteString(p))
	}
	in, err := ParseWBO(strings.NewReader("soft: 5 ;\n+1 x1 x2 >= 1 ;\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.PosLit(1)}}
	if in.NumVars != 2 || len(in.Hard) != 1 || !slices.Equal(in.Hard[0].Terms, want) {
		t.Fatalf("soft OPB: want two +1 terms, got %d vars %+v", in.NumVars, in.Hard)
	}
}
