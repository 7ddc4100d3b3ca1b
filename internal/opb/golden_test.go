package opb_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/opb"
	"repro/internal/pb"
	"repro/internal/wbo"
	"repro/internal/wcnf"
)

var update = flag.Bool("update", false, "rewrite testdata/parse.golden")

// parseInput is one text the golden test and BenchmarkParse feed to a
// reader: plain OPB (opb.Parse) or soft OPB (wcnf.ParseWBO).
type parseInput struct {
	name string
	text []byte
	soft bool
}

// table1Texts returns the 40 Table 1 rows of harness.Instances, each written
// as OPB text: what bsolo reads for the paper's table.
func table1Texts(tb testing.TB) []parseInput {
	tb.Helper()
	rows, err := harness.Instances(harness.Families(), harness.DefaultScale())
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]parseInput, len(rows))
	for i, r := range rows {
		out[i] = parseInput{name: r.Name, text: []byte(opb.WriteString(r.Prob))}
	}
	return out
}

// wboTexts returns generated weighted instances written as soft OPB, plus
// one hand-written text that uses the objective line, bare literals (an
// implicit +1), negated literals and "soft: ;" with no top cost.
func wboTexts(tb testing.TB) []parseInput {
	tb.Helper()
	var out []parseInput
	for k, vars := range []int{6, 12, 18, 24, 30} {
		in, err := gen.WBO(gen.WBOConfig{Vars: vars, Seed: int64(1000*k + 7)})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, parseInput{name: fmt.Sprintf("wbo-%d-%d", vars, k+1), text: writeSoftOPB(in), soft: true})
	}
	out = append(out, parseInput{name: "wbo-handwritten", soft: true, text: []byte(`* soft OPB with every extension
soft: ;
min: +2 x1 -3 ~x2 x3 ;
[4] x1 ~x2 >= 1 ;
[7] +2 x4
   -1 x1 <= 1 ;
+1 x2 +1 x3 +1 x4 = 2 ; [1] +1 y_5 >= 1 ;
`)})
	return out
}

// writeSoftOPB renders in as soft OPB: a "soft: <top> ;" header with top one
// above the total soft weight, hard rows as plain OPB and soft rows behind
// their "[weight]" prefix.
func writeSoftOPB(in *wbo.Instance) []byte {
	var b bytes.Buffer
	top := int64(1)
	for _, s := range in.Soft {
		top += s.Weight
	}
	row := func(terms []pb.Term, cmp pb.Cmp, rhs int64) {
		for _, t := range terms {
			neg := ""
			if t.Lit.IsNeg() {
				neg = "~"
			}
			fmt.Fprintf(&b, " %+d %sx%d", t.Coef, neg, int(t.Lit.Var())+1)
		}
		fmt.Fprintf(&b, " %s %d ;\n", cmp, rhs)
	}
	fmt.Fprintf(&b, "soft: %d ;\n", top)
	for _, h := range in.Hard {
		row(h.Terms, h.Cmp, h.Rhs)
	}
	for _, s := range in.Soft {
		fmt.Fprintf(&b, "[%d]", s.Weight)
		row(s.Terms, s.Cmp, s.Rhs)
	}
	return b.Bytes()
}

// goldenInputs is every text the golden test pins: the committed OPB files,
// the fuzz-corpus reproducers, the Table 1 rows and the soft-OPB texts.
func goldenInputs(t *testing.T) []parseInput {
	var out []parseInput
	for _, pattern := range []string{"*.opb", "fuzz-corpus/*.opb"} {
		files, err := filepath.Glob(filepath.Join("..", "..", "testdata", pattern))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(files)
		for _, f := range files {
			text, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, parseInput{name: filepath.ToSlash(strings.TrimPrefix(f, filepath.Join("..", "..")+string(filepath.Separator))), text: text})
		}
	}
	out = append(out, table1Texts(t)...)
	return append(out, wboTexts(t)...)
}

// render is the parsed form of one input as text: for plain OPB the
// problem's OPB rendering, its Names and CostOffset; for soft OPB every
// field of the wbo.Instance. A rejected input renders as its error.
func render(in parseInput) string {
	var b strings.Builder
	if !in.soft {
		p, err := opb.Parse(bytes.NewReader(in.text))
		if err != nil {
			return "error: " + err.Error()
		}
		fmt.Fprintf(&b, "offset %d\nnames %q\n%s", p.CostOffset, p.Names, opb.WriteString(p))
		return b.String()
	}
	w, err := wcnf.ParseWBO(bytes.NewReader(in.text))
	if err != nil {
		return "error: " + err.Error()
	}
	fmt.Fprintf(&b, "vars %d offset %d\nnames %q\n", w.NumVars, w.Offset, w.Names)
	for _, h := range w.Hard {
		fmt.Fprintf(&b, "hard %v %s %d\n", h.Terms, h.Cmp, h.Rhs)
	}
	for _, s := range w.Soft {
		fmt.Fprintf(&b, "soft %d %v %s %d\n", s.Weight, s.Terms, s.Cmp, s.Rhs)
	}
	return b.String()
}

// TestGoldenParse pins the parse of every committed and generated input:
// one line per input with a SHA-256 of its rendering, so any change to a
// parsed problem (term order, names, offset, soft rows) or to an error
// message fails here. Regenerate with -update only for a deliberate change
// of the readers' output.
func TestGoldenParse(t *testing.T) {
	var got strings.Builder
	for _, in := range goldenInputs(t) {
		r := render(in)
		head, _, _ := strings.Cut(r, "\n")
		if !strings.HasPrefix(r, "error: ") {
			head = fmt.Sprintf("%d lines", strings.Count(r, "\n"))
		}
		fmt.Fprintf(&got, "%s sha256=%x %s\n", in.name, sha256.Sum256([]byte(r)), head)
	}
	path := filepath.Join("testdata", "parse.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d inputs, golden has %d", path, len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("parse changed:\n got: %s\nwant: %s", gotLines[i], wantLines[i])
		}
	}
}
