package fuzz

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/opb"
	"repro/internal/pb"
)

// FuzzDifferential mutates raw OPB text: every input that parses within the
// oracle gates is run through the full differential matrix, and any mismatch
// is shrunk before failing so the reported instance is already minimal.
func FuzzDifferential(f *testing.F) {
	f.Add("min: +3 a +1 b ;\n+1 a +1 b >= 1 ;")
	f.Add("min: -5 a +1 b ;\n+1 a +1 b >= 1 ;\n+2 a +1 ~b <= 2 ;")
	f.Add("min: +1 x1 +2 x2 +3 x3 ;\n+1 x1 +1 x2 +1 x3 = 2 ;\n+2 x1 -1 x2 >= 0 ;")
	f.Add("+1 a >= 1 ;\n+1 ~a >= 1 ;")
	for _, seed := range []int64{1, 7, 42} {
		f.Add(gen.AdversarialOPB(gen.AdversarialConfig{Seed: seed}))
	}
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 4096 {
			return // cap parse work on giant mutated blobs
		}
		p, err := opb.ParseString(text)
		if err != nil {
			return // structured rejection is fine; panics are caught by the fuzzer
		}
		ms := Check(p, 20_000)
		if len(ms) == 0 {
			return
		}
		t.Fatalf("differential mismatch (shrunk):\n%s", Describe(ShrinkFailure(p, ms, 20_000)))
	})
}

// TestAdversarialDifferential is the always-on slice of the fuzzer: a fixed
// fan of adversarial seeds through the full matrix on every `go test` run.
func TestAdversarialDifferential(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 12
	}
	for seed := int64(0); seed < int64(n); seed++ {
		cfg := gen.AdversarialConfig{Seed: seed}
		if seed%3 == 1 {
			cfg.Vars, cfg.Rows = 8, 8
		}
		text := gen.AdversarialOPB(cfg)
		ms, ok := CheckText(text, 20_000)
		if !ok {
			continue // parser rejected (overflow &c.) — a valid outcome
		}
		if len(ms) != 0 {
			p, _ := opb.ParseString(text)
			t.Fatalf("seed %d: differential mismatch (shrunk):\n%s",
				seed, Describe(ShrinkFailure(p, ms, 20_000)))
		}
	}
}

// TestCheckGates: oversized instances are skipped, not solved.
func TestCheckGates(t *testing.T) {
	p := pb.NewProblem(MaxVars + 1)
	if ms := Check(p, 0); ms != nil {
		t.Fatalf("oversized instance must be gated, got %v", ms)
	}
	if _, ok := CheckText("this is not opb", 0); ok {
		t.Fatal("parse failure must report ok=false")
	}
}

// TestShrinkMinimizes: the shrinker must reduce an instance to a minimal
// form under a deterministic predicate, and every candidate it accepts must
// itself satisfy the predicate (greedy invariant).
func TestShrinkMinimizes(t *testing.T) {
	p, err := opb.ParseString(
		"min: +4 a +3 b +2 c ;\n" +
			"+3 a +2 b +1 c >= 4 ;\n" +
			"+1 a +1 b >= 1 ;\n" +
			"+2 b +2 c >= 2 ;")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	// Predicate: some constraint still mentions variable 0 ("a").
	pred := func(q *pb.Problem) bool {
		calls++
		for _, c := range q.Constraints {
			for _, tm := range c.Terms {
				if tm.Lit.Var() == 0 {
					return true
				}
			}
		}
		return false
	}
	small := Shrink(p, pred)
	if calls == 0 {
		t.Fatal("predicate never called")
	}
	if !pred(small) {
		t.Fatal("shrunk instance no longer satisfies the predicate")
	}
	// Minimal form: exactly one constraint, one term (on a), degree 1,
	// coefficient 1, no costs.
	if len(small.Constraints) != 1 {
		t.Fatalf("constraints=%d want 1:\n%s", len(small.Constraints), opb.WriteString(small))
	}
	c := small.Constraints[0]
	if len(c.Terms) != 1 || c.Terms[0].Lit.Var() != 0 || c.Terms[0].Coef != 1 || c.Degree != 1 {
		t.Fatalf("not minimal: %+v", c)
	}
	for v, cost := range small.Cost {
		if cost != 0 {
			t.Fatalf("cost[%d]=%d not shrunk away", v, cost)
		}
	}
}

// TestShrinkFailureKeepsIntermittentMismatch: a mismatch that fires once
// during shrinking and never again must still reach the report, attached to
// the instance it fired on.
func TestShrinkFailureKeepsIntermittentMismatch(t *testing.T) {
	p, err := opb.ParseString("min: +2 a +1 b ;\n+1 a +1 b >= 1 ;\n+1 a >= 1 ;")
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	flaky := func(q *pb.Problem) []Mismatch {
		if fired {
			return nil
		}
		fired = true
		return []Mismatch{{Config: "racy", Detail: "once"}}
	}
	orig := []Mismatch{{Config: "racy", Detail: "first"}}
	small, ms := shrinkFailure(p, orig, flaky)
	if len(small.Constraints) >= len(p.Constraints) {
		t.Fatalf("the one firing should have been accepted as a shrink step")
	}
	if len(ms) != 1 || ms[0].Detail != "once" {
		t.Fatalf("mismatches %v, want the one from the last firing", ms)
	}
	if !strings.Contains(Describe(small, ms), "* mismatch racy: once") {
		t.Fatalf("report lost the mismatch:\n%s", Describe(small, ms))
	}
	// No firing at all: the caller's mismatches describe the unshrunk input.
	small, ms = shrinkFailure(p, orig, func(*pb.Problem) []Mismatch { return nil })
	if small != p || len(ms) != 1 || ms[0].Detail != "first" {
		t.Fatalf("without a firing want the input and its mismatches, got %v", ms)
	}
}

// TestAdversarialOPBShapes: the generator must exercise its advertised
// hostile shapes across a seed range — negations, duplicates, all three
// operators, negative coefficients — and stay within the fuzz gates.
func TestAdversarialOPBShapes(t *testing.T) {
	var sawNeg, sawTilde, sawLE, sawEQ, parsed int
	for seed := int64(0); seed < 200; seed++ {
		text := gen.AdversarialOPB(gen.AdversarialConfig{Seed: seed})
		for i := 0; i+1 < len(text); i++ {
			switch {
			case text[i] == '~':
				sawTilde++
			case text[i] == '<' && text[i+1] == '=':
				sawLE++
			case text[i] == '=' && text[i+1] == ' ' && i > 0 && text[i-1] == ' ':
				sawEQ++
			case text[i] == ' ' && text[i+1] == '-':
				sawNeg++
			}
		}
		p, err := opb.ParseString(text)
		if err != nil {
			continue // overflow rejection path — intended
		}
		parsed++
		if p.NumVars > MaxVars {
			t.Fatalf("seed %d: %d vars exceeds the fuzz gate %d", seed, p.NumVars, MaxVars)
		}
	}
	if sawNeg == 0 || sawTilde == 0 || sawLE == 0 || sawEQ == 0 {
		t.Fatalf("generator missing shapes: neg=%d tilde=%d le=%d eq=%d", sawNeg, sawTilde, sawLE, sawEQ)
	}
	if parsed < 100 {
		t.Fatalf("only %d/200 seeds parse; generator too hostile to be useful", parsed)
	}
}
