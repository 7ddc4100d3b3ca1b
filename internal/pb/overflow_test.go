package pb

import (
	"errors"
	"math"
	"testing"
)

func TestCheckedHelpers(t *testing.T) {
	if v, ok := addOK(math.MaxInt64, 1); ok {
		t.Fatalf("addOK(MaxInt64,1) = %d, want overflow", v)
	}
	if v, ok := addOK(math.MinInt64, -1); ok {
		t.Fatalf("addOK(MinInt64,-1) = %d, want overflow", v)
	}
	if v, ok := addOK(3, 4); !ok || v != 7 {
		t.Fatalf("addOK(3,4) = %d,%v", v, ok)
	}
	if v, ok := subOK(math.MinInt64, 1); ok {
		t.Fatalf("subOK(MinInt64,1) = %d, want overflow", v)
	}
	if v, ok := subOK(0, math.MinInt64); ok {
		t.Fatalf("subOK(0,MinInt64) = %d, want overflow", v)
	}
	if _, ok := negOK(math.MinInt64); ok {
		t.Fatal("negOK(MinInt64) should overflow")
	}
	if satAdd(math.MaxInt64, math.MaxInt64) != math.MaxInt64 {
		t.Fatal("satAdd should clamp high")
	}
	if satAdd(math.MinInt64, math.MinInt64) != math.MinInt64 {
		t.Fatal("satAdd should clamp low")
	}
	if _, err := CheckedAdd(math.MaxInt64, math.MaxInt64); !errors.Is(err, ErrOverflow) {
		t.Fatal("CheckedAdd should report ErrOverflow")
	}
	if _, err := CheckedSub(math.MinInt64, 1); !errors.Is(err, ErrOverflow) {
		t.Fatal("CheckedSub should report ErrOverflow")
	}
	if _, err := CheckedNeg(math.MinInt64); !errors.Is(err, ErrOverflow) {
		t.Fatal("CheckedNeg should report ErrOverflow")
	}
}

// Duplicate-literal merging used to wrap: +MaxInt64 x1 +MaxInt64 x1 >= 1
// silently became a small (or negative) coefficient. normalize must
// reject it with ErrOverflow.
func TestNormalizeCheckedOverflow(t *testing.T) {
	huge := int64(math.MaxInt64)
	cases := []struct {
		name  string
		terms []Term
		rhs   int64
	}{
		{"dup positive", []Term{{huge, PosLit(0)}, {huge, PosLit(0)}}, 1},
		{"neg flip rhs", []Term{{huge, NegLit(0)}, {huge, NegLit(1)}}, math.MinInt64 + 2},
		{"coef sum", []Term{{huge, PosLit(0)}, {huge, PosLit(1)}}, huge},
	}
	for _, c := range cases {
		if _, err := normalize(c.terms, c.rhs, false); !errors.Is(err, ErrOverflow) {
			t.Errorf("%s: got err=%v, want ErrOverflow", c.name, err)
		}
	}
	// Sanity: moderate inputs still normalize as mustNormalize does.
	got, err := normalize([]Term{{2, PosLit(0)}, {-3, PosLit(1)}}, 1, false)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	want := mustNormalize([]Term{{2, PosLit(0)}, {-3, PosLit(1)}}, 1)
	if got.String() != want.String() {
		t.Fatalf("normalize=%v want %v", got, want)
	}
}

func TestAddConstraintOverflow(t *testing.T) {
	p := NewProblem(2)
	err := p.AddConstraint([]Term{{math.MaxInt64, PosLit(0)}, {math.MaxInt64, PosLit(0)}}, GE, 1)
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("GE dup: err=%v, want ErrOverflow", err)
	}
	// ≤ path negates coefficients; MinInt64 cannot be negated.
	err = p.AddConstraint([]Term{{math.MinInt64, PosLit(0)}}, LE, 0)
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("LE MinInt64 coef: err=%v, want ErrOverflow", err)
	}
	err = p.AddConstraint([]Term{{1, PosLit(0)}}, LE, math.MinInt64)
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("LE MinInt64 rhs: err=%v, want ErrOverflow", err)
	}
}

func TestValidateObjectiveOverflow(t *testing.T) {
	p := NewProblem(2)
	p.SetCost(0, math.MaxInt64)
	p.SetCost(1, math.MaxInt64)
	if err := p.Validate(); !errors.Is(err, ErrOverflow) {
		t.Fatalf("Validate: err=%v, want ErrOverflow", err)
	}
	// ObjectiveValue on the same (invalid) problem saturates, never wraps.
	if got := p.ObjectiveValue([]bool{true, true}); got != math.MaxInt64 {
		t.Fatalf("ObjectiveValue saturated = %d, want MaxInt64", got)
	}
	if got := p.TotalCost(); got != math.MaxInt64 {
		t.Fatalf("TotalCost saturated = %d, want MaxInt64", got)
	}
}
