// The race detector's sync.Pool drops pooled objects at random, so
// allocation counts are meaningful only without it.

//go:build !race

package opb_test

import (
	"bytes"
	"testing"

	"repro/internal/harness"
	"repro/internal/opb"
)

// TestParseAllocs pins the allocations of parsing one Table 1 row to
// O(constraints + variables): each stored constraint owns its struct and its
// term slice, each variable its name, and the rest is a constant number of
// tables per parse. A reader that allocates per token (a string per line or
// per field, a map per row) exceeds the bound many times over.
func TestParseAllocs(t *testing.T) {
	sc := harness.DefaultScale()
	sc.PerFamily = 1
	rows, err := harness.Instances([]harness.Family{harness.FamilyAcc}, sc)
	if err != nil {
		t.Fatal(err)
	}
	text := []byte(opb.WriteString(rows[0].Prob))
	p, err := opb.Parse(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	bound := 2*len(p.Constraints) + 2*p.NumVars + 64
	got := testing.AllocsPerRun(5, func() {
		if _, err := opb.Parse(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%s: %d constraints, %d variables, %.0f allocations (bound %d)",
		rows[0].Name, len(p.Constraints), p.NumVars, got, bound)
	if got > float64(bound) {
		t.Fatalf("parsing %s allocated %.0f times, want at most 2·(constraints + variables) + 64 = %d",
			rows[0].Name, got, bound)
	}
}
