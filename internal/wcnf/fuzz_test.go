package wcnf

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pb"
	"repro/internal/wbo"
)

// FuzzWCNFParse exercises the WCNF reader with hostile input: it must never
// panic, every accepted instance must validate and compile through
// soft.Builder, and on tiny instances the core-guided optimum must match the
// brute-force optimum of the compiled problem. (Run with
// `go test -fuzz=FuzzWCNFParse ./internal/wcnf` for a live session; the seed
// corpus runs in ordinary `go test`.)
func FuzzWCNFParse(f *testing.F) {
	seeds := []string{
		"p wcnf 2 2 9\n9 1 2 0\n4 -1 0\n",
		"p wcnf 2 2\n7 1 0\n9 -1 2 0\n",
		"p wcnf 1 2 9\n9 0\n1 1 0\n",
		"p wcnf 1 1 9\n3 0\n",
		"p wcnf 2 2 9\n9 1 1 2 0\n4 1 -1 0\n",
		"p wcnf 3 1 9\n9 1\n2 3 0\n",
		"c comment\np wcnf 1 1 5\n5 1 0\n",
		"p wcnf 1 1 5\n0 1 0\n",
		"p wcnf 1 1 5\n9223372036854775807 1 0\n",
		"p wcnf 1 1\n",
		"p wcnf 0 0 2\n",
		"p cnf 1 1\n1 0\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		in, err := Parse(strings.NewReader(input))
		if err != nil {
			return // rejected: fine
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("accepted instance fails validation: %v\ninput: %q", err, input)
		}
		b, err := in.Builder()
		if err != nil {
			// Compilation may legitimately refuse (e.g. big-M overflow on
			// near-MaxInt64 weights); it must do so with an error, not a
			// panic, and the core-guided path must refuse identically.
			res := wbo.Solve(in, wbo.Options{MaxConflicts: 1000})
			if res.Status != core.StatusError {
				t.Fatalf("Builder rejected (%v) but core-guided returned %v\ninput: %q",
					err, res.Status, input)
			}
			return
		}
		p, err := b.Problem()
		if err != nil {
			t.Fatalf("builder compiled but Problem failed: %v\ninput: %q", err, input)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("compiled problem fails validation: %v\ninput: %q", err, input)
		}
		if p.NumVars > 12 || len(in.Soft) > 6 {
			return // keep the differential cheap
		}
		ref := pb.BruteForce(p)
		res := wbo.Solve(in, wbo.Options{MaxConflicts: 200000})
		switch {
		case !ref.Feasible:
			if !res.HardUnsat {
				t.Fatalf("brute force says hard-UNSAT, core-guided says %v\ninput: %q",
					res.Status, input)
			}
		case res.Status == core.StatusOptimal:
			want := ref.Optimum + in.Offset
			if res.Best != want {
				t.Fatalf("core-guided optimum %d, brute force %d\ninput: %q",
					res.Best, want, input)
			}
			penalty, _ := in.Penalty(res.Values)
			if penalty+in.Offset != res.Best {
				t.Fatalf("witness penalty %d does not match claimed optimum %d\ninput: %q",
					penalty+in.Offset, res.Best, input)
			}
		}
	})
}
