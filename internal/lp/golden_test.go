package lp

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// goldenHasher accumulates the exact bits of a sequence of solutions:
// status, objective, every X, Slack and Dual value (math.Float64bits, so
// even the sign of a zero counts), the iteration count and the warm flag.
type goldenHasher struct {
	buf [8]byte
	h   hash.Hash64
}

func newGoldenHasher() *goldenHasher { return &goldenHasher{h: fnv.New64a()} }

func (g *goldenHasher) word(u uint64) {
	binary.LittleEndian.PutUint64(g.buf[:], u)
	g.h.Write(g.buf[:])
}

func (g *goldenHasher) floats(v []float64) {
	g.word(uint64(len(v)))
	for _, x := range v {
		g.word(math.Float64bits(x))
	}
}

func (g *goldenHasher) add(sol Solution) {
	g.word(uint64(sol.Status))
	g.word(math.Float64bits(sol.Objective))
	g.floats(sol.X)
	g.floats(sol.Slack)
	g.floats(sol.Dual)
	g.word(uint64(sol.Iterations))
	if sol.Warm {
		g.word(1)
	} else {
		g.word(0)
	}
}

// fixedCoveringLPs is a branch-and-bound-like chain of primal covering LPs
// with 0/1 bounds, some variables fixed at 1 and some at 0, solved cold: it
// exercises phase 1, nonbasic columns at a nonzero value and the negated
// rows of the slack-basis crash.
func fixedCoveringLPs(seed int64, n, m, steps int) []*Problem {
	rng := rand.New(rand.NewSource(seed))
	base := coveringLP(rng, n, m)
	var probs []*Problem
	for s := 0; s < steps; s++ {
		q := *base
		q.Lo = make([]float64, n)
		q.Hi = make([]float64, n)
		for j := 0; j < n; j++ {
			q.Hi[j] = 1
			switch rng.Intn(8) {
			case 0:
				q.Lo[j] = 1
			case 1:
				q.Hi[j] = 0
			}
		}
		probs = append(probs, &q)
	}
	return probs
}

// TestGoldenBits pins the exact bits every solve returns on four fixed
// sequences — the LPR node chain solved warm through one Workspace, the
// same problems solved cold, a chain that appends one y column per step as
// cut installation does, and primal covering LPs with fixed variables — so
// that a change to the simplex arithmetic fails here rather than only in
// end-to-end determinism checks. Optimizations of the tableau must leave
// every constant unchanged.
func TestGoldenBits(t *testing.T) {
	warmChain := func(probs []*Problem, vks, rks [][]int64) func(*goldenHasher) error {
		return func(g *goldenHasher) error {
			var w Workspace
			for k, p := range probs {
				sol, err := w.SolveWarm(p, vks[k], rks[k])
				if err != nil {
					return err
				}
				g.add(sol)
			}
			return nil
		}
	}
	coldChain := func(probs []*Problem) func(*goldenHasher) error {
		return func(g *goldenHasher) error {
			for _, p := range probs {
				sol, err := Solve(p)
				if err != nil {
					return err
				}
				g.add(sol)
			}
			return nil
		}
	}
	nodeProbs, nodeVKs, nodeRKs := lprNodeSequence(21, 40, 60, 30)
	growProbs, growVKs, growRKs := lprGrowingSequence(11, 20, 30, 60)
	cases := []struct {
		name string
		run  func(*goldenHasher) error
		want uint64
	}{
		{"node-chain-warm", warmChain(nodeProbs, nodeVKs, nodeRKs), 0xcda2d5435f0e8dab},
		{"node-chain-cold", coldChain(nodeProbs), 0xb72395156454c2f4},
		{"growing-chain-warm", warmChain(growProbs, growVKs, growRKs), 0xeea312e8cd001cff},
		{"covering-fixed-cold", coldChain(fixedCoveringLPs(3, 40, 60, 25)), 0x6e06fb7f4446095d},
	}
	for _, c := range cases {
		g := newGoldenHasher()
		if err := c.run(g); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := g.h.Sum64(); got != c.want {
			t.Errorf("%s: solution bits hash to %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
