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

// unsortedCoveringLPs is a chain of primal covering LPs, solved cold, whose
// rows list their entries out of column order, some columns twice (once
// cancelling to zero), with fractional coefficients, fractional and unit
// lower bounds and some zero and negative-zero right-hand sides. The
// slack-basis crash sums each row's residual over the row's own columns; with
// nonzero start values the order of that sum matters, and this chain pins
// that it comes out bitwise as a column-order loop over every variable
// leaves it. The larger steps run past the periodic refresh of the basic
// solution.
func unsortedCoveringLPs(seed int64, steps int) []*Problem {
	rng := rand.New(rand.NewSource(seed))
	var probs []*Problem
	for s := 0; s < steps; s++ {
		n, m := 30+rng.Intn(40), 40+rng.Intn(60)
		if s%4 == 3 {
			n, m = 240, 320
		}
		p := &Problem{NumVars: n, Cost: make([]float64, n), Lo: make([]float64, n), Hi: make([]float64, n)}
		for j := 0; j < n; j++ {
			p.Cost[j] = float64(1+rng.Intn(20)) / 4
			p.Hi[j] = 1
			switch rng.Intn(16) {
			case 0, 1:
				p.Lo[j] = 1
			case 2, 3, 4, 5:
				p.Lo[j] = rng.Float64() / 2
			case 6:
				p.Hi[j] = 0
			}
		}
		for i := 0; i < m; i++ {
			var ents []Entry
			for j := 0; j < n; j++ {
				if rng.Intn(n) >= 8 {
					continue
				}
				c := 0.5 + 2.5*rng.Float64()
				switch rng.Intn(8) {
				case 0:
					part := c * rng.Float64()
					ents = append(ents, Entry{j, part}, Entry{j, c - part})
				case 1:
					ents = append(ents, Entry{j, c}, Entry{j, -c})
				default:
					ents = append(ents, Entry{j, c})
				}
			}
			if len(ents) == 0 {
				ents = []Entry{{rng.Intn(n), 1}}
			}
			rng.Shuffle(len(ents), func(a, b int) { ents[a], ents[b] = ents[b], ents[a] })
			rhs := 0.5 * float64(rng.Intn(5))
			if rhs == 0 && rng.Intn(2) == 0 {
				rhs = math.Copysign(0, -1)
			}
			p.Rows = append(p.Rows, Row{Entries: ents, RHS: rhs})
		}
		probs = append(probs, p)
	}
	return probs
}

// boxedLPs is a chain of LPs, solved cold, with negative, −0, fractional
// and zero lower bounds, upper bounds above 1, coefficients of both signs
// and negative right-hand sides: start values the slack-basis crash sums in
// column order over each row's own columns.
func boxedLPs(seed int64, steps int) []*Problem {
	rng := rand.New(rand.NewSource(seed))
	var probs []*Problem
	for s := 0; s < steps; s++ {
		n, m := 20+rng.Intn(150), 20+rng.Intn(200)
		p := &Problem{NumVars: n, Cost: make([]float64, n), Lo: make([]float64, n), Hi: make([]float64, n)}
		for j := 0; j < n; j++ {
			p.Cost[j] = rng.Float64()*4 - 1
			switch rng.Intn(5) {
			case 0:
				p.Lo[j], p.Hi[j] = -1-rng.Float64(), 1
			case 1:
				p.Lo[j], p.Hi[j] = math.Copysign(0, -1), 2
			case 2:
				p.Lo[j], p.Hi[j] = 0.5, 3
			default:
				p.Hi[j] = 1
			}
		}
		for i := 0; i < m; i++ {
			var ents []Entry
			for j := 0; j < n; j++ {
				if rng.Intn(n) < 6 {
					ents = append(ents, Entry{j, rng.Float64()*4 - 1.5})
				}
			}
			if len(ents) == 0 {
				ents = []Entry{{rng.Intn(n), 1}}
			}
			p.Rows = append(p.Rows, Row{Entries: ents, RHS: rng.Float64()*2 - 1.5})
		}
		probs = append(probs, p)
	}
	return probs
}

// TestGoldenBits pins the exact bits every solve returns on six fixed
// sequences — the LPR node chain solved warm through one Workspace, the
// same problems solved cold, a chain that appends one y column per step as
// cut installation does, primal covering LPs with fixed variables,
// covering LPs with unsorted and duplicate row entries, and boxed LPs with
// negative and −0 lower bounds — so that a change to the simplex arithmetic
// fails here rather than only in end-to-end determinism checks.
// Optimizations of the tableau must leave every constant unchanged.
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
		{"covering-unsorted-cold", coldChain(unsortedCoveringLPs(17, 24)), 0xebd729c44ea74d38},
		{"boxed-cold", coldChain(boxedLPs(5, 12)), 0x71112d17752684e6},
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
