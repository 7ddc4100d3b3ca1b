package lp

import (
	"math"
	"math/rand"
	"testing"
)

func coveringLP(rng *rand.Rand, n, m int) *Problem {
	p := &Problem{NumVars: n, Cost: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.Cost[j] = float64(1 + rng.Intn(20))
	}
	for i := 0; i < m; i++ {
		var ents []Entry
		for j := 0; j < n; j++ {
			if rng.Intn(6) == 0 {
				ents = append(ents, Entry{j, float64(1 + rng.Intn(3))})
			}
		}
		if len(ents) == 0 {
			ents = []Entry{{rng.Intn(n), 1}}
		}
		p.Rows = append(p.Rows, Row{Entries: ents, RHS: float64(1 + rng.Intn(2))})
	}
	return p
}

// BenchmarkSimplexCovering measures the primal simplex on covering LPs of
// the size the LPR estimator meets at search nodes.
func BenchmarkSimplexCovering(b *testing.B) {
	for _, size := range []struct{ n, m int }{{50, 80}, {150, 250}, {300, 500}} {
		rng := rand.New(rand.NewSource(4))
		p := coveringLP(rng, size.n, size.m)
		b.Run(benchName(size.n, size.m), func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				sol, err := Solve(p)
				if err != nil || sol.Status != Optimal {
					b.Fatalf("status=%v err=%v", sol.Status, err)
				}
				iters += sol.Iterations
			}
			b.ReportMetric(float64(iters)/float64(b.N), "simplex-iters/op")
		})
	}
}

// lprNodeSequence builds the LP sequence an LPR estimator meets walking down
// a branch: a dual-shaped base problem followed by cumulative small
// perturbations (a row disappears when its variable is assigned, costs and
// RHS drift as degree clipping changes). Perturbations only weaken y rewards
// and degrees, so every problem in the chain stays bounded.
func lprNodeSequence(seed int64, m, n, steps int) (probs []*Problem, varKeys, rowKeys [][]int64) {
	rng := rand.New(rand.NewSource(seed))
	p := dualLPLike(rng, m, n)
	vk, rk := keysFor(p)
	probs = append(probs, p)
	varKeys = append(varKeys, vk)
	rowKeys = append(rowKeys, rk)
	for s := 0; s < steps; s++ {
		q := &Problem{NumVars: p.NumVars, Cost: append([]float64(nil), p.Cost...),
			Lo: p.Lo, Hi: p.Hi}
		qvk := append([]int64(nil), vk...)
		qrk := append([]int64(nil), rk...)
		for _, r := range p.Rows {
			q.Rows = append(q.Rows, Row{Entries: append([]Entry(nil), r.Entries...), RHS: r.RHS})
		}
		switch rng.Intn(4) {
		case 0:
			if len(q.Rows) > n/2 {
				i := rng.Intn(len(q.Rows))
				// Dropping row i removes column mass from every y it carries;
				// weaken those rewards by the lost coefficient so d ≤ Σ G
				// (boundedness) is preserved.
				for _, e := range q.Rows[i].Entries {
					if e.Var < m {
						q.Cost[e.Var] += -e.Coef // e.Coef is negative: reward shrinks
					}
				}
				q.Rows = append(q.Rows[:i], q.Rows[i+1:]...)
				qrk = append(qrk[:i], qrk[i+1:]...)
			}
		case 1:
			q.Cost[rng.Intn(m)] += 0.25 // weaken a y reward: stays bounded
		default:
			q.Rows[rng.Intn(len(q.Rows))].RHS += 0.5 // residual degree shrank
		}
		probs = append(probs, q)
		varKeys = append(varKeys, qvk)
		rowKeys = append(rowKeys, qrk)
		p, vk, rk = q, qvk, qrk
	}
	return
}

// BenchmarkLPRNodeLoopCold solves every LP in the node sequence from
// scratch — the pre-warm-start behaviour of the LPR column.
func BenchmarkLPRNodeLoopCold(b *testing.B) {
	probs, _, _ := lprNodeSequence(21, 40, 60, 30)
	var iters int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range probs {
			sol, err := Solve(p)
			if err != nil || sol.Status != Optimal {
				b.Fatalf("status=%v err=%v", sol.Status, err)
			}
			iters += sol.Iterations
		}
	}
	b.ReportMetric(float64(iters)/float64(b.N), "simplex-iters/walk")
}

// BenchmarkLPRNodeLoopWarm chains warm solves across the identical sequence
// through one Workspace, as the persistent LPRState does inside the search,
// each solve starting from the previous one's basis. The speedup over the
// cold loop is the per-node win the warm start and the reused buffers buy.
func BenchmarkLPRNodeLoopWarm(b *testing.B) {
	probs, varKeys, rowKeys := lprNodeSequence(21, 40, 60, 30)
	var iters, warm int
	var w Workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Invalidate()
		for k, p := range probs {
			sol, err := w.SolveWarm(p, varKeys[k], rowKeys[k])
			if err != nil || sol.Status != Optimal {
				b.Fatalf("status=%v err=%v", sol.Status, err)
			}
			iters += sol.Iterations
			if sol.Warm {
				warm++
			}
		}
	}
	b.ReportMetric(float64(iters)/float64(b.N), "simplex-iters/walk")
	b.ReportMetric(float64(warm)/float64(b.N*len(probs)), "warm-fraction")
}

// BenchmarkLPRNodeLoopWarmGrowing chains warm solves across a chain that
// widens the problem by one column per call, as cut installation does, each
// walk through a fresh Workspace: its allocations are the buffers' growth
// plus one block per returned Solution.
func BenchmarkLPRNodeLoopWarmGrowing(b *testing.B) {
	probs, varKeys, rowKeys := lprGrowingSequence(11, 20, 30, 100)
	var iters int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var w Workspace
		for k, p := range probs {
			sol, err := w.SolveWarm(p, varKeys[k], rowKeys[k])
			if err != nil || sol.Status != Optimal {
				b.Fatalf("status=%v err=%v", sol.Status, err)
			}
			iters += sol.Iterations
		}
	}
	b.ReportMetric(float64(iters)/float64(b.N), "simplex-iters/walk")
}

func benchName(n, m int) string {
	return "n" + itobench(n) + "m" + itobench(m)
}

func itobench(v int) string {
	if v == 0 {
		return "0"
	}
	var buf []byte
	for v > 0 {
		buf = append([]byte{byte('0' + v%10)}, buf...)
		v /= 10
	}
	return string(buf)
}

// lprGrowingSequence builds the LP chain cut installation produces: a
// dual-shaped base problem followed by steps that each append one y column
// (a new cut row of the x-space problem) in front of the w columns, so every
// step widens the tableau by one column and renumbers the w columns while
// their keys stay put. A new column's reward never exceeds its column sum,
// so every problem stays bounded.
func lprGrowingSequence(seed int64, m, n, steps int) (probs []*Problem, varKeys, rowKeys [][]int64) {
	rng := rand.New(rand.NewSource(seed))
	p := dualLPLike(rng, m, n)
	vk := make([]int64, m+n)
	for j := range vk {
		if j < m {
			vk[j] = int64(j)
		} else {
			vk[j] = 1<<33 + int64(j-m)
		}
	}
	_, rk := keysFor(p)
	probs = append(probs, p)
	varKeys = append(varKeys, vk)
	rowKeys = append(rowKeys, rk)
	ny := m
	for s := 0; s < steps; s++ {
		nv := p.NumVars + 1
		q := &Problem{NumVars: nv, Cost: make([]float64, nv), Lo: make([]float64, nv), Hi: make([]float64, nv)}
		for j := range q.Hi {
			q.Hi[j] = math.Inf(1)
		}
		copy(q.Cost, p.Cost[:ny])
		copy(q.Cost[ny+1:], p.Cost[ny:])
		qvk := make([]int64, nv)
		copy(qvk, vk[:ny])
		qvk[ny] = 1<<32 + int64(s)
		copy(qvk[ny+1:], vk[ny:])
		colSum := 0
		for i, r := range p.Rows {
			row := Row{RHS: r.RHS, Entries: make([]Entry, 0, len(r.Entries)+1)}
			for _, e := range r.Entries {
				if e.Var >= ny {
					e.Var++
				}
				row.Entries = append(row.Entries, e)
			}
			if rng.Intn(4) == 0 || (i == len(p.Rows)-1 && colSum == 0) {
				c := 1 + rng.Intn(3)
				row.Entries = append(row.Entries, Entry{Var: ny, Coef: -float64(c)})
				colSum += c
			}
			q.Rows = append(q.Rows, row)
		}
		q.Cost[ny] = -float64(1 + rng.Intn(colSum))
		probs = append(probs, q)
		varKeys = append(varKeys, qvk)
		rowKeys = append(rowKeys, rk)
		p, vk = q, qvk
		ny++
	}
	return
}
