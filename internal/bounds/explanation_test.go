package bounds

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/pb"
)

// TestExplanationClauseSoundness verifies the §4 bound-conflict property
// directly: whenever path + bound ≥ upper at a node, the explanation clause
//
//	ω_bc = ω_pp ∪ ω_pl
//	ω_pp = {¬x : cost(x) > 0, x = 1}                           (eq. 8)
//	ω_pl = {l : l false, l ∈ responsible constraints} \ α-excluded  (eq. 9, §4.3)
//
// must be satisfied by EVERY full assignment that is feasible and cheaper
// than the upper bound. A violation would mean the solver prunes an optimal
// solution — the exact failure mode the weak-duality recomputation and the
// α-filter margins are designed to prevent.
func TestExplanationClauseSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	ests := []Estimator{
		MIS{},
		LPR{State: &LPRState{}},
		LGR{},
		LGR{WarmStart: true},
	}
	checked := 0
	for iter := 0; iter < 800 && checked < 400; iter++ {
		n := 4 + rng.Intn(5)
		p := randomProblem(rng, n)
		opt := pb.BruteForce(p)
		if !opt.Feasible {
			continue
		}
		e := engine.New(p)
		if !decideRandom(e, rng, 1+rng.Intn(4)) {
			continue
		}
		red := Extract(e)
		// Path cost of the current partial assignment.
		var path int64
		for i := 0; i < e.TrailSize(); i++ {
			l := e.TrailLit(i)
			if !l.IsNeg() {
				path += p.Cost[l.Var()]
			}
		}
		// An upper bound somewhere between optimum and optimum+4 — tight
		// uppers make bound conflicts (and thus explanations) frequent.
		upper := opt.Optimum + int64(rng.Intn(5))
		if upper <= 0 {
			continue
		}
		for _, est := range ests {
			res := est.Estimate(e, red, p.Cost, upper-path, Budget{})
			if path+res.Bound < upper {
				continue // no bound conflict: nothing to explain
			}
			checked++
			// Build ω_bc exactly as internal/core does.
			inSeed := map[pb.Lit]bool{}
			for i := 0; i < e.TrailSize(); i++ {
				l := e.TrailLit(i)
				if !l.IsNeg() && p.Cost[l.Var()] > 0 && e.Level(l.Var()) > 0 {
					inSeed[pb.NegLit(l.Var())] = true
				}
			}
			for _, ci := range res.Responsible {
				c := e.Cons(ci)
				for _, l := range c.Lits {
					if e.LitValue(l) != engine.False {
						continue
					}
					v := l.Var()
					if e.Level(v) == 0 {
						continue
					}
					if res.ExcludedVars != nil && res.ExcludedVars[v] {
						continue
					}
					inSeed[l] = true
				}
			}
			// Every feasible assignment cheaper than upper must satisfy ω_bc.
			for mask := 0; mask < 1<<n; mask++ {
				vals := make([]bool, n)
				for v := 0; v < n; v++ {
					vals[v] = mask&(1<<v) != 0
				}
				if !p.Feasible(vals) || p.ObjectiveValue(vals) >= upper {
					continue
				}
				// An empty ω_bc asserts that no cheaper feasible assignment
				// exists at all, so reaching this point with one is a
				// violation (satisfied stays false).
				satisfied := false
				for l := range inSeed {
					if l.Eval(vals[l.Var()]) {
						satisfied = true
						break
					}
				}
				if !satisfied {
					t.Fatalf("iter %d %s: ω_bc excludes feasible assignment %v of cost %d < upper %d\nclause: %v\nbound=%d path=%d",
						iter, est.Name(), vals, p.ObjectiveValue(vals), upper, keys(inSeed), res.Bound, path)
				}
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d bound conflicts exercised", checked)
	}
}

func keys(m map[pb.Lit]bool) []pb.Lit {
	out := make([]pb.Lit, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	return out
}
