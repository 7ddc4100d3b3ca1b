package harness

import (
	"sort"
	"testing"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/cuts"
	"repro/internal/engine"
	"repro/internal/pb"
)

// rootBound computes the root LPR bound of p, with or without a cut pool.
func rootBound(b *testing.B, p *pb.Problem, withCuts bool) int64 {
	b.Helper()
	e := engine.New(p)
	if e.SeedUnits() < 0 || e.Propagate() >= 0 {
		b.Fatal("unexpected root conflict in a generated instance")
	}
	red := bounds.Extract(e)
	est := bounds.LPR{State: &bounds.LPRState{}}
	if withCuts {
		est.Cuts = cuts.NewPool()
	}
	res := est.Estimate(e, red, p.Cost, p.TotalCost()+1, bounds.Budget{})
	if res.Failed || res.Incomplete {
		b.Fatal("root LPR estimate failed")
	}
	return res.Bound
}

func median(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[len(xs)/2]
}

// BenchmarkCutsSynth measures what cut separation buys on the synthetic
// LPR-gap family: the share of the root integrality gap closed by the
// separation fixpoint, and the median search effort (conflicts, nodes =
// decisions) to the proved optimum with cuts on vs off. Run via
// `make bench-cuts` with BENCHCOUNT>=6 and compare medians, never single
// runs.
func BenchmarkCutsSynth(b *testing.B) {
	insts := LPRGapInstances(8)
	for i := 0; i < b.N; i++ {
		var gapClosedPct float64
		var gapCells int
		var onConfl, offConfl, onNodes, offNodes []int64
		for seed, inst := range insts {
			p := inst.Prob
			on := core.Solve(p, core.Options{LowerBound: core.LBLPR, MaxConflicts: 500000})
			off := core.Solve(p, core.Options{LowerBound: core.LBLPR, MaxConflicts: 500000, Tuning: core.Tuning{NoCuts: true}})
			if on.Status != core.StatusOptimal || off.Status != core.StatusOptimal {
				b.Fatalf("seed %d: cell did not prove the optimum", seed)
			}
			if on.Best != off.Best {
				b.Fatalf("seed %d: cuts changed the optimum: %d vs %d", seed, on.Best, off.Best)
			}
			if on.Stats.Bounds.Cuts.Separated == 0 {
				b.Fatalf("seed %d: no cuts separated; the family no longer engages the pool", seed)
			}
			onConfl = append(onConfl, on.Stats.Conflicts+on.Stats.BoundConflicts)
			offConfl = append(offConfl, off.Stats.Conflicts+off.Stats.BoundConflicts)
			onNodes = append(onNodes, on.Stats.Decisions)
			offNodes = append(offNodes, off.Stats.Decisions)
			plain := rootBound(b, p, false)
			cut := rootBound(b, p, true)
			if gap := on.Best - plain; gap > 0 {
				gapCells++
				gapClosedPct += 100 * float64(cut-plain) / float64(gap)
			}
		}
		if gapCells > 0 {
			b.ReportMetric(gapClosedPct/float64(gapCells), "rootgap%")
		}
		b.ReportMetric(float64(median(onConfl)), "conflicts-cuts")
		b.ReportMetric(float64(median(offConfl)), "conflicts-nocuts")
		b.ReportMetric(float64(median(onNodes)), "nodes-cuts")
		b.ReportMetric(float64(median(offNodes)), "nodes-nocuts")
	}
}
