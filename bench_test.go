// Package repro's benchmark suite regenerates the paper's evaluation
// (Table 1 — its only exhibit; the paper contains no figures) and the
// ablation studies A1–A8 indexed in DESIGN.md §4 (`make ablations`; the
// cut-separation payoff on its own family is `make bench-cuts`).
//
// Table 1 benches (one per family, sub-benchmarks per solver column):
//
//	BenchmarkTable1Grout / Synth / Mcnc / Acc
//	BenchmarkTable1Summary      — solved counts across the whole suite
//
// Ablations (harness.Ablations, one sub-benchmark each):
//
//	BenchmarkAblation/A1-bound-conflicts … /A8-lp-incumbent
//
// Bench instances are scaled down from the Table 1 defaults so that a
// single iteration stays in the tens-of-milliseconds range for the strong
// configurations; budget-capped weak configurations report their solved
// ratio via custom metrics instead of wall-clock alone.
package repro

import (
	"testing"
	"time"

	"repro/internal/harness"
)

// benchScale is small enough for repeated timing runs yet large enough that
// the solver columns keep their Table 1 ordering.
func benchScale(perFamily int) harness.Scale {
	return harness.Scale{
		GroutNets:  18,
		SynthNodes: 24,
		McncInputs: 7,
		AccTeams:   8,
		PerFamily:  perFamily,
	}
}

// benchLimits caps each run so that weak solvers cannot stall a bench
// iteration; solved/unsolved is reported as a metric.
func benchLimits() harness.Limits {
	return harness.Limits{
		Time:         2 * time.Second,
		MaxConflicts: 200_000,
		MilpNodes:    200_000,
	}
}

func benchFamily(b *testing.B, fam harness.Family) {
	insts, err := harness.Instances([]harness.Family{fam}, benchScale(3))
	if err != nil {
		b.Fatal(err)
	}
	for _, id := range harness.Solvers() {
		b.Run(string(id), func(b *testing.B) {
			lim := benchLimits()
			solved, total := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, inst := range insts {
					r := harness.Run(inst, id, lim)
					total++
					if r.Solved {
						solved++
					}
				}
			}
			b.ReportMetric(float64(solved)/float64(total), "solved/run")
		})
	}
}

func BenchmarkTable1Grout(b *testing.B) { benchFamily(b, harness.FamilyGrout) }
func BenchmarkTable1Synth(b *testing.B) { benchFamily(b, harness.FamilySynth) }
func BenchmarkTable1Mcnc(b *testing.B)  { benchFamily(b, harness.FamilyMcnc) }
func BenchmarkTable1Acc(b *testing.B)   { benchFamily(b, harness.FamilyAcc) }

// BenchmarkTable1Summary reproduces the #Solved row at bench scale: it runs
// the full matrix once per iteration and reports per-solver solved counts.
func BenchmarkTable1Summary(b *testing.B) {
	insts, err := harness.Instances(harness.Families(), benchScale(2))
	if err != nil {
		b.Fatal(err)
	}
	lim := benchLimits()
	counts := map[harness.SolverID]int{}
	runs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := harness.RunMatrix(insts, harness.Solvers(), lim)
		for s, c := range harness.SolvedCounts(results) {
			counts[s] += c
		}
		runs++
	}
	for _, s := range harness.Solvers() {
		b.ReportMetric(float64(counts[s])/float64(runs), string(s)+"-solved")
	}
}

// BenchmarkAblation runs the DESIGN.md §4 ablations A1–A8 as defined once in
// harness.Ablations, over a small optimization suite (grout + synth + mcnc;
// the LPR-gap family for A7), one sub-benchmark per ablation. Each variant
// reports its solved fraction, its mean decisions per instance and its wall
// time over the suite.
func BenchmarkAblation(b *testing.B) {
	for _, id := range harness.Ablations() {
		insts, err := harness.AblationInstances(id, benchScale(2))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(id), func(b *testing.B) {
			var rows []harness.AblationResult
			for i := 0; i < b.N; i++ {
				rows = harness.RunAblation(id, insts, 2*time.Second, 200_000)
			}
			for _, r := range rows {
				b.ReportMetric(float64(r.Solved)/float64(r.Total), r.Variant+"-solved/run")
				b.ReportMetric(float64(r.Decisions)/float64(r.Total), r.Variant+"-decisions/inst")
				b.ReportMetric(float64(r.Duration.Milliseconds()), r.Variant+"-ms")
			}
		})
	}
}
