package portfolio

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/pb"
	"repro/internal/share"
)

func newHotPathBoard(withUB bool) *share.Board {
	bd := share.NewBoard()
	if withUB {
		bd.Join("seed").PublishIncumbent(42, []bool{true})
	}
	return bd
}

// benchInstances builds a small suite of generator-backed instances that are
// hard enough for the members to conflict and share, yet solved to optimality
// in well under a second per member.
func benchInstances(b *testing.B) []*pb.Problem {
	b.Helper()
	var out []*pb.Problem
	for k := 0; k < 2; k++ {
		p, err := gen.Synthesis(gen.SynthesisConfig{
			Nodes: 13 + 2*k, Impls: 4, Fanout: 2.0, Incompat: 0.5,
			Seed: int64(1000*k + 7),
		})
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, p)
	}
	p, err := gen.MinCover(gen.MinCoverConfig{
		Inputs: 6, OnDensity: 0.3, DcDensity: 0.1, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return append(out, p)
}

// BenchmarkPortfolioSharedVsIsolated runs every default member to a full
// optimality proof on the same instances — cooperatively (one shared board
// per instance) and isolated — and reports total conflicts/op and
// decisions/op across all members, the work measure the sharing layer is
// supposed to reduce (wall-clock alone is too noisy at test scale, and the
// racing driver's winner-cancellation would hide cooperation on few-core
// machines: cancelled members do no measurable work either way). Run via
// `make bench-portfolio`.
func BenchmarkPortfolioSharedVsIsolated(b *testing.B) {
	insts := benchInstances(b)
	configs := DefaultConfigs()
	for _, mode := range []struct {
		name string
		iso  bool
	}{{"shared", false}, {"isolated", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var conflicts, decisions int64
			for i := 0; i < b.N; i++ {
				for _, p := range insts {
					var board *share.Board
					if !mode.iso {
						board = share.NewBoard()
					}
					var optimum int64
					for mi, cfg := range configs {
						opt := cfg.Options
						if board != nil {
							opt.Share = board.Join(cfg.Name)
						}
						res := core.Solve(p, opt)
						if res.Status != core.StatusOptimal && res.Status != core.StatusUnsat {
							b.Fatalf("%s: status=%v", cfg.Name, res.Status)
						}
						if mi == 0 {
							optimum = res.Best
						} else if res.Status == core.StatusOptimal && res.Best != optimum {
							b.Fatalf("%s: optimum %d disagrees with %d", cfg.Name, res.Best, optimum)
						}
						conflicts += res.Stats.Conflicts + res.Stats.BoundConflicts
						decisions += res.Stats.Decisions
					}
				}
			}
			b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
			b.ReportMetric(float64(decisions)/float64(b.N), "decisions/op")
		})
	}
}

// BenchmarkPortfolioRace is the end-to-end racing driver on the same
// instances (winner cancellation included), shared vs isolated: the
// wall-clock figure of merit on multi-core machines.
func BenchmarkPortfolioRace(b *testing.B) {
	insts := benchInstances(b)
	for _, mode := range []struct {
		name string
		iso  bool
	}{{"shared", false}, {"isolated", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range insts {
					res := SolveOpts(p, nil, Options{NoSharing: mode.iso})
					if res.Status != core.StatusOptimal && res.Status != core.StatusUnsat {
						b.Fatalf("status=%v", res.Status)
					}
				}
			}
		})
	}
}

// BenchmarkBoardHotPath measures the per-node cost of the sharing fast paths
// (the atomic upper-bound poll and an empty drain) — these sit on every
// search node of every member and must stay in the nanosecond range.
func BenchmarkBoardHotPath(b *testing.B) {
	bench := func(b *testing.B, withUB bool) {
		bd := newHotPathBoard(withUB)
		m := bd.Join("probe")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ub, ok := m.BestUB(); ok && ub < 0 {
				b.Fatal("impossible")
			}
			m.DrainClauses(func([]pb.Lit) { b.Fatal("unexpected clause") })
		}
	}
	b.Run("empty-board", func(b *testing.B) { bench(b, false) })
	b.Run("with-incumbent", func(b *testing.B) { bench(b, true) })
}
