package core

import (
	"time"

	"repro/internal/bounds"
	"repro/internal/obs"
)

// This file converts the solver's native counter blocks into the unified
// obs schema (obs.SolverMetrics) and implements the solver's live-publish
// hooks. The conversion lives here, not in obs, to keep the dependency
// one-way: obs imports only the standard library.

// ms renders a duration as float64 milliseconds (the schema's unit).
func ms(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// Metrics flattens the Stats block into the unified snapshot schema. The
// Name/Status/Best fields are left for the caller to stamp (the solver knows
// its incumbent; the registry knows the member name).
func (st *Stats) Metrics() obs.SolverMetrics {
	m := obs.SolverMetrics{
		Decisions:      st.Decisions,
		Conflicts:      st.Conflicts,
		BoundConflicts: st.BoundConflicts,
		BoundCalls:     st.BoundCalls,
		BoundPrunes:    st.BoundPrunes,
		Solutions:      st.Solutions,
		LPIncumbents:   st.LPIncumbents,
		Restarts:       st.Restarts,
		KnapsackCuts:   st.KnapsackCuts,
		CardCuts:       st.CardCuts,
		NCBSavedLevels: st.NCBSavedLevels,
		Propagations:   st.Propagations,
		LearnedClauses: st.LearnedClauses,
		PBLearned:      st.PBLearned,

		BoundFailures:  st.BoundFailures,
		BoundPanics:    st.BoundPanics,
		BoundFallbacks: st.BoundFallbacks,
		BoundDemotions: st.BoundDemotions,
		BoundTimeouts:  st.BoundTimeouts,

		ImportedClauses: st.ImportedClauses,
		RandomDecisions: st.RandomDecisions,
		Flips:           st.Flips,

		Bounds: boundsMetrics(&st.Bounds),
	}
	if st.Sharing.Active() {
		sh := st.Sharing
		m.Sharing = &obs.SharingMetrics{
			IncumbentsPublished: sh.IncumbentsPublished,
			IncumbentsWon:       sh.IncumbentsWon,
			ForeignIncumbents:   sh.ForeignIncumbents,
			ForeignRejected:     sh.ForeignRejected,
			ForeignUBPrunes:     sh.ForeignUBPrunes,
			UBInterrupts:        sh.UBInterrupts,
			ClausesPublished:    sh.ClausesPublished,
			ClausesRejected:     sh.ClausesRejected,
			ClausesImported:     sh.ClausesImported,
			ImportedUnits:       sh.ImportedUnits,
			ImportsDropped:      sh.ImportsDropped,
			ImportsRejected:     sh.ImportsRejected,
			ImportConflicts:     sh.ImportConflicts,
		}
	}
	return m
}

func boundsMetrics(bs *bounds.Stats) obs.BoundsMetrics {
	bm := obs.BoundsMetrics{
		Incremental:   bs.Incremental,
		Reduces:       bs.Reduces,
		ReduceMs:      ms(bs.ReduceTime),
		WarmSolves:    bs.WarmSolves,
		ColdSolves:    bs.ColdSolves,
		WarmFallbacks: bs.WarmFallbacks,
	}
	if c := bs.Cuts; c.Rounds > 0 || c.Separated > 0 {
		bm.Cuts = &obs.CutMetrics{
			Separated:  c.Separated,
			Duplicates: c.Duplicates,
			Rounds:     c.Rounds,
			Applied:    c.Applied,
			Active:     c.Active,
			Pruned:     c.Pruned,
			SepMs:      ms(c.SepTime),
		}
	}
	if len(bs.Per) > 0 {
		bm.Per = make(map[string]obs.ProcMetrics, len(bs.Per))
		for name, p := range bs.Per {
			bm.Per[name] = obs.ProcMetrics{
				Calls:      p.Calls,
				TimeMs:     ms(p.Time),
				BoundSum:   p.BoundSum,
				MaxBound:   p.MaxBound,
				Infinite:   p.Infinite,
				Incomplete: p.Incomplete,
				Failed:     p.Failed,
				Panics:     p.Panics,
				Prunes:     p.Prunes,
			}
		}
	}
	return bm
}

// Metrics converts a finished Result into a solver metrics block, stamping
// the terminal status and incumbent. name labels the solver column.
func (r *Result) Metrics(name string) obs.SolverMetrics {
	m := r.Stats.Metrics()
	m.Name = name
	m.Status = r.Status.String()
	if r.HasSolution {
		b := r.Best
		m.Best = &b
	}
	return m
}

// publishLive pushes a fresh metrics snapshot to the live registry handle.
// Called from the 16th-node budget checkpoint; the liveInterval throttle
// keeps the snapshot-assembly cost (a Stats deep copy plus the schema
// conversion) off the hot path. No-op without Options.Live.
func (s *solver) publishLive() {
	if s.opt.Live == nil {
		return
	}
	now := time.Now()
	if now.Sub(s.lastLive) < liveInterval {
		return
	}
	s.lastLive = now
	st := s.snapshotStats()
	m := st.Metrics()
	if s.bestVals != nil {
		b := s.upper + s.prob.CostOffset
		m.Best = &b
	}
	s.opt.Live.Publish(m)
}

// publishFinal pushes the terminal snapshot (status + final counters),
// bypassing the throttle so scrapers always see the finished state.
func (s *solver) publishFinal(res *Result) {
	if s.opt.Live == nil {
		return
	}
	m := res.Stats.Metrics()
	m.Status = res.Status.String()
	if res.HasSolution {
		b := res.Best
		m.Best = &b
	}
	s.opt.Live.Publish(m)
}
