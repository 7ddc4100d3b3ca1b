package core

import (
	"time"

	"repro/internal/obs"
)

// Stats counts solver events. It is the metrics schema's solver block
// (obs.SolverStats), so the solver counts straight into the document that
// `bsolo -metrics`, `-debug-addr` and `-stats` render.
type Stats = obs.SolverStats

// Metrics wraps a finished Result's counters in the metrics envelope,
// stamping the terminal status and incumbent. name labels the solver column.
func (r *Result) Metrics(name string) obs.SolverMetrics {
	m := obs.SolverMetrics{Name: name, Status: r.Status.String(), SolverStats: r.Stats}
	if r.HasSolution {
		b := r.Best
		m.Best = &b
	}
	return m
}

// publishLive pushes a fresh metrics snapshot to the live registry handle.
// Called from the 16th-node budget checkpoint; the liveInterval throttle
// keeps the snapshot-assembly cost (a Stats deep copy) off the hot path.
// No-op without Options.Live.
func (s *solver) publishLive() {
	if s.opt.Live == nil {
		return
	}
	now := time.Now()
	if now.Sub(s.lastLive) < liveInterval {
		return
	}
	s.lastLive = now
	m := obs.SolverMetrics{SolverStats: s.snapshotStats()}
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
	s.opt.Live.Publish(res.Metrics(""))
}
