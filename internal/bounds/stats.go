package bounds

import (
	"time"

	"repro/internal/obs"
)

// Record folds one estimation call into the per-estimator aggregate of s.
func Record(s *obs.BoundsStats, name string, res Result, elapsed time.Duration, panicked bool) {
	p := s.Proc(name)
	p.Calls++
	p.Time += obs.Duration(elapsed)
	switch {
	case panicked:
		p.Failed++
		p.Panics++
	case res.Failed:
		p.Failed++
	case res.Bound >= InfBound:
		p.Infinite++
	default:
		p.BoundSum += res.Bound
		if res.Bound > p.MaxBound {
			p.MaxBound = res.Bound
		}
	}
	if res.Incomplete {
		p.Incomplete++
	}
}
