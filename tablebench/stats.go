package main

import (
	"math"
	"sort"
)

// sgm is the shifted geometric mean exp(mean(ln(x+shift))) − shift, the
// solver-benchmark average that damps both tiny and huge rows.
func sgm(xs []float64, shift float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x + shift)
	}
	return math.Exp(s/float64(len(xs))) - shift
}

// median returns the middle value (mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the per-row tail: the highest whole percentile, capped at
// p90, that leaves at least ten rows beyond it, by nearest rank, together
// with that percentile and the number of rows beyond it. The cap keeps more
// than ten rows beyond the percentile once a workload has over 100 rows,
// which steadies the estimate across seeds. With ten rows or fewer there is
// no such percentile and the median stands in.
func tail(xs []float64) (value float64, pct, beyond int) {
	n := len(xs)
	if n <= 10 {
		return median(xs), 50, n / 2
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pct = min(100*(n-10)/n, tailCap)
	rank := int(math.Ceil(float64(pct) * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], pct, n - rank
}

// tailCap is the highest percentile row_ref_tail_ms reports.
const tailCap = 90
