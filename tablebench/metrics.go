package main

import (
	"repro/internal/core"
	"repro/internal/portfolio"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits lists the metrics a user of the solver sees, printed with
// tracing off.
var endToEndUnits = map[string]string{
	"solve_ref_s":           "s",
	"row_ref_sgm_ms":        "ms",
	"row_ref_p50_ms":        "ms",
	"row_ref_tail_ms":       "ms",
	"best_found_ref_sgm_ms": "ms",
	"solved":                "count",
	"setup_s":               "s",
	"peak_rss_mb":           "MB",
}

// raceMembers is the race roster, in config order.
var raceMembers = []string{"core-guided", "plain", "mis", "lgr", "lpr"}

// layerUnits lists the per-layer metrics of the traced run.
var layerUnits = func() map[string]string {
	m := map[string]string{
		"opb.parse_s":  "s",
		"opb.mb_per_s": "MB/s",
		"wcnf.parse_s": "s",

		"soft.compile_s": "s",
		"wbo.conflicts":  "count",
		"wbo.wins":       "count",

		"core.conflicts":       "count",
		"core.bound_conflicts": "count",
		"core.decisions":       "count",
		"core.restarts":        "count",
		"core.learned":         "count",
		"core.solutions":       "count",

		"engine.propagations": "count",
		"engine.self_s":       "s",
		"engine.props_per_s":  "1/s",

		"bounds.s":           "s",
		"bounds.calls":       "count",
		"bounds.prunes":      "count",
		"bounds.prune_ratio": "ratio",
		"bounds.reduce_s":    "s",
		"bounds.reduces":     "count",
		"bounds.lpr_s":       "s",
		"bounds.lpr_calls":   "count",
		"bounds.mis_calls":   "count",
		"bounds.failed":      "count",
		"bounds.timeouts":    "count",

		"lp.warm":           "count",
		"lp.cold":           "count",
		"lp.warm_fallbacks": "count",
		"lp.warm_ratio":     "ratio",

		"cuts.sep_s":     "s",
		"cuts.rounds":    "count",
		"cuts.separated": "count",
		"cuts.active":    "count",
		"cuts.pruned":    "count",

		"solve_wall_s":          "s",
		"solve_cpu_s":           "s",
		"host.probe_ms":         "ms",
		"portfolio.solve_s":     "s",
		"portfolio.conflicts":   "count",
		"portfolio.waste_ratio": "ratio",
		"portfolio.errors":      "count",

		"share.published":        "count",
		"share.imported":         "count",
		"share.foreign_prunes":   "count",
		"share.foreign_rejected": "count",
		"share.incumbents":       "count",

		"verify.check_s":     "s",
		"primal_gap_pct":     "%",
		"trace.overhead_pct": "%",
	}
	for _, name := range raceMembers {
		m["portfolio.wins."+name] = "count"
	}
	return m
}()

// endToEnd computes the end-to-end metrics of one pass, except
// setup_s and peak_rss_mb, which belong to the whole run. Times are
// reference CPU times.
func endToEnd(rs []rowResult) map[string]float64 {
	var times, found []float64
	var solve, solved float64
	for i := range rs {
		r := &rs[i]
		solve += r.ref.Seconds()
		times = append(times, ms(r.ref.Seconds()))
		found = append(found, ms(r.bestRef.Seconds()))
		if r.proved() {
			solved++
		}
	}
	t, _, _ := tail(times)
	return map[string]float64{
		"solve_ref_s":           solve,
		"row_ref_sgm_ms":        sgm(times, 10),
		"row_ref_p50_ms":        median(times),
		"row_ref_tail_ms":       t,
		"best_found_ref_sgm_ms": sgm(found, 10),
		"solved":                solved,
	}
}

func ms(s float64) float64 { return 1000 * s }

// primalGap is the mean relative gap, in percent, between each row's
// incumbent and its MILP reference optimum, over the rows with a nonzero
// proved reference and an incumbent.
func primalGap(rs []rowResult, refs []reference) float64 {
	var sum float64
	var n int
	for i := range rs {
		if ref := refs[i]; ref.proved && ref.feasible && ref.best > 0 && rs[i].hasSol {
			sum += 100 * float64(rs[i].best-ref.best) / float64(ref.best)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// raceCounts is the counter set attached to a portfolio.solve span.
func raceCounts(pr *portfolio.Result) map[string]float64 {
	return map[string]float64{
		"conflicts": float64(pr.TotalConflicts()), "decisions": float64(pr.TotalDecisions()),
		"members": float64(len(pr.Members)), "clauses_published": float64(pr.Board.ClausesPublished),
		"incumbents": float64(pr.Board.Incumbents),
	}
}

// statMetrics maps one solve's returned counters onto the per-layer metric
// names. The same map is attached to a core.solve span.
func statMetrics(st *core.Stats) map[string]float64 {
	b := &st.Bounds
	m := map[string]float64{
		"core.conflicts":       float64(st.Conflicts),
		"core.bound_conflicts": float64(st.BoundConflicts),
		"core.decisions":       float64(st.Decisions),
		"core.restarts":        float64(st.Restarts),
		"core.learned":         float64(st.LearnedClauses),
		"core.solutions":       float64(st.Solutions),
		"engine.propagations":  float64(st.Propagations),
		"bounds.s":             b.TotalTime().Seconds(),
		"bounds.calls":         float64(b.TotalCalls()),
		"bounds.prunes":        float64(st.BoundPrunes),
		"bounds.reduce_s":      b.ReduceTime.Seconds(),
		"bounds.reduces":       float64(b.Reduces),
		"bounds.failed":        float64(st.BoundFailures),
		"bounds.timeouts":      float64(st.BoundTimeouts),
		"lp.warm":              float64(b.WarmSolves),
		"lp.cold":              float64(b.ColdSolves),
		"lp.warm_fallbacks":    float64(b.WarmFallbacks),
		"cuts.sep_s":           b.Cuts.SepTime.Seconds(),
		"cuts.rounds":          float64(b.Cuts.Rounds),
		"cuts.separated":       float64(b.Cuts.Separated),
		"cuts.active":          float64(b.Cuts.Active),
		"cuts.pruned":          float64(b.Cuts.Pruned),
	}
	if p := b.Per["lpr"]; p != nil {
		m["bounds.lpr_s"] = p.Time.Seconds()
		m["bounds.lpr_calls"] = float64(p.Calls)
	}
	if p := b.Per["mis"]; p != nil {
		m["bounds.mis_calls"] = float64(p.Calls)
	}
	return m
}

// layers computes the per-layer metrics of one traced pass from the
// counters the program returned. In the race, the solver counters sum the
// branch-and-bound members; the core-guided member counts under wbo.
func layers(rs []rowResult) map[string]float64 {
	m := map[string]float64{}
	for k := range layerUnits {
		m[k] = 0
	}
	add := func(st *core.Stats) {
		for k, v := range statMetrics(st) {
			m[k] += v
		}
	}
	var opbBytes, solve float64
	for i := range rs {
		r := &rs[i]
		solve += r.solve.Seconds()
		m["solve_cpu_s"] += r.cpu.Seconds()
		m["verify.check_s"] += r.check.Seconds()
		if r.weighted {
			m["wcnf.parse_s"] += r.parse.Seconds()
			m["soft.compile_s"] += r.compile.Seconds()
		} else {
			m["opb.parse_s"] += r.parse.Seconds()
			opbBytes += float64(r.bytes)
		}
		if r.race == nil {
			add(&r.stats)
			continue
		}
		pr := r.race
		m["portfolio.solve_s"] += r.solve.Seconds()
		m["portfolio.errors"] += float64(len(pr.Errors))
		m["share.published"] += float64(pr.Board.ClausesPublished)
		m["share.incumbents"] += float64(pr.Board.Incumbents)
		if pr.Winner != "" {
			m["portfolio.wins."+pr.Winner]++
		}
		for j := range pr.Members {
			mb := &pr.Members[j]
			c := float64(mb.Stats.Conflicts + mb.Stats.BoundConflicts)
			m["portfolio.conflicts"] += c
			if mb.Name != pr.Winner {
				m["portfolio.waste_ratio"] += c // divided by all conflicts below
			}
			m["share.imported"] += float64(mb.Stats.ImportedClauses)
			m["share.foreign_prunes"] += float64(mb.Stats.Sharing.ForeignUBPrunes)
			m["share.foreign_rejected"] += float64(mb.Stats.Sharing.ForeignRejected)
			if mb.Name == "core-guided" {
				m["wbo.conflicts"] += float64(mb.Stats.Conflicts)
			} else {
				add(&mb.Stats)
			}
		}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m["portfolio.waste_ratio"] = ratio(m["portfolio.waste_ratio"], m["portfolio.conflicts"])
	m["wbo.wins"] = m["portfolio.wins.core-guided"]
	m["opb.mb_per_s"] = ratio(opbBytes/1e6, m["opb.parse_s"])
	m["bounds.prune_ratio"] = ratio(m["bounds.prunes"], m["bounds.calls"])
	m["lp.warm_ratio"] = ratio(m["lp.warm"], m["lp.warm"]+m["lp.cold"])
	// The search loop and the engine share one wall clock: whatever the
	// solve did not spend in the bound pipeline was propagation, conflict
	// analysis and branching. In the race the member bound times overlap,
	// so this is a floor there.
	m["solve_wall_s"] = solve
	m["engine.self_s"] = max(0, solve-m["bounds.s"])
	m["engine.props_per_s"] = ratio(m["engine.propagations"], m["engine.self_s"])
	return m
}
