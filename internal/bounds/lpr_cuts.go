package bounds

import (
	"repro/internal/cuts"
	"repro/internal/engine"
	"repro/internal/pb"
)

// maxCutSourceRows caps how many reduced rows feed one separation round:
// separation cost is per-row, and on large instances the first rows of the
// reduced problem (the engine visits constraints in store order) already
// carry the structured part worth cutting on.
const maxCutSourceRows = 128

// cutInstall is the per-estimation record of pooled cuts installed into the
// x-space problem as extra rows. Pooled cuts are valid for the *original*
// problem, so at a search node each is residualized under the current
// assignment — assigned-true terms pay into the degree, assigned-false terms
// are dropped but remembered as the cut's explanation literals (the cut
// remains violated while they stay false, which is exactly the ω_pl
// contract; see Result.ResponsibleLits).
type cutInstall struct {
	m0 int // problem rows in xp before any cut row

	// Aligned per installed cut row k (x-space row m0+k):
	ids       []int64    // pool id, the warm-start column key
	falseLits [][]pb.Lit // currently-false literals, the cut's explanation
	resid     []Row      // residual integer view (completion cap, tests)

	// done records pool ids already visited this estimation — installed,
	// skipped as satisfied, or rolled back — so separation rounds only
	// install genuinely new cuts.
	done map[int64]bool

	// infeasible is set when some residualized cut cannot be satisfied even
	// with all its unassigned literals true: the node admits no completion,
	// and infeasibleLits is the witnessing cut's explanation.
	infeasible     bool
	infeasibleLits []pb.Lit
}

// installCuts residualizes every pooled cut into xp, recording them in inst
// (whose buffers are reused; its previous contents are dropped). Nil-safe on
// the pool.
func installCuts(inst *cutInstall, e *engine.Engine, xp *xProblem, pool *cuts.Pool, cost []int64) *cutInstall {
	inst.drop()
	inst.m0 = len(xp.rows)
	if pool.Len() > 0 {
		inst.installNew(e, xp, pool, cost)
	}
	return inst
}

// drop forgets the previous estimation's cuts — its references to cuts the
// pool may since have evicted and to their explanation literals — keeping
// the buffers.
func (inst *cutInstall) drop() {
	clear(inst.falseLits)
	clear(inst.resid)
	*inst = cutInstall{
		ids:       inst.ids[:0],
		falseLits: inst.falseLits[:0],
		resid:     inst.resid[:0],
		done:      inst.done,
	}
	clear(inst.done)
}

// installNew installs every pooled cut not yet visited this estimation.
// Returns the number of new x-space rows added. Stops early (leaving the
// remainder for the infeasible fast path) once any cut proves the node
// infeasible.
func (inst *cutInstall) installNew(e *engine.Engine, xp *xProblem, pool *cuts.Pool, cost []int64) int {
	if inst.done == nil {
		inst.done = make(map[int64]bool, pool.Len())
	}
	added := 0
	pool.Each(func(id int64, terms []pb.Term, degree int64) {
		if inst.infeasible || inst.done[id] {
			return
		}
		inst.done[id] = true
		if inst.installOne(e, xp, id, terms, degree, cost) {
			added++
		}
	})
	if added > 0 {
		pool.NoteApplied(added)
	}
	return added
}

// installOne residualizes one cut and, when it still binds, appends it to
// xp.rows. Reports whether a row was added.
func (inst *cutInstall) installOne(e *engine.Engine, xp *xProblem, id int64, terms []pb.Term, degree int64, cost []int64) bool {
	residDegree := degree
	var residTerms []pb.Term
	var falseLits []pb.Lit
	for _, t := range terms {
		switch e.LitValue(t.Lit) {
		case engine.True:
			residDegree -= t.Coef
		case engine.False:
			falseLits = append(falseLits, t.Lit)
		default:
			residTerms = append(residTerms, t)
		}
	}
	if residDegree <= 0 {
		return false // satisfied by the assignment alone
	}
	var sum int64
	for i := range residTerms {
		if residTerms[i].Coef > residDegree {
			residTerms[i].Coef = residDegree
		}
		sum += residTerms[i].Coef
	}
	if sum < residDegree {
		// Even all-true unassigned literals cannot cover the residual degree:
		// the globally valid cut refutes this node outright.
		inst.infeasible = true
		inst.infeasibleLits = falseLits
		return false
	}
	xr := xp.addRow(-1, float64(residDegree))
	for _, t := range residTerms {
		j := xp.local(t.Lit.Var(), cost)
		a := float64(t.Coef)
		if t.Lit.IsNeg() {
			xr.entries = append(xr.entries, xEntry{j, -a})
			xr.rhs -= a
		} else {
			xr.entries = append(xr.entries, xEntry{j, a})
		}
	}
	inst.ids = append(inst.ids, id)
	inst.falseLits = append(inst.falseLits, falseLits)
	inst.resid = append(inst.resid, Row{EngIdx: -1, Terms: residTerms, Degree: residDegree})
	return true
}

// allFalseLits is the explanation for "the cut-augmented LP is infeasible":
// every installed cut's false literals (the reduced rows' own explanation
// rides separately through Result.Responsible).
func (inst *cutInstall) allFalseLits() []pb.Lit {
	var out []pb.Lit
	for _, fl := range inst.falseLits {
		out = append(out, fl...)
	}
	return out
}

// cutSnapshot captures the x-space lengths before a separation round so a
// failed re-solve can restore the exact problem the last good solution
// describes.
type cutSnapshot struct {
	rows, vars, cuts int
}

func (inst *cutInstall) snapshot(xp *xProblem) cutSnapshot {
	return cutSnapshot{rows: len(xp.rows), vars: len(xp.vars), cuts: len(inst.ids)}
}

// rollback truncates xp and the install record back to snap. Ids rolled back
// stay in done: the round is being abandoned, not retried.
func (inst *cutInstall) rollback(xp *xProblem, snap cutSnapshot) {
	xp.forget(snap.vars)
	xp.rows = xp.rows[:snap.rows]
	inst.ids = inst.ids[:snap.cuts]
	inst.falseLits = inst.falseLits[:snap.cuts]
	inst.resid = inst.resid[:snap.cuts]
}

// cutSources exposes the reduced problem's originating rows — full
// coefficients, full degree — to the separators, in dst's buffer. Those are
// problem rows only, as they must be: learned constraints are valid merely
// under the current upper bound, and a cut derived from one would poison
// the pool's global-validity invariant (and fail the audit replay).
func cutSources(dst []cuts.Source, e *engine.Engine, red *Reduced) []cuts.Source {
	srcs := dst[:0]
	for _, row := range red.Rows[:min(len(red.Rows), maxCutSourceRows)] {
		srcs = append(srcs, engineRows{e}.Row(row.EngIdx))
	}
	return srcs
}

// engineRows reads cut sources through the engine (cuts.RowReader).
type engineRows struct{ e *engine.Engine }

func (r engineRows) Row(i int) cuts.Source {
	c := r.e.Cons(i)
	return cuts.Source{EngIdx: i, Lits: c.Lits, Coefs: c.Coefs, Degree: c.Degree}
}

// fracPoint adapts the LP solution to the literal-space fractional point the
// separators cut off: assigned literals take their engine value, unassigned
// ones their primal LP value (the duals of the dual LP's rows).
func fracPoint(e *engine.Engine, xp *xProblem, dual []float64) func(pb.Lit) float64 {
	return func(l pb.Lit) float64 {
		switch e.LitValue(l) {
		case engine.True:
			return 1
		case engine.False:
			return 0
		}
		x := 0.0
		if j := xp.index(l.Var()); j >= 0 && j < len(dual) {
			x = dual[j]
			if x < 0 {
				x = 0
			} else if x > 1 {
				x = 1
			}
		}
		if l.IsNeg() {
			return 1 - x
		}
		return x
	}
}
