// Cooperative-portfolio hooks: the solver side of the sharing layer.
//
// core deliberately defines only the *interface* it needs (Sharer) and counts
// its own member-side events (Stats.Sharing); the concrete board lives in
// internal/share and the wiring in internal/portfolio, keeping the import
// direction one-way (portfolio → core + share).
//
// Soundness in one paragraph (full argument in DESIGN.md §9): every clause
// this solver learns is implied by problem ∧ (cost ≤ upper−1), because the
// incumbent cuts (eq. 10/13) participate in conflict analysis. A clause is
// therefore only published *after* the incumbent justifying its assumptions
// was published to the board, so at any moment the board holds a feasible
// solution at least as good as the assumptions behind every clause in the
// ring. An importing member can consequently lose only solutions that are no
// better than a board incumbent, and finish() performs one final board poll
// so the member's terminal claim ("this incumbent is optimal" / "unsat")
// accounts for everything its imports assumed.
package core

import (
	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pb"
)

// Sharer connects one Solve call to a cooperative-portfolio board. All
// methods are invoked from the solver's own goroutine; implementations
// synchronize internally (see share.Member / share.Board). Costs are in the
// internal objective space (excluding pb.Problem.CostOffset); all members of
// a portfolio solve the identical problem, so internal costs are comparable.
type Sharer interface {
	// PublishIncumbent offers a feasible solution; it returns true when the
	// solution became the new global best. The implementation copies values.
	PublishIncumbent(cost int64, values []bool) bool
	// BestUB returns the current global upper bound (false when no member
	// has found a solution yet). Must be cheap: it is polled per node and
	// inside bound estimations.
	BestUB() (int64, bool)
	// BestIncumbent returns a private copy of the global best solution when
	// its cost is strictly below the given threshold.
	BestIncumbent(below int64) (cost int64, values []bool, ok bool)
	// PublishClause offers a learned clause with its LBD; it returns true
	// when the exchange accepted it (filters and dedup applied inside).
	PublishClause(lits []pb.Lit, lbd int) bool
	// DrainClauses delivers clauses published by other members since the
	// last drain. Delivered slices are read-only.
	DrainClauses(fn func(lits []pb.Lit))
}

// verifyForeign re-verifies a board incumbent against the member's own
// problem before adoption: right length, feasible, and the claimed internal
// cost matches the assignment. Members trust the board for *pruning speed*
// (BestUB tightens budgets without a certificate) but never for *proofs*:
// an adopted incumbent becomes part of this member's terminal claim, so a
// corrupt one — a torn write, a UB-only member with a lifting bug — must be
// quarantined here rather than laundered into an "optimal"/"unsat" verdict.
func (s *solver) verifyForeign(cost int64, vals []bool) bool {
	return len(vals) == s.prob.NumVars && s.prob.Feasible(vals) &&
		s.prob.ObjectiveValue(vals)-s.prob.CostOffset == cost
}

// publishIncumbent offers the freshly improved local incumbent to the board.
// Called with s.upper/s.bestVals already updated; must run before any clause
// learned under the new bound can be published (the ordering DESIGN.md §9's
// soundness argument rests on).
func (s *solver) publishIncumbent() {
	if s.opt.Share == nil {
		return
	}
	s.stats.Sharing.IncumbentsPublished++
	if s.opt.Share.PublishIncumbent(s.upper, s.bestVals) {
		s.stats.Sharing.IncumbentsWon++
		s.trace.Emit(obs.EvSharePublish, "incumbent", s.upper+s.prob.CostOffset, 0, "won")
	} else {
		s.trace.Emit(obs.EvSharePublish, "incumbent", s.upper+s.prob.CostOffset, 0, "lost")
	}
}

// adoptShared polls the board and, when another member holds a strictly
// better incumbent, adopts it: upper bound, assignment copy, and the
// incumbent cuts are all tightened exactly as for a locally found solution.
// One atomic load when there is nothing to adopt.
func (s *solver) adoptShared() {
	sh := s.opt.Share
	if sh == nil {
		return
	}
	cost, vals, ok := sh.BestIncumbent(s.upper)
	if !ok {
		return
	}
	if !s.verifyForeign(cost, vals) {
		s.stats.Sharing.ForeignRejected++
		s.trace.Emit(obs.EvIncumbent, "", cost+s.prob.CostOffset, 0, "foreign-rejected")
		return
	}
	s.upper = cost
	s.bestVals = vals
	s.upperForeign = true
	s.stats.Sharing.ForeignIncumbents++
	s.trace.Emit(obs.EvIncumbent, "", cost+s.prob.CostOffset, 0, "foreign")
	s.auditIncumbent()
	if s.opt.OnIncumbent != nil {
		s.opt.OnIncumbent(cost + s.prob.CostOffset)
	}
	// Tighten eq. 10/13 in place (and, in linear-search mode, restart from
	// the root with the tightened cost constraint — same as local finds).
	s.addIncumbentCuts()
}

// adoptFinal is the terminal board poll (see the package comment): before the
// solver reports its verdict, any strictly better board incumbent replaces
// the local one, making optimality claims exact and preventing a member whose
// imports assumed foreign incumbents from reporting "unsatisfiable" on a
// satisfiable instance.
func (s *solver) adoptFinal() {
	sh := s.opt.Share
	if sh == nil {
		return
	}
	if cost, vals, ok := sh.BestIncumbent(s.upper); ok {
		if !s.verifyForeign(cost, vals) {
			s.stats.Sharing.ForeignRejected++
			s.trace.Emit(obs.EvIncumbent, "", cost+s.prob.CostOffset, 0, "foreign-rejected")
			return
		}
		s.upper = cost
		s.bestVals = vals
		s.upperForeign = true
		s.trace.Emit(obs.EvIncumbent, "", cost+s.prob.CostOffset, 0, "foreign-final")
		s.stats.Sharing.ForeignIncumbents++
		s.auditIncumbent()
	}
}

// importShared drains the exchange ring into the engine. Called only at
// decision level 0 (restarts, root backjumps, and the first node). It
// returns false when an import conflicts at the root: the search space below
// the imports' cost assumptions is empty and the caller finishes with an
// exhaustion proof (adoptFinal supplies the matching incumbent).
func (s *solver) importShared() bool {
	sh := s.opt.Share
	if sh == nil || s.eng.DecisionLevel() != 0 {
		return true
	}
	// Audit support: drained clauses are replayed under the board's upper
	// bound read after the drain. Publishers put their incumbents on the
	// board before the clauses learned under them enter the ring, and the
	// board UB only decreases, so that UB under-approximates the cost
	// assumption behind every drained clause. A UB read before the drain
	// can miss an incumbent published, with a clause learned under it,
	// between the read and the drain. The solver's own later learned
	// clauses are checked under the same bound (minImportUB).
	var audited [][]pb.Lit
	ok := true
	installed0 := s.stats.Sharing.ClausesImported
	conflicts0 := s.stats.Sharing.ImportConflicts
	sh.DrainClauses(func(lits []pb.Lit) {
		switch s.eng.ImportClause(lits) {
		case engine.ImportAdded:
			s.stats.Sharing.ClausesImported++
		case engine.ImportUnit:
			s.stats.Sharing.ClausesImported++
			s.stats.Sharing.ImportedUnits++
		case engine.ImportSatisfied:
			s.stats.Sharing.ImportsDropped++
			return
		case engine.ImportInvalid:
			s.stats.Sharing.ImportsRejected++
			return
		case engine.ImportConflict:
			s.stats.Sharing.ImportConflicts++
			ok = false
		}
		if s.aud != nil {
			audited = append(audited, lits)
		}
	})
	if len(audited) > 0 {
		boardUB, boardHasUB := sh.BestUB()
		for _, lits := range audited {
			s.aud.ImportedClause(lits, boardUB, boardHasUB)
		}
		if boardHasUB && boardUB < s.minImportUB {
			s.minImportUB = boardUB
		}
	}
	installed := s.stats.Sharing.ClausesImported - installed0
	conflicts := s.stats.Sharing.ImportConflicts - conflicts0
	if installed != 0 || conflicts != 0 {
		s.trace.Emit(obs.EvShareImport, "clause", installed, conflicts, "")
	}
	return ok
}

// shareMaxPublishLen caps the clauses considered for publication before the
// LBD computation; the exchange applies its own (typically much tighter)
// length filter on top. Keeps the per-conflict publication cost bounded.
const shareMaxPublishLen = 32

// publishLearnt offers a just-learned clause to the exchange. Runs after
// LearnAndBackjump, when every literal of the clause is assigned, so the LBD
// (distinct decision levels) is computable in one pass.
func (s *solver) publishLearnt(lits []pb.Lit) {
	sh := s.opt.Share
	if sh == nil || len(lits) == 0 {
		return
	}
	if len(lits) > shareMaxPublishLen {
		s.stats.Sharing.ClausesRejected++
		return
	}
	lbd := s.clauseLBD(lits)
	if sh.PublishClause(lits, lbd) {
		s.stats.Sharing.ClausesPublished++
		s.trace.Emit(obs.EvSharePublish, "clause", int64(len(lits)), int64(lbd), "accepted")
	} else {
		s.stats.Sharing.ClausesRejected++
		s.trace.Emit(obs.EvSharePublish, "clause", int64(len(lits)), int64(lbd), "rejected")
	}
}

// clauseLBD counts the distinct decision levels among the clause's literals
// (all assigned when called). Allocation-free for the short clauses that
// pass the publish cap.
func (s *solver) clauseLBD(lits []pb.Lit) int {
	var levels [shareMaxPublishLen]int
	n := 0
outer:
	for _, l := range lits {
		lvl := s.eng.Level(l.Var())
		for i := 0; i < n; i++ {
			if levels[i] == lvl {
				continue outer
			}
		}
		if n < len(levels) {
			levels[n] = lvl
			n++
		}
	}
	return n
}

// shareInterruptBudget arms bud with the UB-aware interrupt: the estimation
// stops early (sound, Incomplete) as soon as the board's upper bound drops
// below the upper this node's target was computed from.
func (s *solver) shareInterruptBudget(bud *bounds.Budget) {
	sh := s.opt.Share
	if sh == nil {
		return
	}
	base := s.upper
	bud.Interrupt = func() bool {
		if ub, ok := sh.BestUB(); ok && ub < base {
			s.stats.Sharing.UBInterrupts++
			return true
		}
		return false
	}
}
