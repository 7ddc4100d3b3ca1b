// Foreign-clause import for the cooperative portfolio: clauses learned by
// other portfolio members are injected into this engine's store at
// restart/backjump-to-root boundaries. Import happens exclusively at decision
// level 0, which makes every case sound and simple:
//
//   - root-false literals can never become true again, so they are dropped
//     from the clause (logical equivalence under the root assignment);
//   - a root-true literal means the clause is already satisfied forever —
//     nothing to store;
//   - one surviving literal is a unit: assigned at the root with the stored
//     clause as its reason (so conflict analysis and ReduceDB's root-reason
//     protection both see it);
//   - two or more surviving literals (all unassigned at the root) go into the
//     two-watched-literal store, where any two literals are valid watches;
//   - zero surviving literals from a non-empty input mean the clause is
//     conflicting at the root: under the publisher's cost assumptions the
//     remaining search space is empty, which the caller converts into an
//     exhaustion proof (see core's import site and DESIGN.md §9).
//
// Imports are *validated*, not trusted: the exchange crosses goroutines and
// the chaos tests corrupt it deliberately. Structurally invalid clauses
// (out-of-range variables, empty input) are rejected with ImportInvalid, and
// duplicate literals / tautological pairs are normalized away, so a corrupt
// or duplicated import can degrade sharing but never soundness.
package engine

import "repro/internal/pb"

// ImportStatus reports how ImportClause handled a foreign clause.
type ImportStatus int

const (
	// ImportAdded: the clause entered the two-watched-literal store.
	ImportAdded ImportStatus = iota
	// ImportUnit: the clause reduced to a single literal, now assigned at
	// the root with the stored clause as reason.
	ImportUnit
	// ImportSatisfied: the clause is permanently satisfied (a root-true
	// literal or a tautological pair) and was dropped.
	ImportSatisfied
	// ImportConflict: every literal is root-false — the search space below
	// the publisher's cost assumptions is empty (exhaustion; see package
	// comment). Nothing was stored.
	ImportConflict
	// ImportInvalid: the clause is structurally invalid (empty input or an
	// out-of-range variable) and was rejected.
	ImportInvalid
)

func (s ImportStatus) String() string {
	switch s {
	case ImportAdded:
		return "added"
	case ImportUnit:
		return "unit"
	case ImportSatisfied:
		return "satisfied"
	case ImportConflict:
		return "conflict"
	default:
		return "invalid"
	}
}

// ImportClause injects a clause learned by another solver into this engine.
// It must be called at decision level 0 (the importing search owns its loop
// and imports only at restart/backjump-to-root boundaries); calling it deeper
// panics. The input slice is not retained and not mutated.
func (e *Engine) ImportClause(lits []pb.Lit) ImportStatus {
	if e.DecisionLevel() != 0 {
		panic("engine: ImportClause requires decision level 0")
	}
	if len(lits) == 0 {
		return ImportInvalid
	}
	// Validate and simplify against the root assignment. have tracks the
	// polarity already kept per variable (0 = none, +1 pos, -1 neg).
	out := make([]pb.Lit, 0, len(lits))
	var have map[pb.Var]int8
	if len(lits) > 1 {
		have = make(map[pb.Var]int8, len(lits))
	}
	for _, l := range lits {
		if l < 0 || int(l.Var()) >= e.nVars {
			return ImportInvalid
		}
		switch e.LitValue(l) {
		case True:
			return ImportSatisfied // root-true: permanently satisfied
		case False:
			continue // root-false: can never help; drop
		}
		if have != nil {
			sign := int8(1)
			if l.IsNeg() {
				sign = -1
			}
			switch have[l.Var()] {
			case sign:
				continue // duplicate literal
			case -sign:
				return ImportSatisfied // tautological pair
			}
			have[l.Var()] = sign
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		return ImportConflict
	case 1:
		idx := e.AddCons([]pb.Term{{Coef: 1, Lit: out[0]}}, 1)
		e.assign(out[0], int32(idx))
		e.Stats.Imported++
		return ImportUnit
	}
	// All surviving literals are unassigned at the root: any two are valid
	// watches. internClause copies the literals into the engine's arena, so
	// the stored clause can never alias the (foreign, cross-goroutine)
	// input buffer — see TestImportClauseInternsLiterals.
	idx := e.internClause(out)
	e.Stats.Imported++
	e.watchBoth(idx)
	return ImportAdded
}
