// Package verify checks solver output against a problem instance: it parses
// PB-competition-style value lines ("v x1 -x2 …"), maps names back to
// variables, and reports feasibility, objective value, and the first
// violated constraint on failure. cmd/pbcheck is a thin wrapper around it;
// tests use it to validate solver models end-to-end, and the in-search
// invariant auditor (internal/audit) uses Check to re-verify every adopted
// incumbent.
package verify

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/pb"
)

// Assignment is a parsed value line.
type Assignment struct {
	// Values is the per-variable assignment (length NumVars).
	Values []bool
	// Missing counts variables absent from the value line. Each missing
	// variable defaults to its zero-cost polarity: plain variables (all
	// normalized costs are ≥ 0 on x=1) default to false, while variables
	// carrying the negative-cost normalization of internal/opb — a base
	// variable paired with a synthetic "_n<name>" complement — default so
	// that the costed complement stays false (base true, complement false),
	// and an absent partner is always derived from the present one so the
	// y = ¬x linking clauses hold. CostOffset bookkeeping then makes the
	// reported objective exact in the original (pre-normalization) space.
	Missing int
	// Derived counts the subset of Missing filled in from a negative-cost
	// partner (complement set to the negation of its base or vice versa)
	// rather than by the blanket zero-cost default.
	Derived int
}

// Report is the outcome of checking an assignment.
type Report struct {
	Feasible bool
	// Objective is the assignment's objective value (CostOffset included);
	// meaningful even when infeasible.
	Objective int64
	// ViolatedIdx is the index of the first violated constraint (-1 when
	// feasible); Violated is that constraint.
	ViolatedIdx int
	Violated    *pb.Constraint
}

// Index is the cached name→variable map of one problem, hoisting the
// per-call map rebuild out of ParseValueLine. Build it once per problem and
// reuse it across value lines (ScanValueLine does this internally; long-lived
// checkers like cmd/pbcheck and the fuzzer's differential loop hold one).
type Index struct {
	p      *pb.Problem
	byName map[string]pb.Var
	// baseOf maps a synthetic negative-cost complement ("_n<name>", created
	// by internal/opb's objective normalization) to its base variable;
	// compOf is the inverse. Used to derive absent partners (y = ¬x) and to
	// pick the zero-cost default for absent pairs.
	baseOf map[pb.Var]pb.Var
	compOf map[pb.Var]pb.Var
}

// NewIndex builds the cached index for p.
func NewIndex(p *pb.Problem) *Index {
	ix := &Index{p: p, byName: make(map[string]pb.Var, p.NumVars)}
	for v := 0; v < p.NumVars; v++ {
		ix.byName[p.VarName(pb.Var(v))] = pb.Var(v)
	}
	for v := 0; v < p.NumVars; v++ {
		name := p.VarName(pb.Var(v))
		if !strings.HasPrefix(name, "_n") {
			continue
		}
		base, ok := ix.byName[name[len("_n"):]]
		if !ok {
			continue
		}
		if ix.baseOf == nil {
			ix.baseOf = map[pb.Var]pb.Var{}
			ix.compOf = map[pb.Var]pb.Var{}
		}
		ix.baseOf[pb.Var(v)] = base
		ix.compOf[base] = pb.Var(v)
	}
	return ix
}

// ParseValueLine parses a whitespace-separated list of literals
// ("x1 -x2 x3"); a leading "v" marker is accepted and stripped (including a
// bare "v" for zero-variable instances). Unknown variable names and
// contradictory tokens for the same variable ("x1 -x1") are errors.
func (ix *Index) ParseValueLine(line string) (Assignment, error) {
	p := ix.p
	line = strings.TrimSpace(line)
	if line == "v" {
		line = ""
	} else {
		line = strings.TrimPrefix(line, "v ")
	}
	out := Assignment{Values: make([]bool, p.NumVars)}
	seen := make([]bool, p.NumVars)
	for _, tok := range strings.Fields(line) {
		val := true
		name := tok
		if strings.HasPrefix(tok, "-") {
			val = false
			name = tok[1:]
		}
		v, ok := ix.byName[name]
		if !ok {
			return Assignment{}, fmt.Errorf("verify: unknown variable %q", name)
		}
		if seen[v] && out.Values[v] != val {
			return Assignment{}, fmt.Errorf("verify: contradictory assignment for %q", name)
		}
		out.Values[v] = val
		seen[v] = true
	}
	for v := 0; v < p.NumVars; v++ {
		if seen[v] {
			continue
		}
		out.Missing++
		vv := pb.Var(v)
		if base, ok := ix.lookupBase(vv); ok {
			// Missing complement: derive y = ¬x from the base (present or
			// itself defaulted — bases are numbered before their synthetic
			// complements, so Values[base] is final by the time we get here).
			out.Values[v] = !out.Values[base]
			out.Derived++
			continue
		}
		if comp, ok := ix.lookupComp(vv); ok {
			// Missing base of a negative-cost pair: the zero-cost polarity is
			// true (the costed "_n" complement then stays false — matching
			// the original objective, where this variable's coefficient was
			// negative and x=1 is the cheap side). If the complement was
			// given explicitly, stay consistent with it instead.
			if seen[comp] {
				out.Values[v] = !out.Values[comp]
				out.Derived++
			} else {
				out.Values[v] = true
			}
			continue
		}
		// Plain variable: false is the zero-cost polarity (normalized costs
		// are non-negative on x=1).
		out.Values[v] = false
	}
	return out, nil
}

func (ix *Index) lookupBase(comp pb.Var) (pb.Var, bool) {
	if ix.baseOf == nil {
		return 0, false
	}
	b, ok := ix.baseOf[comp]
	return b, ok
}

func (ix *Index) lookupComp(base pb.Var) (pb.Var, bool) {
	if ix.compOf == nil {
		return 0, false
	}
	c, ok := ix.compOf[base]
	return c, ok
}

// ParseValueLine parses one value line against p. Callers parsing many lines
// against the same problem should build an Index once and use its method.
func ParseValueLine(p *pb.Problem, line string) (Assignment, error) {
	return NewIndex(p).ParseValueLine(line)
}

// ScanValueLine reads lines from r, concatenating every "v" line (the
// PB-competition format allows the value line to wrap across several "v"
// lines), and parses the combined assignment. A bare "v" line is accepted
// for zero-variable instances. The name index is built once and shared by
// all lines.
func ScanValueLine(p *pb.Problem, r io.Reader) (Assignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var parts []string
	found := false
	for sc.Scan() {
		txt := strings.TrimSpace(sc.Text())
		switch {
		case txt == "v":
			found = true
		case strings.HasPrefix(txt, "v "):
			found = true
			parts = append(parts, txt[len("v "):])
		}
	}
	if err := sc.Err(); err != nil {
		return Assignment{}, err
	}
	if !found {
		return Assignment{}, fmt.Errorf("verify: no 'v' line found")
	}
	return NewIndex(p).ParseValueLine(strings.Join(parts, " "))
}

// Check evaluates the assignment against every constraint.
func Check(p *pb.Problem, values []bool) Report {
	rep := Report{Feasible: true, ViolatedIdx: -1, Objective: p.ObjectiveValue(values)}
	for i, c := range p.Constraints {
		if !c.Eval(values) {
			rep.Feasible = false
			rep.ViolatedIdx = i
			rep.Violated = c
			return rep
		}
	}
	return rep
}

// FormatValueLine renders an assignment as a PB-competition value line.
func FormatValueLine(p *pb.Problem, values []bool) string {
	var sb strings.Builder
	sb.WriteString("v")
	for v := 0; v < p.NumVars; v++ {
		sb.WriteByte(' ')
		if !values[v] {
			sb.WriteByte('-')
		}
		sb.WriteString(p.VarName(pb.Var(v)))
	}
	return sb.String()
}
