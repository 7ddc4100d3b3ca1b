// Package wcnf reads Weighted Boolean Optimization instances: the weighted
// CNF (WCNF) format of the MaxSAT evaluation series and the soft-OPB (.wbo)
// extension of the pseudo-Boolean competition format. Both parse into a
// wbo.Instance, which compiles through internal/soft for branch-and-bound or
// solves core-guided through internal/wbo.
//
// WCNF:
//
//	c comments
//	p wcnf <nvars> <nclauses> [<top>]
//	<weight> <lit> <lit> ... 0
//
// A clause whose weight is ≥ top is hard; with no top every clause is soft
// (plain weighted MaxSAT). Weights must be positive. Clauses may span lines;
// the terminating 0 is mandatory.
//
// Soft OPB (.wbo), where lines starting with "*" are comments:
//
//	soft: <top> ;
//	[<weight>] +1 x1 +2 x2 >= 2 ;      (soft constraint)
//	+1 x1 +1 x3 >= 1 ;                 (hard constraint)
//
// An optional "min:" objective line is accepted and converted to unit soft
// constraints (a coefficient a on literal l becomes a soft constraint
// "l is false" of weight |a|, with sign handling through the instance
// offset), so plain OPB objectives round-trip through the WBO pipeline.
package wcnf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/pb"
	"repro/internal/wbo"
)

// hardEmpty is the canonical encoding of a hard empty clause: 0 ≥ 1 is
// unconditionally false, so the instance is hard-UNSAT, matching MaxSAT
// evaluation semantics for an empty hard clause.
func hardEmpty() wbo.HardCons {
	return wbo.HardCons{Terms: nil, Cmp: pb.GE, Rhs: 1}
}

// Parse reads a WCNF instance from r.
func Parse(r io.Reader) (*wbo.Instance, error) {
	in := &wbo.Instance{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)

	var (
		sawHeader bool
		hasTop    bool
		top       int64
		declared  int
		lineNo    int
	)
	// Clause accumulator: weight then literals until a terminating 0.
	var (
		inClause bool
		weight   int64
		lits     []pb.Lit
		seen     map[pb.Lit]bool
	)

	endClause := func() error {
		inClause = false
		hard := hasTop && weight >= top
		// Duplicate literals in a clause are harmless repetition; tautological
		// pairs l, ¬l make the clause always true. Deduplicate here so the
		// GE-1 constraint below is well-formed for the solver core.
		uniq := lits[:0]
		taut := false
		for _, l := range lits {
			if seen[l] {
				continue
			}
			if seen[l.Neg()] {
				taut = true
			}
			seen[l] = true
			uniq = append(uniq, l)
		}
		lits = uniq
		if taut {
			return nil
		}
		if len(lits) == 0 {
			if hard {
				in.Hard = append(in.Hard, hardEmpty())
				return nil
			}
			// A soft empty clause can never be satisfied: its weight is an
			// unconditional part of every solution's cost.
			var err error
			if in.Offset, err = pb.CheckedAdd(in.Offset, weight); err != nil {
				return fmt.Errorf("wcnf: line %d: offset: %w", lineNo, err)
			}
			return nil
		}
		terms := make([]pb.Term, len(lits))
		for i, l := range lits {
			terms[i] = pb.Term{Coef: 1, Lit: l}
		}
		if hard {
			in.Hard = append(in.Hard, wbo.HardCons{Terms: terms, Cmp: pb.GE, Rhs: 1})
		} else {
			in.Soft = append(in.Soft, wbo.SoftCons{Weight: weight, Terms: terms, Cmp: pb.GE, Rhs: 1})
		}
		return nil
	}

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == 'c' {
			continue
		}
		if line[0] == 'p' {
			if sawHeader {
				return nil, fmt.Errorf("wcnf: line %d: duplicate header", lineNo)
			}
			if inClause {
				return nil, fmt.Errorf("wcnf: line %d: header inside clause", lineNo)
			}
			f := strings.Fields(line)
			if len(f) < 4 || len(f) > 5 || f[1] != "wcnf" {
				return nil, fmt.Errorf("wcnf: line %d: bad header %q (want \"p wcnf nvars nclauses [top]\")", lineNo, line)
			}
			nv, err := strconv.Atoi(f[2])
			if err != nil || nv < 0 {
				return nil, fmt.Errorf("wcnf: line %d: bad variable count %q", lineNo, f[2])
			}
			nc, err := strconv.Atoi(f[3])
			if err != nil || nc < 0 {
				return nil, fmt.Errorf("wcnf: line %d: bad clause count %q", lineNo, f[3])
			}
			declared = nc
			if len(f) == 5 {
				top, err = strconv.ParseInt(f[4], 10, 64)
				if err != nil || top <= 0 {
					return nil, fmt.Errorf("wcnf: line %d: bad top weight %q", lineNo, f[4])
				}
				hasTop = true
			}
			in.NumVars = nv
			sawHeader = true
			continue
		}
		if !sawHeader {
			return nil, fmt.Errorf("wcnf: line %d: clause before header", lineNo)
		}
		for _, tok := range strings.Fields(line) {
			if !inClause {
				w, err := strconv.ParseInt(tok, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("wcnf: line %d: bad clause weight %q", lineNo, tok)
				}
				if w <= 0 {
					return nil, fmt.Errorf("wcnf: line %d: clause weight must be positive, got %d", lineNo, w)
				}
				inClause = true
				weight = w
				lits = lits[:0]
				if seen == nil {
					seen = map[pb.Lit]bool{}
				} else {
					clear(seen)
				}
				continue
			}
			lv, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("wcnf: line %d: bad literal %q", lineNo, tok)
			}
			if lv == 0 {
				if err := endClause(); err != nil {
					return nil, err
				}
				continue
			}
			v := lv
			neg := false
			if v < 0 {
				v, neg = -v, true
			}
			if v > in.NumVars {
				return nil, fmt.Errorf("wcnf: line %d: literal %d exceeds declared %d variables", lineNo, lv, in.NumVars)
			}
			lits = append(lits, pb.MkLit(pb.Var(v-1), neg))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("wcnf: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("wcnf: missing \"p wcnf\" header")
	}
	if inClause {
		return nil, fmt.Errorf("wcnf: unterminated clause at end of input (missing 0)")
	}
	if got := len(in.Hard) + len(in.Soft); declared > 0 && got > declared {
		return nil, fmt.Errorf("wcnf: %d clauses parsed but header declared %d", got, declared)
	}
	for v := 0; v < in.NumVars; v++ {
		in.Names = append(in.Names, "x"+strconv.Itoa(v+1))
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// ParseWBO reads a soft-OPB (.wbo) instance from r.
func ParseWBO(r io.Reader) (*wbo.Instance, error) {
	in := &wbo.Instance{}
	vars := map[string]pb.Var{}
	getVar := func(name string) (pb.Var, error) {
		if v, ok := vars[name]; ok {
			return v, nil
		}
		if !validName(name) {
			return 0, fmt.Errorf("wbo: bad variable name %q", name)
		}
		v := pb.Var(in.NumVars)
		in.NumVars++
		in.Names = append(in.Names, name)
		vars[name] = v
		return v, nil
	}

	var (
		hasTop       bool
		top          int64
		sawObjective bool
		lineNo       int
		pending      []string
	)

	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		toks := pending
		pending = nil

		if strings.EqualFold(toks[0], "soft:") {
			if hasTop {
				return fmt.Errorf("wbo: line %d: duplicate soft: header", lineNo)
			}
			if len(toks) > 2 {
				return fmt.Errorf("wbo: line %d: bad soft: header %v", lineNo, toks)
			}
			hasTop = true
			if len(toks) == 2 {
				t, err := strconv.ParseInt(toks[1], 10, 64)
				if err != nil || t <= 0 {
					return fmt.Errorf("wbo: line %d: bad top cost %q", lineNo, toks[1])
				}
				top = t
			}
			return nil
		}
		if strings.EqualFold(toks[0], "min:") {
			if sawObjective {
				return fmt.Errorf("wbo: line %d: duplicate objective", lineNo)
			}
			sawObjective = true
			return addObjective(in, toks[1:], getVar, lineNo)
		}
		if strings.EqualFold(toks[0], "max:") {
			return fmt.Errorf("wbo: line %d: max: objectives are not supported (negate to min:)", lineNo)
		}

		// Soft constraints carry a "[w]" weight prefix.
		var weight int64
		isSoft := false
		if w, ok := strings.CutPrefix(toks[0], "["); ok {
			body, ok := strings.CutSuffix(w, "]")
			if !ok {
				return fmt.Errorf("wbo: line %d: unterminated weight prefix %q", lineNo, toks[0])
			}
			wv, err := strconv.ParseInt(body, 10, 64)
			if err != nil || wv <= 0 {
				return fmt.Errorf("wbo: line %d: soft weight must be a positive integer, got %q", lineNo, body)
			}
			if hasTop && top > 0 && wv >= top {
				return fmt.Errorf("wbo: line %d: soft weight %d is not below the top cost %d", lineNo, wv, top)
			}
			weight, isSoft = wv, true
			toks = toks[1:]
		}

		relIdx := -1
		var cmp pb.Cmp
		for i, t := range toks {
			switch t {
			case ">=":
				relIdx, cmp = i, pb.GE
			case "<=":
				relIdx, cmp = i, pb.LE
			case "=":
				relIdx, cmp = i, pb.EQ
			}
			if relIdx >= 0 {
				break
			}
		}
		if relIdx < 0 {
			return fmt.Errorf("wbo: line %d: constraint without relational operator", lineNo)
		}
		rhsToks := toks[relIdx+1:]
		if len(rhsToks) != 1 {
			return fmt.Errorf("wbo: line %d: expected single right-hand side, got %v", lineNo, rhsToks)
		}
		rhs, err := strconv.ParseInt(rhsToks[0], 10, 64)
		if err != nil {
			return fmt.Errorf("wbo: line %d: bad right-hand side %q", lineNo, rhsToks[0])
		}
		terms, err := parseTerms(toks[:relIdx], getVar, lineNo)
		if err != nil {
			return err
		}
		if isSoft {
			in.Soft = append(in.Soft, wbo.SoftCons{Weight: weight, Terms: terms, Cmp: cmp, Rhs: rhs})
		} else {
			in.Hard = append(in.Hard, wbo.HardCons{Terms: terms, Cmp: cmp, Rhs: rhs})
		}
		return nil
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '*'); i >= 0 {
			line = line[:i]
		}
		for _, field := range strings.Fields(line) {
			for {
				semi := strings.IndexByte(field, ';')
				if semi < 0 {
					pending = append(pending, field)
					break
				}
				if semi > 0 {
					pending = append(pending, field[:semi])
				}
				if err := flush(); err != nil {
					return nil, err
				}
				field = field[semi+1:]
				if field == "" {
					break
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("wbo: %w", err)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if !hasTop {
		return nil, fmt.Errorf("wbo: missing \"soft:\" header")
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// addObjective converts a "min:" objective into unit soft constraints:
// +a·x is a soft constraint x = 0 of weight a (pay a when x is true), and
// −a·x is the substitution a·x − a + a·(1−x): offset −a plus a soft
// constraint x = 1 of weight a. Coefficient 0 terms are dropped.
func addObjective(in *wbo.Instance, toks []string, getVar func(string) (pb.Var, error), lineNo int) error {
	terms, err := parseTerms(toks, getVar, lineNo)
	if err != nil {
		return err
	}
	for _, t := range terms {
		coef := t.Coef
		lit := t.Lit
		if coef == 0 {
			continue
		}
		if coef < 0 {
			// coef·[l] = coef + |coef|·[¬l]: fold the constant into the
			// offset and pay |coef| when l is false.
			if in.Offset, err = pb.CheckedAdd(in.Offset, coef); err != nil {
				return fmt.Errorf("wbo: line %d: objective offset: %w", lineNo, err)
			}
			if coef, err = pb.CheckedNeg(coef); err != nil {
				return fmt.Errorf("wbo: line %d: objective coefficient: %w", lineNo, err)
			}
			lit = lit.Neg()
		}
		// Soft constraint "lit is false": violated (paying coef) iff lit true.
		in.Soft = append(in.Soft, wbo.SoftCons{
			Weight: coef,
			Terms:  []pb.Term{{Coef: 1, Lit: lit}},
			Cmp:    pb.LE,
			Rhs:    0,
		})
	}
	return nil
}

// parseTerms parses an alternating coefficient/literal token sequence.
// Literals are x<k> or identifiers, with '~' negation; a missing coefficient
// defaults to +1 (some generators emit bare literals in objectives).
func parseTerms(toks []string, getVar func(string) (pb.Var, error), lineNo int) ([]pb.Term, error) {
	var terms []pb.Term
	i := 0
	for i < len(toks) {
		coef := int64(1)
		tok := toks[i]
		if c, err := strconv.ParseInt(tok, 10, 64); err == nil {
			coef = c
			i++
			if i >= len(toks) {
				return nil, fmt.Errorf("wbo: line %d: coefficient %d without literal", lineNo, coef)
			}
			tok = toks[i]
		}
		neg := false
		if strings.HasPrefix(tok, "~") {
			neg = true
			tok = tok[1:]
		}
		v, err := getVar(tok)
		if err != nil {
			return nil, fmt.Errorf("wbo: line %d: %w", lineNo, err)
		}
		terms = append(terms, pb.Term{Coef: coef, Lit: pb.MkLit(v, neg)})
		i++
	}
	return terms, nil
}

// validName matches OPB identifiers: a letter or '_' followed by letters,
// digits or '_'.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
