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
	"bytes"
	"fmt"
	"io"
	"strconv"

	"repro/internal/opb"
	"repro/internal/pb"
	"repro/internal/wbo"
)

// Parse reads a WCNF instance from r.
func Parse(r io.Reader) (*wbo.Instance, error) {
	buf, err := opb.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("wcnf: %w", err)
	}
	in := &wbo.Instance{}
	sc := opb.NewScanner(buf)
	var (
		f         [][]byte // the current line's tokens
		sawHeader bool
		hasTop    bool
		top       int64
		declared  int
	)
	// Clause accumulator: weight then literals until a terminating 0.
	var (
		inClause bool
		weight   int64
		lits     []pb.Lit
		seen     = map[pb.Lit]bool{}
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
				// 0 ≥ 1 is unconditionally false, so the instance is
				// hard-UNSAT, as MaxSAT evaluation semantics demand.
				in.Hard = append(in.Hard, wbo.HardCons{Cmp: pb.GE, Rhs: 1})
				return nil
			}
			// A soft empty clause can never be satisfied: its weight is an
			// unconditional part of every solution's cost.
			var err error
			if in.Offset, err = pb.CheckedAdd(in.Offset, weight); err != nil {
				return fmt.Errorf("wcnf: line %d: offset: %w", sc.Line, err)
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

	for line, ok := sc.NextLine(); ok; line, ok = sc.NextLine() {
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == 'c' {
			continue
		}
		f = opb.Fields(f[:0], line)
		if line[0] == 'p' {
			if sawHeader {
				return nil, fmt.Errorf("wcnf: line %d: duplicate header", sc.Line)
			}
			if inClause {
				return nil, fmt.Errorf("wcnf: line %d: header inside clause", sc.Line)
			}
			if len(f) < 4 || len(f) > 5 || string(f[1]) != "wcnf" {
				return nil, fmt.Errorf("wcnf: line %d: bad header %q (want \"p wcnf nvars nclauses [top]\")", sc.Line, line)
			}
			nv, ok := opb.ParseInt(f[2])
			if !ok || nv < 0 {
				return nil, fmt.Errorf("wcnf: line %d: bad variable count %q", sc.Line, f[2])
			}
			nc, ok := opb.ParseInt(f[3])
			if !ok || nc < 0 {
				return nil, fmt.Errorf("wcnf: line %d: bad clause count %q", sc.Line, f[3])
			}
			declared = int(nc)
			if len(f) == 5 {
				if top, ok = opb.ParseInt(f[4]); !ok || top <= 0 {
					return nil, fmt.Errorf("wcnf: line %d: bad top weight %q", sc.Line, f[4])
				}
				hasTop = true
			}
			in.NumVars = int(nv)
			sawHeader = true
			continue
		}
		if !sawHeader {
			return nil, fmt.Errorf("wcnf: line %d: clause before header", sc.Line)
		}
		for _, tok := range f {
			if !inClause {
				w, ok := opb.ParseInt(tok)
				if !ok {
					return nil, fmt.Errorf("wcnf: line %d: bad clause weight %q", sc.Line, tok)
				}
				if w <= 0 {
					return nil, fmt.Errorf("wcnf: line %d: clause weight must be positive, got %d", sc.Line, w)
				}
				inClause = true
				weight = w
				lits = lits[:0]
				clear(seen)
				continue
			}
			lv, ok := opb.ParseInt(tok)
			if !ok {
				return nil, fmt.Errorf("wcnf: line %d: bad literal %q", sc.Line, tok)
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
			if v < 0 || v > int64(in.NumVars) { // v < 0: -MinInt64 overflows
				return nil, fmt.Errorf("wcnf: line %d: literal %d exceeds declared %d variables", sc.Line, lv, in.NumVars)
			}
			lits = append(lits, pb.MkLit(pb.Var(v-1), neg))
		}
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

// ParseWBO reads a soft-OPB (.wbo) instance from r. Soft OPB is OPB read by
// opb's Reader in its soft grammar, plus the "soft:" header and the "[w]"
// weight prefix handled here.
func ParseWBO(r io.Reader) (*wbo.Instance, error) {
	buf, err := opb.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("wbo: %w", err)
	}
	in := &wbo.Instance{}
	rd := opb.NewSoftReader(buf, func(name string) pb.Var {
		in.NumVars++
		in.Names = append(in.Names, name)
		return pb.Var(in.NumVars - 1)
	})
	var hasTop, sawObjective bool
	var top int64
	var tokBuf [256][]byte // on the stack: storing a token needs no write barrier
	for toks, ok := rd.Statement(tokBuf[:0]); ok; toks, ok = rd.Statement(tokBuf[:0]) {
		if bytes.EqualFold(toks[0], []byte("soft:")) {
			if hasTop {
				return nil, rd.Errorf("duplicate soft: header")
			}
			if len(toks) > 2 {
				return nil, rd.Errorf("bad soft: header [%s]", bytes.Join(toks, []byte(" ")))
			}
			hasTop = true
			if len(toks) == 2 {
				var ok bool
				if top, ok = opb.ParseInt(toks[1]); !ok || top <= 0 {
					return nil, rd.Errorf("bad top cost %q", toks[1])
				}
			}
			continue
		}
		isObj, err := rd.Objective(toks)
		if err != nil {
			return nil, err
		}
		if isObj {
			if sawObjective {
				return nil, rd.Errorf("duplicate objective")
			}
			sawObjective = true
			terms, err := rd.Terms(toks[1:])
			if err != nil {
				return nil, err
			}
			if err := addObjective(in, terms); err != nil {
				return nil, rd.Errorf("%w", err)
			}
			continue
		}

		// Soft constraints carry a "[w]" weight prefix; hard ones weigh 0.
		var weight int64
		if w, ok := bytes.CutPrefix(toks[0], []byte("[")); ok {
			body, ok := bytes.CutSuffix(w, []byte("]"))
			if !ok {
				return nil, rd.Errorf("unterminated weight prefix %q", toks[0])
			}
			wv, ok := opb.ParseInt(body)
			if !ok || wv <= 0 {
				return nil, rd.Errorf("soft weight must be a positive integer, got %q", body)
			}
			if hasTop && top > 0 && wv >= top {
				return nil, rd.Errorf("soft weight %d is not below the top cost %d", wv, top)
			}
			weight, toks = wv, toks[1:]
		}
		lhs, cmp, rhs, err := rd.Constraint(toks)
		if err != nil {
			return nil, err
		}
		terms, err := rd.Terms(lhs)
		if err != nil {
			return nil, err
		}
		terms = append([]pb.Term(nil), terms...)
		if weight > 0 {
			in.Soft = append(in.Soft, wbo.SoftCons{Weight: weight, Terms: terms, Cmp: cmp, Rhs: rhs})
		} else {
			in.Hard = append(in.Hard, wbo.HardCons{Terms: terms, Cmp: cmp, Rhs: rhs})
		}
	}
	if !hasTop {
		return nil, fmt.Errorf("wbo: missing \"soft:\" header")
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// addObjective converts the terms of a "min:" objective into unit soft
// constraints: +a·x is a soft constraint x = 0 of weight a (pay a when x is
// true), and −a·x is the substitution a·x − a + a·(1−x): offset −a plus a
// soft constraint x = 1 of weight a. Coefficient 0 terms are dropped.
func addObjective(in *wbo.Instance, terms []pb.Term) error {
	for _, t := range terms {
		coef := t.Coef
		lit := t.Lit
		if coef == 0 {
			continue
		}
		if coef < 0 {
			// coef·[l] = coef + |coef|·[¬l]: fold the constant into the
			// offset and pay |coef| when l is false.
			var err error
			if in.Offset, err = pb.CheckedAdd(in.Offset, coef); err != nil {
				return fmt.Errorf("objective offset: %w", err)
			}
			if coef, err = pb.CheckedNeg(coef); err != nil {
				return fmt.Errorf("objective coefficient: %w", err)
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
