// Package opb reads and writes pseudo-Boolean instances in the OPB format
// used by the pseudo-Boolean evaluation series and by solvers such as bsolo,
// PBS and Galena.
//
// Supported syntax (one statement per line, '*' starts a comment):
//
//	min: +1 x1 +2 x2 ;
//	+1 x1 +2 x2 >= 2 ;
//	+3 x1 -2 x3 = 1 ;
//	-1 x2 +1 x4 <= 0 ;
//
// Variables are named x<k> with k ≥ 1, or arbitrary identifiers (a letter
// or '_' followed by letters, digits or '_'); negated literals are written
// ~x<k>. Coefficients may omit the leading '+'.
package opb

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/pb"
)

// Parse reads an OPB instance from r and returns the normalized problem.
// Negative objective coefficients are normalized via x = 1 − ¬x: the cost is
// attached to the complemented polarity by introducing the substitution in
// the objective offset, keeping all pb.Problem costs non-negative.
func Parse(r io.Reader) (*pb.Problem, error) {
	buf, err := ReadAll(r)
	if err != nil {
		return nil, err
	}
	return parse(buf)
}

// ParseString parses an OPB instance from a string.
func ParseString(s string) (*pb.Problem, error) {
	return parse([]byte(s))
}

func parse(buf []byte) (*pb.Problem, error) {
	vars, cons := sizeHint(buf)
	p := &pb.Problem{
		Cost:        make([]int64, 0, vars),
		Names:       make([]string, 0, vars),
		Constraints: make([]*pb.Constraint, 0, cons),
	}
	rd := &Reader{Scanner: NewScanner(buf), prefix: "opb", vars: make(map[string]pb.Var, vars),
		products: &productTable{prob: p, byKey: map[string]pb.Var{}},
		newVar: func(name string) pb.Var {
			p.Names = append(p.Names, name)
			return p.AddVar(0)
		}}

	// negCost[v] accumulates cost placed on x_v = 0 from negative objective
	// coefficients; folded into Cost/CostOffset at the end.
	var negCost []int64
	sawObjective := false
	var tokBuf [256][]byte // on the stack: storing a token needs no write barrier
	for toks, ok := rd.Statement(tokBuf[:0]); ok; toks, ok = rd.Statement(tokBuf[:0]) {
		isObj, err := rd.Objective(toks)
		if err != nil {
			return nil, err
		}
		if !isObj {
			lhs, cmp, rhs, err := rd.Constraint(toks)
			if err != nil {
				return nil, err
			}
			terms, err := rd.Terms(lhs)
			if err != nil {
				return nil, err
			}
			if err := p.AddConstraint(terms, cmp, rhs); err != nil {
				return nil, err
			}
			continue
		}
		for _, t := range toks[1:] {
			if _, ok := relation(t); ok {
				return nil, rd.Errorf("relational operator in objective")
			}
		}
		terms, err := rd.Terms(toks[1:])
		if err != nil {
			return nil, err
		}
		if sawObjective {
			return nil, rd.Errorf("duplicate objective")
		}
		sawObjective = true
		for _, t := range terms {
			coef, v := t.Coef, t.Lit.Var()
			if t.Lit.IsNeg() {
				// c·¬x = c − c·x: offset c, coefficient −c on x.
				if p.CostOffset, err = pb.CheckedAdd(p.CostOffset, coef); err != nil {
					return nil, rd.Errorf("objective offset: %w", err)
				}
				if coef, err = pb.CheckedNeg(coef); err != nil {
					return nil, rd.Errorf("objective coefficient: %w", err)
				}
			}
			if coef >= 0 {
				if p.Cost[v], err = pb.CheckedAdd(p.Cost[v], coef); err != nil {
					return nil, rd.Errorf("objective coefficient on %s: %w", p.VarName(v), err)
				}
				continue
			}
			// coef·x = coef + (−coef)·¬x: move the constant into the offset
			// and pay −coef when x = 0.
			if p.CostOffset, err = pb.CheckedAdd(p.CostOffset, coef); err != nil {
				return nil, rd.Errorf("objective offset: %w", err)
			}
			if negCost == nil {
				negCost = make([]int64, p.NumVars)
			}
			nc, err := pb.CheckedNeg(coef)
			if err != nil {
				return nil, rd.Errorf("objective coefficient: %w", err)
			}
			if negCost[v], err = pb.CheckedAdd(negCost[v], nc); err != nil {
				return nil, rd.Errorf("objective coefficient on %s: %w", p.VarName(v), err)
			}
		}
	}
	if err := rd.products.flushDefinitions(); err != nil {
		return nil, err
	}

	// Fold negative objective coefficients: −c·x = −c + c·¬x, i.e. cost c on
	// x=0. Net cost on v is Cost[v] − negCost[v]; whichever polarity is
	// cheaper absorbs the offset.
	for i, nc := range negCost {
		v := pb.Var(i)
		if nc == 0 {
			continue
		}
		net, err := pb.CheckedSub(p.Cost[v], nc)
		if err != nil {
			return nil, fmt.Errorf("opb: net objective coefficient on %s: %w", p.VarName(v), err)
		}
		if net >= 0 {
			// Cost[v]·x + nc·(1−x) = nc + net·x.
			p.Cost[v] = net
			if p.CostOffset, err = pb.CheckedAdd(p.CostOffset, nc); err != nil {
				return nil, fmt.Errorf("opb: objective offset: %w", err)
			}
		} else {
			// Cheaper to pay on x=1 side: offset Cost[v], remaining −net on x=0.
			if p.CostOffset, err = pb.CheckedAdd(p.CostOffset, p.Cost[v]); err != nil {
				return nil, fmt.Errorf("opb: objective offset: %w", err)
			}
			p.Cost[v] = 0
			// Penalize x_v = 0 by −net: add constraint-free cost via a fresh
			// complement variable y ≡ ¬x with cost −net.
			y := p.AddVar(-net)
			p.Names = append(p.Names, "_n"+p.VarName(v))
			// y + x >= 1 and ¬y + ¬x >= 1 enforce y = ¬x.
			if err := p.AddClause(pb.PosLit(y), pb.PosLit(v)); err != nil {
				return nil, err
			}
			if err := p.AddClause(pb.NegLit(y), pb.NegLit(v)); err != nil {
				return nil, err
			}
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Write renders p in OPB syntax. Variables are written using p.Names when
// available and x<k> (1-based) otherwise. The objective offset, if nonzero,
// is recorded in a comment (OPB has no offset syntax).
func Write(w io.Writer, p *pb.Problem) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "* #variable= %d #constraint= %d\n", p.NumVars, len(p.Constraints))
	if p.CostOffset != 0 {
		fmt.Fprintf(bw, "* objective offset = %d\n", p.CostOffset)
	}
	if p.HasObjective() {
		bw.WriteString("min:")
		for v := 0; v < p.NumVars; v++ {
			if p.Cost[v] != 0 {
				fmt.Fprintf(bw, " +%d %s", p.Cost[v], p.VarName(pb.Var(v)))
			}
		}
		bw.WriteString(" ;\n")
	}
	for _, c := range p.Constraints {
		// Deterministic term order: as stored (already sorted by AddConstraint).
		for i, t := range c.Terms {
			if i > 0 {
				bw.WriteByte(' ')
			}
			lit := p.VarName(t.Lit.Var())
			if t.Lit.IsNeg() {
				lit = "~" + lit
			}
			fmt.Fprintf(bw, "+%d %s", t.Coef, lit)
		}
		fmt.Fprintf(bw, " >= %d ;\n", c.Degree)
	}
	return bw.Flush()
}

// WriteString renders p in OPB syntax and returns it as a string.
func WriteString(p *pb.Problem) string {
	var sb strings.Builder
	_ = Write(&sb, p)
	return sb.String()
}
