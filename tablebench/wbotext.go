package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"repro/internal/pb"
	"repro/internal/wbo"
)

// writeWBO renders in as soft OPB, the format wcnf.ParseWBO (and bsolo -wbo)
// reads: a "soft: <top> ;" header, hard rows as plain OPB constraints and
// soft rows prefixed with their "[weight]". Variables are named from
// in.Names when set and x<k> (1-based) otherwise. Soft OPB has no offset
// syntax, so an instance with a nonzero Offset is refused.
func writeWBO(w io.Writer, in *wbo.Instance) error {
	if in.Offset != 0 {
		return errors.New("writeWBO: soft OPB cannot carry a nonzero offset")
	}
	top := int64(1)
	for i := range in.Soft {
		var err error
		if top, err = pb.CheckedAdd(top, in.Soft[i].Weight); err != nil {
			return fmt.Errorf("writeWBO: top cost: %w", err)
		}
	}
	bw := bufio.NewWriter(w)
	row := func(terms []pb.Term, cmp pb.Cmp, rhs int64) {
		for _, t := range terms {
			lit := wboName(in, t.Lit.Var())
			if t.Lit.IsNeg() {
				lit = "~" + lit
			}
			fmt.Fprintf(bw, " %+d %s", t.Coef, lit)
		}
		fmt.Fprintf(bw, " %s %d ;\n", cmp, rhs)
	}
	fmt.Fprintf(bw, "* #variable= %d #constraint= %d #soft= %d\n", in.NumVars, len(in.Hard)+len(in.Soft), len(in.Soft))
	fmt.Fprintf(bw, "soft: %d ;\n", top)
	for i := range in.Hard {
		h := &in.Hard[i]
		row(h.Terms, h.Cmp, h.Rhs)
	}
	for i := range in.Soft {
		s := &in.Soft[i]
		fmt.Fprintf(bw, "[%d]", s.Weight)
		row(s.Terms, s.Cmp, s.Rhs)
	}
	return bw.Flush()
}

// wboName is the name writeWBO gives variable v.
func wboName(in *wbo.Instance, v pb.Var) string {
	if int(v) < len(in.Names) && in.Names[v] != "" {
		return in.Names[v]
	}
	return fmt.Sprintf("x%d", int(v)+1)
}
