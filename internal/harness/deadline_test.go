package harness

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/pb"
	"repro/internal/wbo"
)

// pigeonholeRow is a wbo row whose hard part places holes+1 pigeons into
// holes holes, with one soft unit per hole so the compilation has an
// objective. The hard part is unsatisfiable, and from nine holes up no
// column proves it within seconds: the holes are pairwise clauses, not
// at-most-one rows, so the LP relaxation stays feasible.
func pigeonholeRow(t *testing.T, holes int) Instance {
	t.Helper()
	pigeons := holes + 1
	in := &wbo.Instance{NumVars: pigeons * holes}
	at := func(i, j int) pb.Lit { return pb.PosLit(pb.Var(i*holes + j)) }
	for i := 0; i < pigeons; i++ {
		var terms []pb.Term
		for j := 0; j < holes; j++ {
			terms = append(terms, pb.Term{Coef: 1, Lit: at(i, j)})
		}
		in.Hard = append(in.Hard, wbo.HardCons{Terms: terms, Cmp: pb.GE, Rhs: 1})
	}
	for j := 0; j < holes; j++ {
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				in.Hard = append(in.Hard, wbo.HardCons{Terms: []pb.Term{
					{Coef: 1, Lit: at(i, j).Neg()}, {Coef: 1, Lit: at(k, j).Neg()}}, Cmp: pb.GE, Rhs: 1})
			}
		}
		in.Soft = append(in.Soft, wbo.SoftCons{Weight: int64(j + 1),
			Terms: []pb.Term{{Coef: 1, Lit: at(0, j).Neg()}}, Cmp: pb.GE, Rhs: 1})
	}
	b, err := in.Builder()
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Problem()
	if err != nil {
		t.Fatal(err)
	}
	return Instance{Name: "php", Family: FamilyWbo, Prob: p, WBO: in}
}

// TestEveryColumnStopsAtTheCellDeadline runs every column on a row that
// outlives the cell's time limit, on one CPU: the races serialize their
// members there, and every member of every column must still stop at the
// cell's one deadline.
func TestEveryColumnStopsAtTheCellDeadline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const limit = 300 * time.Millisecond
	inst := pigeonholeRow(t, 9)
	for _, id := range Columns() {
		rr := Run(inst, id, Limits{Time: limit})
		if rr.Err != "" || rr.Solved {
			t.Errorf("%s: err=%q solved=%t on an instance no column finishes", id, rr.Err, rr.Solved)
		}
		if rr.Duration > limit+limit/2 {
			t.Errorf("%s: ran %v under a %v limit", id, rr.Duration, limit)
		}
	}
}
