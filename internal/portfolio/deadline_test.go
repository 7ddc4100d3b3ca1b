package portfolio

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pb"
	"repro/internal/wbo"
)

// pigeonhole returns the unsatisfiable placement of holes+1 pigeons into
// holes holes: a clause per pigeon, an at-most-one row per hole. From nine
// holes up, no member proves it within seconds.
func pigeonhole(holes int) *pb.Problem {
	pigeons := holes + 1
	p := pb.NewProblem(pigeons * holes)
	at := func(i, j int) pb.Var { return pb.Var(i*holes + j) }
	for i := 0; i < pigeons; i++ {
		var lits []pb.Lit
		for j := 0; j < holes; j++ {
			lits = append(lits, pb.PosLit(at(i, j)))
		}
		_ = p.AddClause(lits...)
	}
	for j := 0; j < holes; j++ {
		var terms []pb.Term
		for i := 0; i < pigeons; i++ {
			terms = append(terms, pb.Term{Coef: 1, Lit: pb.PosLit(at(i, j))})
		}
		_ = p.AddConstraint(terms, pb.LE, 1)
	}
	return p
}

// TestRaceStopsAtOneDeadline runs the four B&B members one after another
// (MaxConcurrent 1) on an instance none of them finishes in time. Every
// member stops at the one deadline, so the members that start late get what
// is left of the time and the race ends near the limit, not after four
// limits.
func TestRaceStopsAtOneDeadline(t *testing.T) {
	const limit = 300 * time.Millisecond
	p := pigeonhole(9)
	start := time.Now()
	res := SolveOpts(p, Roster(core.Options{Deadline: start.Add(limit)}, 0, 0, nil), Options{MaxConcurrent: 1})
	if el := time.Since(start); el > limit+limit/2 {
		t.Fatalf("a race under a %v deadline ran %v", limit, el)
	}
	if res.Status != core.StatusLimit || len(res.Members) != 4 {
		t.Fatalf("status=%v members=%d, want limit over 4 members", res.Status, len(res.Members))
	}
}

// TestRosterOrderAndLimits pins the roster: core-guided first, then the LS
// members, then the B&B members, each under the base limits its kind reads.
func TestRosterOrderAndLimits(t *testing.T) {
	base := core.Options{
		Deadline:     time.Now().Add(time.Hour),
		MaxConflicts: 77,
		Tuning:       core.Tuning{NoCuts: true},
		OnIncumbent:  func(int64) {},
	}
	configs := Roster(base, 2, 500, &wbo.Instance{})
	var names []string
	for _, c := range configs {
		names = append(names, c.name())
	}
	if want := []string{"core-guided", "ls1", "ls2", "plain", "mis", "lgr", "lpr"}; !slices.Equal(names, want) {
		t.Fatalf("roster %v, want %v", names, want)
	}
	cg := configs[0].CoreGuided.Options
	if !cg.Deadline.Equal(base.Deadline) || cg.MaxConflicts != 77 {
		t.Fatalf("core-guided member options %+v", cg)
	}
	for _, c := range configs[1:3] {
		if !c.LS.Deadline.Equal(base.Deadline) || c.LS.MaxFlips != 500 || c.LS.OnIncumbent == nil {
			t.Fatalf("LS member %s options %+v", c.name(), *c.LS)
		}
	}
	for _, c := range configs[3:] {
		o := c.Options
		if !o.Deadline.Equal(base.Deadline) || o.MaxConflicts != 77 || !o.NoCuts || o.OnIncumbent == nil {
			t.Fatalf("B&B member %s options %+v", c.name(), o)
		}
	}
}
