package share

import (
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/pb"
)

func lits(vs ...int) []pb.Lit {
	out := make([]pb.Lit, len(vs))
	for i, v := range vs {
		if v < 0 {
			out[i] = pb.NegLit(pb.Var(-v - 1))
		} else {
			out[i] = pb.PosLit(pb.Var(v))
		}
	}
	return out
}

func TestIncumbentBoard(t *testing.T) {
	b := NewBoard()
	a, c := b.Join("a"), b.Join("c")
	if _, ok := b.BestUB(); ok {
		t.Fatal("fresh board has an upper bound")
	}
	if !a.PublishIncumbent(10, []bool{true, false}) {
		t.Fatal("first incumbent rejected")
	}
	if ub, ok := b.BestUB(); !ok || ub != 10 {
		t.Fatalf("ub=%d ok=%t", ub, ok)
	}
	if c.PublishIncumbent(12, []bool{false, false}) {
		t.Fatal("worse incumbent accepted")
	}
	if c.PublishIncumbent(10, []bool{false, false}) {
		t.Fatal("equal incumbent accepted")
	}
	if !c.PublishIncumbent(7, []bool{false, true}) {
		t.Fatal("better incumbent rejected")
	}
	// BestIncumbent only reports strictly below the caller's threshold.
	if _, _, ok := a.BestIncumbent(7); ok {
		t.Fatal("BestIncumbent(7) should be empty at ub=7")
	}
	cost, vals, ok := a.BestIncumbent(8)
	if !ok || cost != 7 || len(vals) != 2 || vals[0] || !vals[1] {
		t.Fatalf("BestIncumbent: cost=%d vals=%v ok=%t", cost, vals, ok)
	}
	// The returned slice is a private copy.
	vals[0] = true
	if _, v2, _, _ := b.BestSolution(); v2[0] {
		t.Fatal("BestIncumbent returned a shared slice")
	}
	st := b.Snapshot()
	if st.Members != 2 || st.Incumbents != 2 || !st.HasIncumbent ||
		st.BestCost != 7 || st.BestOwner != "c" {
		t.Fatalf("snapshot: %+v", st)
	}
}

func TestClauseFiltersAndDedup(t *testing.T) {
	b := NewBoard()
	m := b.Join("m")
	long := make([]int, maxLen+1)
	for i := range long {
		long[i] = i
	}
	if m.PublishClause(lits(long...), 1) {
		t.Fatal("over-length clause accepted")
	}
	if m.PublishClause(lits(0, 1), maxLBD+1) {
		t.Fatal("high-LBD clause accepted")
	}
	if !m.PublishClause(lits(long[:maxLen]...), maxLBD) {
		t.Fatal("clause at the length and LBD limits rejected")
	}
	if !m.PublishClause(lits(0, 1), 2) {
		t.Fatal("good clause rejected")
	}
	// Same literal set in a different order is a duplicate.
	if m.PublishClause(lits(1, 0), 2) {
		t.Fatal("reordered duplicate accepted")
	}
	// Different polarity is a different clause.
	if !m.PublishClause(lits(-1, 0), 2) {
		t.Fatal("distinct clause rejected as duplicate")
	}
	st := b.Snapshot()
	if st.ClausesPublished != 3 || st.ClausesTooLong != 1 ||
		st.ClausesHighLBD != 1 || st.ClausesDuplicate != 1 {
		t.Fatalf("snapshot: %+v", st)
	}
}

func TestDrainSkipsOwnAndDeliversForeign(t *testing.T) {
	b := NewBoard()
	a, c := b.Join("a"), b.Join("c")
	a.PublishClause(lits(0, 1), 1)
	c.PublishClause(lits(2, 3), 1)
	var got [][]pb.Lit
	a.DrainClauses(func(l []pb.Lit) { got = append(got, l) })
	if len(got) != 1 || got[0][0] != pb.PosLit(2) {
		t.Fatalf("a drained %v", got)
	}
	// Cursor advanced: nothing new on a second drain.
	got = nil
	a.DrainClauses(func(l []pb.Lit) { got = append(got, l) })
	if len(got) != 0 {
		t.Fatalf("second drain delivered %v", got)
	}
	// A member joining late sees the full live window.
	var late [][]pb.Lit
	b.Join("late").DrainClauses(func(l []pb.Lit) { late = append(late, l) })
	if len(late) != 2 {
		t.Fatalf("late drain got %d clauses", len(late))
	}
}

func TestRingLapAccounting(t *testing.T) {
	b := newBoard(4)
	pub := b.Join("pub")
	slow := b.Join("slow")
	for v := 0; v < 10; v++ {
		if !pub.PublishClause(lits(v, v+20), 1) {
			t.Fatalf("publish %d rejected", v)
		}
	}
	var got [][]pb.Lit
	slow.DrainClauses(func(l []pb.Lit) { got = append(got, l) })
	if len(got) != 4 {
		t.Fatalf("slow drain got %d clauses, want the live window 4", len(got))
	}
	if st := b.Snapshot(); st.ClausesLapped != 6 {
		t.Fatalf("lapped=%d want 6", st.ClausesLapped)
	}
}

// TestRingGrowsToItsSlots pins the on-demand ring: a new board holds no
// slot, the ring grows one entry per accepted clause and stops at its slot
// count, and a drainer that kept up sees every clause across the wrap.
func TestRingGrowsToItsSlots(t *testing.T) {
	if b := NewBoard(); len(b.ring) != 0 || cap(b.ring) != 0 {
		t.Fatalf("new board holds %d/%d ring slots, want none", len(b.ring), cap(b.ring))
	}
	b := newBoard(4)
	pub := b.Join("pub")
	drainer := b.Join("drainer")
	n := 0
	for v := 0; v < 10; v++ {
		pub.PublishClause(lits(v, v+20), 1)
		if want := min(v+1, 4); len(b.ring) != want {
			t.Fatalf("after %d clauses the ring holds %d entries, want %d", v+1, len(b.ring), want)
		}
		drainer.DrainClauses(func([]pb.Lit) { n++ })
	}
	if st := b.Snapshot(); n != 10 || st.ClausesLapped != 0 {
		t.Fatalf("drained %d of 10 clauses, lapped %d", n, st.ClausesLapped)
	}
}

func TestDedupWindowReopensAfterLap(t *testing.T) {
	b := newBoard(4)
	m := b.Join("m")
	if !m.PublishClause(lits(0, 1), 1) {
		t.Fatal("initial publish rejected")
	}
	for v := 2; v < 8; v++ { // push the first clause out of the window
		m.PublishClause(lits(v, v+20), 1)
	}
	if !m.PublishClause(lits(0, 1), 1) {
		t.Fatal("clause outside the live window still counted as duplicate")
	}
}

func TestConcurrentPublishDrain(t *testing.T) {
	b := newBoard(128)
	const members = 4
	var wg sync.WaitGroup
	for id := 0; id < members; id++ {
		m := b.Join("m")
		wg.Add(1)
		go func(id int, m *Member) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.PublishIncumbent(int64(1000-i), []bool{i%2 == 0})
				m.PublishClause(lits(id*200+i, id*200+i+1000), 2)
				m.DrainClauses(func(l []pb.Lit) {
					if len(l) != 2 {
						t.Error("corrupt drained clause")
					}
				})
				if ub, ok := m.BestUB(); ok && ub > 1000 {
					t.Error("upper bound went backwards")
				}
			}
		}(id, m)
	}
	wg.Wait()
	st := b.Snapshot()
	if st.ClausesPublished == 0 || !st.HasIncumbent {
		t.Fatalf("snapshot after concurrent run: %+v", st)
	}
	if st.BestCost != 801 {
		t.Fatalf("final ub=%d want 801", st.BestCost)
	}
}

func TestChaosCorruptShapes(t *testing.T) {
	defer fault.Reset()
	b := NewBoard()
	pub, sub := b.Join("pub"), b.Join("sub")

	check := func(value float64, wantLen int, desc string) {
		t.Helper()
		fault.Arm("share.import", fault.Spec{Kind: fault.KindCorrupt, Value: value})
		defer fault.Disarm("share.import")
		pub.PublishClause(lits(int(value)*2, int(value)*2+100), 1)
		var got [][]pb.Lit
		sub.DrainClauses(func(l []pb.Lit) { got = append(got, l) })
		if len(got) != 1 {
			t.Fatalf("%s: drained %d clauses", desc, len(got))
		}
		if len(got[0]) != wantLen {
			t.Fatalf("%s: corrupted clause %v has %d lits, want %d", desc, got[0], len(got[0]), wantLen)
		}
	}
	check(1, 2, "out-of-range literal") // same length, first lit mangled
	check(2, 3, "duplicated literal")
	check(3, 3, "tautological pair")
	// Shape 4 % 4 == 0: truncated to empty.
	fault.Arm("share.import", fault.Spec{Kind: fault.KindCorrupt, Value: 4})
	pub.PublishClause(lits(40, 41), 1)
	var got [][]pb.Lit
	sub.DrainClauses(func(l []pb.Lit) { got = append(got, l) })
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("empty-shape corruption: %v", got)
	}
	fault.Reset()

	// The ring entry itself is never mutated: a fresh member drains the
	// original clauses intact.
	var clean [][]pb.Lit
	b.Join("fresh").DrainClauses(func(l []pb.Lit) { clean = append(clean, l) })
	for _, c := range clean {
		if len(c) != 2 {
			t.Fatalf("ring entry was mutated by chaos corruption: %v", c)
		}
	}
}

func TestNoClausesMemberExcludedFromLapAccounting(t *testing.T) {
	b := newBoard(4)
	pub := b.Join("pub")
	ub := b.JoinNoClauses("ls")
	drainer := b.Join("drainer")
	for v := 0; v < 12; v++ {
		if !pub.PublishClause(lits(v, v+20), 1) {
			t.Fatalf("publish %d rejected", v)
		}
	}
	// The opted-out member neither publishes nor drains, and — crucially —
	// its permanently stalled cursor must not be charged as lapped loss.
	if ub.PublishClause(lits(0, 1), 1) {
		t.Fatal("no-clauses member published a clause")
	}
	ub.DrainClauses(func([]pb.Lit) { t.Fatal("no-clauses member received a clause") })
	if st := b.Snapshot(); st.ClausesLapped != 0 {
		t.Fatalf("lapped=%d before any real drain, want 0", st.ClausesLapped)
	}
	// The real drainer's window loss is still counted exactly: 12 published
	// into a 4-slot ring from cursor 0 → 8 lost, 4 delivered.
	n := 0
	drainer.DrainClauses(func([]pb.Lit) { n++ })
	if n != 4 {
		t.Fatalf("drained %d clauses, want the live window 4", n)
	}
	st := b.Snapshot()
	if st.ClausesLapped != 8 {
		t.Fatalf("lapped=%d want exactly 8", st.ClausesLapped)
	}
	if st.ClausesPublished != 12 || st.ClausesTooLong != 0 || st.ClausesHighLBD != 0 || st.ClausesDuplicate != 0 {
		t.Fatalf("opt-out publish leaked into filter counters: %+v", st)
	}
	if st.Members != 3 || st.ClauseMembers != 2 {
		t.Fatalf("members=%d clauseMembers=%d, want 3/2", st.Members, st.ClauseMembers)
	}
	// Incumbent exchange is unaffected by the opt-out.
	if !ub.PublishIncumbent(5, []bool{true}) {
		t.Fatal("no-clauses member's incumbent rejected")
	}
	if got, ok := drainer.BestUB(); !ok || got != 5 {
		t.Fatalf("incumbent did not reach the board: ub=%d ok=%t", got, ok)
	}
}
