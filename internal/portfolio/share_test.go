package portfolio

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pb"
)

// TestSharingNeverChangesOptimum is the differential acceptance test of the
// cooperative layer: for every lower-bound method, the optimum with sharing
// enabled is bit-identical to the isolated run and to brute force. Imported
// clauses and adopted incumbents may change *how fast* the race finishes,
// never *what* it proves.
func TestSharingNeverChangesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for iter := 0; iter < 40; iter++ {
		p := randomPBO(rng, 2+rng.Intn(7), 1+rng.Intn(8))
		want := pb.BruteForce(p)
		shared := SolveOpts(p, nil, Options{})
		isolated := SolveOpts(p, nil, Options{NoSharing: true})
		for name, res := range map[string]Result{"shared": shared, "isolated": isolated} {
			if want.Feasible {
				if res.Status != core.StatusOptimal {
					t.Fatalf("iter %d %s: status=%v want optimal", iter, name, res.Status)
				}
				if res.Best != want.Optimum {
					t.Fatalf("iter %d %s: best=%d want %d (winner %s)",
						iter, name, res.Best, want.Optimum, res.Winner)
				}
				if !p.Feasible(res.Values) {
					t.Fatalf("iter %d %s: reported values infeasible", iter, name)
				}
			} else if res.Status != core.StatusUnsat {
				t.Fatalf("iter %d %s: status=%v want unsat", iter, name, res.Status)
			}
		}
		if shared.Best != isolated.Best || shared.Status != isolated.Status {
			t.Fatalf("iter %d: sharing changed the verdict: %v/%d vs %v/%d",
				iter, shared.Status, shared.Best, isolated.Status, isolated.Best)
		}
		if !shared.Sharing || isolated.Sharing {
			t.Fatalf("iter %d: Sharing flags wrong: %t/%t", iter, shared.Sharing, isolated.Sharing)
		}
	}
}

// TestSharingPerMethodAgainstBruteForce runs each lower-bound method as a
// two-member portfolio (the method + plain) with sharing on, so the method
// under test both imports and exports, and checks the optimum against brute
// force.
func TestSharingPerMethodAgainstBruteForce(t *testing.T) {
	methods := []core.Method{core.LBNone, core.LBMIS, core.LBLGR, core.LBLPR}
	rng := rand.New(rand.NewSource(99))
	for _, m := range methods {
		configs := []Config{
			{Name: "probe-" + m.String(), Options: core.Options{LowerBound: m, CardinalityInference: true, Seed: 9, RandomBranchFreq: 0.05}},
			{Name: "mate", Options: core.Options{LowerBound: core.LBNone, Seed: 10, RandomBranchFreq: 0.05}},
		}
		for iter := 0; iter < 15; iter++ {
			p := randomPBO(rng, 2+rng.Intn(6), 1+rng.Intn(8))
			want := pb.BruteForce(p)
			res := SolveOpts(p, configs, Options{})
			if want.Feasible {
				if res.Status != core.StatusOptimal || res.Best != want.Optimum {
					t.Fatalf("%s iter %d: %v/%d want optimal/%d",
						m, iter, res.Status, res.Best, want.Optimum)
				}
			} else if res.Status != core.StatusUnsat {
				t.Fatalf("%s iter %d: status=%v want unsat", m, iter, res.Status)
			}
		}
	}
}

// TestChaosCorruptImportsStaySound arms the "share.import" corruption point
// so every drained clause is structurally mangled (cycling through
// out-of-range literals, duplicates, tautologies and empty clauses) and
// checks the race still returns the brute-force optimum: the engine-side
// import validation must reject or normalize every corrupt clause, and an
// empty *corrupted* clause must not be mistaken for a root conflict.
func TestChaosCorruptImportsStaySound(t *testing.T) {
	defer fault.Reset()
	fault.Arm("share.import", fault.Spec{Kind: fault.KindCorrupt, Every: 1})
	rng := rand.New(rand.NewSource(515))
	var rejected, dropped int64
	for iter := 0; iter < 30; iter++ {
		p := randomPBO(rng, 2+rng.Intn(7), 1+rng.Intn(8))
		want := pb.BruteForce(p)
		res := SolveOpts(p, nil, Options{})
		if want.Feasible {
			if res.Status != core.StatusOptimal || res.Best != want.Optimum {
				t.Fatalf("iter %d: corrupt imports changed the answer: %v/%d want optimal/%d",
					iter, res.Status, res.Best, want.Optimum)
			}
		} else if res.Status != core.StatusUnsat {
			t.Fatalf("iter %d: status=%v want unsat", iter, res.Status)
		}
		for _, m := range res.Members {
			rejected += m.Stats.Sharing.ImportsRejected
			dropped += m.Stats.Sharing.ImportsDropped
		}
	}
	if rejected == 0 && dropped == 0 {
		t.Log("no corrupt clause reached an import site (races finished before any drain); soundness still verified")
	}
}

// TestDeterministicSequentialMode: MaxConcurrent=1 + NoSharing replays the
// exact same race — member order, verdict, and every member's search stats.
func TestDeterministicSequentialMode(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	opts := Options{NoSharing: true, MaxConcurrent: 1}
	for iter := 0; iter < 10; iter++ {
		p := randomPBO(rng, 3+rng.Intn(6), 2+rng.Intn(8))
		a := SolveOpts(p, nil, opts)
		b := SolveOpts(p, nil, opts)
		if a.Status != b.Status || a.Best != b.Best || a.Winner != b.Winner {
			t.Fatalf("iter %d: runs diverged: %v/%d/%s vs %v/%d/%s",
				iter, a.Status, a.Best, a.Winner, b.Status, b.Best, b.Winner)
		}
		if len(a.Members) != len(b.Members) {
			t.Fatalf("iter %d: member counts differ", iter)
		}
		for i := range a.Members {
			sa, sb := a.Members[i].Stats, b.Members[i].Stats
			if sa.Decisions != sb.Decisions || sa.Conflicts != sb.Conflicts ||
				sa.BoundConflicts != sb.BoundConflicts ||
				sa.RandomDecisions != sb.RandomDecisions {
				t.Fatalf("iter %d member %s: stats diverged: d=%d/%d c=%d/%d bc=%d/%d r=%d/%d",
					iter, a.Members[i].Name,
					sa.Decisions, sb.Decisions, sa.Conflicts, sb.Conflicts,
					sa.BoundConflicts, sb.BoundConflicts,
					sa.RandomDecisions, sb.RandomDecisions)
			}
		}
		if a.Concurrency != 1 {
			t.Fatalf("iter %d: concurrency=%d want 1", iter, a.Concurrency)
		}
	}
}

// TestMembersAndConcurrencyCap: every member is reported in config order,
// the default starts every member at once, and an explicit cap holds.
func TestMembersAndConcurrencyCap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := randomPBO(rng, 6, 8)
	res := SolveOpts(p, nil, Options{})
	if len(res.Members) != 4 {
		t.Fatalf("members=%d want 4", len(res.Members))
	}
	wantOrder := []string{"plain", "mis", "lgr", "lpr"}
	for i, m := range res.Members {
		if m.Name != wantOrder[i] {
			t.Fatalf("member %d = %s, want %s (config order)", i, m.Name, wantOrder[i])
		}
	}
	if res.Concurrency != 4 {
		t.Fatalf("default concurrency=%d, want the member count 4", res.Concurrency)
	}
	capped := SolveOpts(p, nil, Options{MaxConcurrent: 2})
	if capped.Concurrency != 2 {
		t.Fatalf("explicit cap ignored: %d", capped.Concurrency)
	}
	if res.TotalDecisions() < 0 || res.TotalConflicts() < 0 {
		t.Fatal("negative totals")
	}
}

// TestSharingCrashedMemberDegrades: a member crash under sharing still leaves
// a sound race (the survivors prove the optimum) — the cooperative layer must
// not turn panic isolation into a shared-state hazard.
func TestSharingCrashedMemberDegrades(t *testing.T) {
	defer fault.Reset()
	fault.Arm("portfolio.worker", fault.Spec{Kind: fault.KindPanic, Match: "lpr"})
	rng := rand.New(rand.NewSource(31))
	p := randomPBO(rng, 6, 8)
	want := pb.BruteForce(p)
	res := SolveOpts(p, nil, Options{})
	if len(res.Errors) == 0 {
		t.Fatal("injected member crash not reported")
	}
	if want.Feasible && (res.Status != core.StatusOptimal || res.Best != want.Optimum) {
		t.Fatalf("crashed member broke the race: %v/%d want optimal/%d",
			res.Status, res.Best, want.Optimum)
	}
}
