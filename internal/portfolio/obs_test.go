package portfolio

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestPortfolioLiveScrapeDuringSolve races registry scrapes against a full
// cooperative portfolio solve: a scraper goroutine snapshots the registry
// continuously while the four members run and publish. Under -race this is
// the torn-read regression test for the live metrics path — before the
// atomic-snapshot registry, a scraper reading a member's counters while the
// member mutated them was a data race and could observe counters mixed
// across assembly points. The invariants checked per scrape: the full member
// roster is visible from the very first snapshot, every published block
// carries monotonically plausible counters, and the board block is present.
func TestPortfolioLiveScrapeDuringSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	p := randomPBO(rng, 22, 60)

	reg := obs.NewRegistry()
	reg.SetMeta("mode", "test")
	tr := obs.NewTracer(1 << 12)

	stopScrape := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		first := true
		for {
			snap := reg.Snapshot()
			// Registration appends members one at a time under the mutex,
			// so a scrape may legitimately see a partial roster while
			// SolveOpts is still setting up — but never more than the four
			// members, and never an unnamed or corrupt block.
			if len(snap.Solvers) > 4 {
				t.Errorf("scrape saw %d members, want <= 4", len(snap.Solvers))
				return
			}
			for _, m := range snap.Solvers {
				if m.Name == "" {
					t.Error("scrape saw unnamed member block")
					return
				}
				if m.Decisions < 0 || m.Conflicts < 0 || m.BoundCalls < 0 {
					t.Errorf("scrape saw corrupt counters: %+v", m)
					return
				}
			}
			if first {
				first = false
				close(started)
			}
			select {
			case <-stopScrape:
				return
			default:
			}
		}
	}()
	<-started // at least one concurrent scrape is guaranteed

	res := SolveOpts(p, nil, Options{Registry: reg, Trace: tr})
	close(stopScrape)
	wg.Wait()

	if res.Status != core.StatusOptimal && res.Status != core.StatusUnsat {
		t.Fatalf("solve status=%v", res.Status)
	}

	// Terminal snapshot: every member must have published its final block
	// with a terminal status, and the board block must be attached.
	snap := reg.Snapshot()
	if len(snap.Solvers) != 4 {
		t.Fatalf("final roster has %d members, want 4", len(snap.Solvers))
	}
	names := map[string]bool{}
	for _, m := range snap.Solvers {
		names[m.Name] = true
		if m.Status == "" {
			t.Errorf("member %s: no terminal status published", m.Name)
		}
	}
	for _, want := range []string{"plain", "mis", "lgr", "lpr"} {
		if !names[want] {
			t.Errorf("member %s missing from final snapshot", want)
		}
	}
	if snap.Board == nil {
		t.Fatal("board block missing from cooperative-run snapshot")
	}
	if snap.Board.Members != 4 {
		t.Fatalf("board members=%d want 4", snap.Board.Members)
	}
	if snap.Schema != obs.SchemaVersion {
		t.Fatalf("schema %q", snap.Schema)
	}

	// The trace ring must carry name-stamped lifecycle events from the
	// members (at minimum each member's solve_start/solve_end pair).
	events := tr.Snapshot()
	starts := map[string]bool{}
	ends := map[string]bool{}
	for _, ev := range events {
		switch ev.Kind {
		case obs.EvSolveStart:
			starts[ev.Member] = true
		case obs.EvSolveEnd:
			ends[ev.Member] = true
		}
	}
	for _, want := range []string{"plain", "mis", "lgr", "lpr"} {
		if !starts[want] || !ends[want] {
			t.Errorf("member %s: missing traced lifecycle (start=%v end=%v)",
				want, starts[want], ends[want])
		}
	}
}
