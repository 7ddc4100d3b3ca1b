package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func sampleSolverMetrics(name string) SolverMetrics {
	best := int64(42)
	return SolverMetrics{Name: name, Status: "optimal", Best: &best, SolverStats: SolverStats{
		Decisions:      100,
		Conflicts:      40,
		BoundConflicts: 12,
		BoundCalls:     50,
		BoundPrunes:    11,
		Solutions:      3,
		Restarts:       2,
		Propagations:   9000,
		LearnedClauses: 38,
		BoundTimeouts:  1,
		Bounds: BoundsStats{
			Reduces:    50,
			ReduceTime: Duration(1250 * time.Microsecond),
			WarmSolves: 30,
			ColdSolves: 20,
			Cuts:       CutStats{Separated: 4, Rounds: 2, Active: 3, SepTime: Duration(750 * time.Microsecond)},
			Per: map[string]*ProcStats{
				"lpr": {Calls: 45, Time: Duration(12500 * time.Microsecond), BoundSum: 900, MaxBound: 40, Prunes: 10},
				"mis": {Calls: 5, Time: Duration(500 * time.Microsecond), BoundSum: 20, MaxBound: 8, Prunes: 1},
			},
		},
		Sharing: SharingStats{
			IncumbentsPublished: 3,
			IncumbentsWon:       2,
			ClausesPublished:    17,
			ClausesImported:     9,
		},
	}}
}

// TestSnapshotSchemaRoundTrip is the snapshot-schema round-trip test: a
// fully populated Snapshot must survive JSON encode/decode bit-identically
// (int64 counters, strings, and durations that are whole microseconds, which
// float64 milliseconds carry exactly).
func TestSnapshotSchemaRoundTrip(t *testing.T) {
	board := BoardStats{
		Members:          4,
		ClausesPublished: 17,
		ClausesDuplicate: 2,
		Incumbents:       5,
		HasIncumbent:     true,
		BestCost:         42,
		BestOwner:        "lpr",
	}
	snap := Snapshot{
		Schema:      SchemaVersion,
		TakenUnixMs: 1754_000_000_000,
		UptimeMs:    1234.5,
		Meta:        map[string]string{"instance": "synth-30-1", "mode": "portfolio"},
		Solvers:     []SolverMetrics{sampleSolverMetrics("lpr"), sampleSolverMetrics("mis")},
		Board:       &board,
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("snapshot did not round-trip:\n got %+v\nwant %+v", back, snap)
	}
	if back.Schema != SchemaVersion {
		t.Fatalf("schema=%q want %q", back.Schema, SchemaVersion)
	}
}

func TestLiveNilSafeAndTearFree(t *testing.T) {
	var l *Live
	l.Publish(sampleSolverMetrics("x")) // must not panic
	if _, ok := l.Load(); ok {
		t.Fatal("nil Live loaded a value")
	}

	live := &Live{}
	if _, ok := live.Load(); ok {
		t.Fatal("empty Live loaded a value")
	}
	// Concurrent publishers and readers: every load must observe a
	// consistent pair (Decisions == Conflicts by construction) — the
	// atomic-pointer publish makes torn reads impossible.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			live.Publish(SolverMetrics{SolverStats: SolverStats{Decisions: i, Conflicts: i}})
		}
	}()
	for i := 0; i < 10000; i++ {
		if m, ok := live.Load(); ok && m.Decisions != m.Conflicts {
			close(stop)
			wg.Wait()
			t.Fatalf("torn read: decisions=%d conflicts=%d", m.Decisions, m.Conflicts)
		}
	}
	close(stop)
	wg.Wait()
}

func TestRegistrySnapshotAndEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.SetMeta("instance", "unit-test")
	liveA, liveB := &Live{}, &Live{}
	reg.RegisterSolver("lpr", liveA)
	reg.RegisterSolver("mis", liveB)
	reg.RegisterBoard(func() BoardStats { return BoardStats{Members: 2, Incumbents: 1} })
	liveA.Publish(sampleSolverMetrics("ignored")) // registry stamps the registered name

	snap := reg.Snapshot()
	if snap.Schema != SchemaVersion {
		t.Fatalf("schema=%q", snap.Schema)
	}
	if len(snap.Solvers) != 2 || snap.Solvers[0].Name != "lpr" || snap.Solvers[1].Name != "mis" {
		t.Fatalf("solver roster wrong: %+v", snap.Solvers)
	}
	if snap.Solvers[0].Decisions != 100 {
		t.Fatalf("published metrics lost: %+v", snap.Solvers[0])
	}
	if snap.Solvers[1].Decisions != 0 {
		t.Fatal("unpublished member should be zero-valued")
	}
	if snap.Board == nil || snap.Board.Members != 2 {
		t.Fatalf("board block wrong: %+v", snap.Board)
	}

	// HTTP endpoint: /metrics serves the same document; pprof index mounts.
	addr, shutdown, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	var got Snapshot
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("endpoint served invalid JSON: %v\n%s", err, body)
	}
	if got.Schema != SchemaVersion || len(got.Solvers) != 2 {
		t.Fatalf("endpoint snapshot wrong: %+v", got)
	}
	if got.Meta["instance"] != "unit-test" {
		t.Fatalf("meta lost: %+v", got.Meta)
	}
	pp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	ppBody, _ := io.ReadAll(pp.Body)
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK || !strings.Contains(string(ppBody), "goroutine") {
		t.Fatalf("pprof index not served: status=%d", pp.StatusCode)
	}
}

func TestServeDefaultsToLoopback(t *testing.T) {
	addr, shutdown, err := Serve(":0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	if !strings.HasPrefix(addr, "127.0.0.1:") {
		t.Fatalf("host-less addr must bind loopback, got %s", addr)
	}
}

// TestServeShutdownWithIdleClient checks that shutdown returns promptly
// while a client still holds an idle keep-alive connection, and that the
// listener is closed afterwards.
func TestServeShutdownWithIdleClient(t *testing.T) {
	addr, shutdown, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close() // the connection goes back to the client's idle pool

	done := make(chan struct{})
	go func() {
		shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not return within 5s")
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("listener still accepts connections after shutdown")
	}
}
