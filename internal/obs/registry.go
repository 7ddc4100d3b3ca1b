package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Live is the producer side of live metrics for one solver: the solver
// publishes complete, immutable SolverMetrics values at checkpoints (every
// 16th node and at termination), and concurrent scrapers load the latest
// value through one atomic pointer — a reader can never observe a torn or
// half-assembled counter block, no matter how many members publish in
// parallel. A nil *Live is the disabled state: Publish is a nil-check no-op.
type Live struct {
	p atomic.Pointer[SolverMetrics]
}

// Publish installs m as the latest snapshot. The value is copied; the
// caller must not mutate what m's Bounds.Per map points to after publishing
// (core publishes a deep copy per snapshot, see BoundsStats.Clone).
// A nil receiver is a true no-op: the heap copy lives in the non-inlined
// store helper, so the disabled path costs one nil check and zero
// allocations (pinned by TestDisabledObservabilityAllocatesNothing).
func (l *Live) Publish(m SolverMetrics) {
	if l == nil {
		return
	}
	l.store(m)
}

//go:noinline
func (l *Live) store(m SolverMetrics) {
	l.p.Store(&m)
}

// Load returns the latest published snapshot (ok=false before the first
// publish). Nil-safe.
func (l *Live) Load() (SolverMetrics, bool) {
	if l == nil {
		return SolverMetrics{}, false
	}
	p := l.p.Load()
	if p == nil {
		return SolverMetrics{}, false
	}
	return *p, true
}

// Registry assembles the unified Snapshot from registered live sources. It
// is safe for concurrent use: registration happens at run setup, snapshots
// may be taken at any time (the HTTP endpoint, the CLI's -metrics writer,
// tests racing a solve).
type Registry struct {
	mu      sync.Mutex
	start   time.Time
	meta    map[string]string
	names   []string
	solvers []*Live
	board   func() BoardStats
}

// NewRegistry returns an empty registry with its uptime clock started.
func NewRegistry() *Registry {
	return &Registry{start: time.Now()}
}

// SetMeta records a free-form run label (instance name, mode, flags).
func (r *Registry) SetMeta(key, value string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.meta == nil {
		r.meta = make(map[string]string)
	}
	r.meta[key] = value
}

// RegisterSolver adds one live source under the given name. Snapshot
// reports solvers in registration order and stamps each block with its
// registered name (overriding whatever the producer wrote).
func (r *Registry) RegisterSolver(name string, src *Live) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.names = append(r.names, name)
	r.solvers = append(r.solvers, src)
}

// RegisterBoard installs the sharing board's snapshot function (fn must be
// safe to call concurrently; share.Board.Snapshot is).
func (r *Registry) RegisterBoard(fn func() BoardStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.board = fn
}

// Snapshot assembles the current unified document. Solvers that have not
// published yet appear with only their name, so scrapers see the full
// member roster from the first request.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	solvers := append([]*Live(nil), r.solvers...)
	board := r.board
	var meta map[string]string
	if len(r.meta) > 0 {
		meta = make(map[string]string, len(r.meta))
		for k, v := range r.meta {
			meta[k] = v
		}
	}
	start := r.start
	r.mu.Unlock()

	now := time.Now()
	snap := Snapshot{
		Schema:      SchemaVersion,
		TakenUnixMs: now.UnixMilli(),
		UptimeMs:    float64(now.Sub(start).Microseconds()) / 1000,
		Meta:        meta,
		Solvers:     make([]SolverMetrics, len(solvers)),
	}
	for i, src := range solvers {
		m, _ := src.Load()
		m.Name = names[i]
		snap.Solvers[i] = m
	}
	if board != nil {
		b := board()
		snap.Board = &b
	}
	return snap
}

// Handler returns the introspection mux: GET /metrics serves the unified
// snapshot as JSON, and /debug/pprof/* exposes the standard Go profiles.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprintln(w, "repro debug endpoint: /metrics (unified snapshot JSON), /debug/pprof/")
	})
	return mux
}

// Serve starts the introspection endpoint on addr and returns the bound
// address (useful with port 0) and a shutdown function. Security: the
// endpoint is meant for the operator's loopback only — an addr without a
// host (":6060") is rewritten to 127.0.0.1, and binding a non-loopback host
// requires spelling it out explicitly (DESIGN.md §11 security note).
//
// The server carries slow-client protection — ReadHeaderTimeout against
// header-dribbling connections, IdleTimeout so abandoned keep-alives do not
// accumulate. The shutdown function refuses new connections immediately,
// drains in-flight requests for up to two seconds, force-closes whatever
// remains, and always reaps the serving goroutine before returning.
func Serve(addr string, r *Registry) (boundAddr string, shutdown func(), err error) {
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: debug endpoint: %w", err)
	}
	srv := &http.Server{
		Handler:           r.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // ErrServerClosed on shutdown
	}()
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			_ = srv.Close() // drain budget exhausted: force-close stragglers
		}
		<-done
	}, nil
}
