package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// EventKind classifies one search lifecycle event. The taxonomy follows the
// paper's quantitative story (which bounding method prunes, where time goes)
// plus the cooperative-portfolio and resilience machinery added by PRs 1–4.
type EventKind uint8

const (
	// EvSolveStart marks the beginning of one member's search.
	// Method = lower-bound method; A = number of variables.
	EvSolveStart EventKind = iota
	// EvSolveEnd marks the member's terminal verdict.
	// A = best objective (when any); Note = status string.
	EvSolveEnd
	// EvRestart is a Luby restart. A = restart ordinal.
	EvRestart
	// EvReduceDB is a learned-database garbage collection.
	// A = learned-clause count at collection time.
	EvReduceDB
	// EvBound is one lower-bound estimation. Method = estimator that
	// produced the returned bound; A = bound; B = target (upper − path);
	// Note = outcome: "ok", "incomplete", "infeasible", "failed" or
	// "fallback" (the MIS rung rescued a failed/empty primary call).
	EvBound
	// EvPrune is a node pruned by path + lower ≥ upper.
	// Method = estimator credited ("path" for pure path-cost prunes);
	// A = path cost; B = lower bound used.
	EvPrune
	// EvBoundConflict is the §4 bound-conflict analysis following a prune.
	// A = decision level at the conflict; B = backjump target level.
	EvBoundConflict
	// EvIncumbent is an upper-bound improvement. A = objective value
	// (including CostOffset); Note = "local" (a search leaf), "lp" (an LPR
	// point) or "foreign" (adopted from the sharing board).
	EvIncumbent
	// EvSharePublish is an offer to the sharing board. Method = "incumbent"
	// (A = cost, Note = "won"/"lost") or "clause" (A = length, B = LBD,
	// Note = "accepted"/"rejected").
	EvSharePublish
	// EvShareImport summarizes one root-level drain of the exchange ring.
	// A = clauses installed; B = root conflicts among them.
	EvShareImport
	// EvFallback is a per-node fallback-ladder rescue: the primary
	// estimator failed and the cheaper rung produced the bound.
	// Method = rescuing estimator; A = its bound.
	EvFallback
	// EvDemotion is a fallback-ladder circuit-breaker trip: the primary
	// method is demoted for the rest of the run. Method = demoted method;
	// Note = replacement method.
	EvDemotion
	// EvCut is one cutting plane accepted into the LPR cut pool.
	// Method = separator family ("cover" or "clique" when known, else
	// "cut"); A = term count; B = degree.
	EvCut

	numEventKinds = iota
)

var eventKindNames = [numEventKinds]string{
	"solve_start", "solve_end", "restart", "reduce_db", "bound", "prune",
	"bound_conflict", "incumbent", "share_publish", "share_import",
	"fallback", "demotion", "cut",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its string name.
func (k EventKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts the string names produced by MarshalJSON.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range eventKindNames {
		if n == s {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one fixed-size trace record. The meaning of Method/A/B/Note is
// per-kind (see the EventKind constants). Producers pass only static or
// already-materialized strings, so emitting an event never allocates.
type Event struct {
	// Seq is the global emission ordinal (monotonic across members sharing
	// one tracer); a gap-free prefix may be lost to ring overwrite.
	Seq uint64 `json:"seq"`
	// AtNs is nanoseconds since the tracer was created.
	AtNs int64 `json:"at_ns"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Member names the emitting portfolio member ("" for a single solve).
	Member string `json:"member,omitempty"`
	// Method is the per-kind detail string (estimator name, publish kind).
	Method string `json:"method,omitempty"`
	// A and B are the per-kind numeric payloads.
	A int64 `json:"a"`
	B int64 `json:"b"`
	// Note is the per-kind outcome string.
	Note string `json:"note,omitempty"`
}

// tracerRing is the shared state behind one tracer and all its Named
// handles: a preallocated ring of events under a short mutex.
type tracerRing struct {
	mu      sync.Mutex
	buf     []Event
	seq     uint64 // next sequence number == total events emitted
	dropped uint64 // events overwritten before being read
	start   time.Time
}

// Tracer records structured search events into a bounded ring. The zero
// *Tracer (nil) is the disabled tracer: every method is a nil-check no-op,
// so hot paths carry tracer calls unconditionally. One tracer may be shared
// by every member of a portfolio (emission is mutex-serialized); use Named
// to label each member's events.
type Tracer struct {
	r      *tracerRing
	member string
}

// DefaultTraceCapacity is the ring size used when NewTracer is given a
// non-positive capacity: enough for minutes of portfolio search at typical
// event rates while bounding memory at ~64 B/event.
const DefaultTraceCapacity = 1 << 16

// NewTracer returns an enabled tracer with the given ring capacity
// (capacity <= 0 selects DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{r: &tracerRing{
		buf:   make([]Event, 0, capacity),
		start: time.Now(),
	}}
}

// Named returns a handle that shares this tracer's ring but stamps every
// event with the given member label. Nil-safe: a nil receiver returns nil,
// so wiring `tracer.Named(cfg.Name)` through a disabled run stays free.
func (t *Tracer) Named(member string) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{r: t.r, member: member}
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event. Nil-safe and allocation-free: the event value is
// written into a preallocated ring slot under a short mutex. Callers must
// pass only static or pre-materialized strings (no fmt.Sprintf on hot
// paths).
func (t *Tracer) Emit(kind EventKind, method string, a, b int64, note string) {
	if t == nil {
		return
	}
	r := t.r
	now := time.Now() // outside the lock
	r.mu.Lock()
	ev := Event{
		Seq:    r.seq,
		AtNs:   now.Sub(r.start).Nanoseconds(),
		Kind:   kind,
		Member: t.member,
		Method: method,
		A:      a,
		B:      b,
		Note:   note,
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.seq%uint64(cap(r.buf))] = ev
		r.dropped++
	}
	r.seq++
	r.mu.Unlock()
}

// Len returns the number of events currently held in the ring.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.r.mu.Lock()
	defer t.r.mu.Unlock()
	return len(t.r.buf)
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.r.mu.Lock()
	defer t.r.mu.Unlock()
	return t.r.dropped
}

// Snapshot returns the retained events in emission order (oldest first).
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	r := t.r
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.buf))
	if len(r.buf) < cap(r.buf) || cap(r.buf) == 0 {
		copy(out, r.buf)
		return out
	}
	// Full ring: the oldest event sits at seq % cap.
	head := int(r.seq % uint64(cap(r.buf)))
	n := copy(out, r.buf[head:])
	copy(out[n:], r.buf[:head])
	return out
}

// WriteJSONL writes the retained events to w, one JSON object per line —
// the machine-readable trace sink (`bsolo -trace file.jsonl`).
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range t.Snapshot() {
		if err := enc.Encode(&ev); err != nil {
			return err
		}
	}
	return nil
}

// WritePretty renders the retained events human-readably, one line per
// event — the `-trace-pretty` view.
func (t *Tracer) WritePretty(w io.Writer) error {
	for _, ev := range t.Snapshot() {
		if _, err := fmt.Fprintln(w, ev.Pretty()); err != nil {
			return err
		}
	}
	if d := t.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "… %d earlier events lost to ring overwrite\n", d); err != nil {
			return err
		}
	}
	return nil
}

// Pretty renders one event as a human-readable line.
func (e *Event) Pretty() string {
	at := time.Duration(e.AtNs).Round(time.Microsecond)
	who := e.Member
	if who == "" {
		who = "solver"
	}
	var detail string
	switch e.Kind {
	case EvSolveStart:
		detail = fmt.Sprintf("method=%s vars=%d", e.Method, e.A)
	case EvSolveEnd:
		detail = fmt.Sprintf("status=%s best=%d", e.Note, e.A)
	case EvRestart:
		detail = fmt.Sprintf("restart #%d", e.A)
	case EvReduceDB:
		detail = fmt.Sprintf("learned=%d", e.A)
	case EvBound:
		detail = fmt.Sprintf("method=%s bound=%d target=%d (%s)", e.Method, e.A, e.B, e.Note)
	case EvPrune:
		detail = fmt.Sprintf("method=%s path=%d lower=%d", e.Method, e.A, e.B)
	case EvBoundConflict:
		detail = fmt.Sprintf("level=%d backjump=%d", e.A, e.B)
	case EvIncumbent:
		detail = fmt.Sprintf("best=%d (%s)", e.A, e.Note)
	case EvSharePublish:
		if e.Method == "clause" {
			detail = fmt.Sprintf("clause len=%d lbd=%d (%s)", e.A, e.B, e.Note)
		} else {
			detail = fmt.Sprintf("incumbent cost=%d (%s)", e.A, e.Note)
		}
	case EvShareImport:
		detail = fmt.Sprintf("imported=%d conflicts=%d", e.A, e.B)
	case EvFallback:
		detail = fmt.Sprintf("rescued-by=%s bound=%d", e.Method, e.A)
	case EvDemotion:
		detail = fmt.Sprintf("demoted=%s to=%s", e.Method, e.Note)
	case EvCut:
		detail = fmt.Sprintf("terms=%d degree=%d", e.A, e.B)
	default:
		detail = fmt.Sprintf("method=%s a=%d b=%d note=%s", e.Method, e.A, e.B, e.Note)
	}
	return fmt.Sprintf("%10s #%-6d %-9s %-14s %s", "+"+at.String(), e.Seq, who, e.Kind, detail)
}
