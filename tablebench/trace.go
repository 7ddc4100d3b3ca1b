package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one row share Row; Parent is the enclosing span's ID
// (0 for a row span).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Row    int                `json:"row"`
	Pass   int                `json:"pass"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes run the same code with tracing off.
type tracer struct {
	origin time.Time
	pass   int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, row int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Row: row, Pass: t.pass,
		Name: name, Start: int64(time.Since(t.origin))})
	return len(t.spans)
}

// end closes span id, attaching the counters the layer returned.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.origin))
	s.Counts = counts
}

// names returns the distinct span names recorded.
func (t *tracer) names() map[string]int {
	out := map[string]int{}
	for _, s := range t.spans {
		out[s.Name]++
	}
	return out
}

// write stores the spans as JSON lines under dir and returns the file path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
