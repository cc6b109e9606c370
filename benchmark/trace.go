package main

// Harness-side spans: the traced pass records one span around every
// call the harness makes into a layer, from outside the program. Spans
// stay in memory and are written as JSON lines when the pass ends.
// Spans inside the program are a later issue (ROADMAP D); what the
// program itself reports (stage totals, traffic) rides in counts.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

type span struct {
	TraceID uint64           `json:"trace_id"`
	SpanID  uint64           `json:"span_id"`
	Parent  uint64           `json:"parent"` // 0 = root of its trace
	Layer   string           `json:"layer"`
	Name    string           `json:"name"`
	StartNs int64            `json:"start_ns"`
	EndNs   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

func (s *span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }
func (s *span) us() float64 { return float64(s.EndNs-s.StartNs) / 1e3 }

// tracer collects spans. A nil *tracer is the untraced pass: begin
// returns nil and end ignores it, so call sites need no branches.
type tracer struct {
	t0  time.Time
	ids atomic.Uint64

	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span. parent nil starts a new trace.
func (t *tracer) begin(parent *span, layer, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{SpanID: t.ids.Add(1), Layer: layer, Name: name}
	if parent != nil {
		s.TraceID, s.Parent = parent.TraceID, parent.SpanID
	} else {
		s.TraceID = s.SpanID
	}
	s.StartNs = int64(time.Since(t.t0))
	return s
}

func (t *tracer) end(s *span, counts map[string]int64) {
	if t == nil {
		return
	}
	s.EndNs = int64(time.Since(t.t0))
	s.Counts = counts
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a span and returns the span (nil when untraced).
func (t *tracer) timed(parent *span, layer, name string, f func()) *span {
	s := t.begin(parent, layer, name)
	f()
	t.end(s, nil)
	return s
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
