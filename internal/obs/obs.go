// Package obs is the query-lifecycle tracing layer: a Trace rides a
// query (keyed by its QueryID) from planning through QoS admission,
// skip planning, the switch passes and the master merge, collecting
// per-stage Spans stamped with monotonic nanoseconds.
//
// Design constraints, in order:
//
//   - Tracing is on by default, so it must not perturb the execution it
//     observes: spans time whole stages (a dozen per query), never
//     per-entry work, and the span buffer is pooled so steady-state
//     tracing allocates nothing on the hot path.
//   - Span recording is concurrent — sharded execution finishes shard
//     passes from independent goroutines — so End appends under a
//     mutex. One uncontended lock per stage is noise next to a stage
//     that streams thousands of entries.
//   - The trace must not influence results: it carries timings and
//     counts out of the engine but nothing back in, preserving the
//     repo-wide invariant that every execution mode is bit-identical
//     to ExecDirect.
//
// Rendering (Trace.Render) prints the span tree the way EXPLAIN
// ANALYZE does: top-level lifecycle stages in start order, engine-side
// stages indented beneath them, each with duration and stream counts.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Stage identifies one lifecycle stage of a query. Values are part of
// the wire trace summary (encoded as a u8), so existing stages must
// keep their numbers; append new ones.
type Stage uint8

const (
	// StagePlan covers planner candidate selection and pruner sizing.
	StagePlan Stage = iota
	// StageAdmit covers QoS admission: queue wait plus placement.
	StageAdmit
	// StageSkip covers skip-index consultation (zone maps + Blooms).
	StageSkip
	// StageScan covers a direct master-side scan+complete pass.
	StageScan
	// StageEncode covered worker-side entry encoding for a switch pass.
	// Retired: nothing emits it — every pruned run records shard + merge
	// — and the constant only holds its name and wire number.
	StageEncode
	// StagePrune covered the switch dataplane's pruning of a pass.
	// Retired like StageEncode.
	StagePrune
	// StageFused covered an in-process fused loop together with its
	// completion. Retired like StageEncode: a shard span's note says
	// whether the pass took the fused or the chunked stream.
	StageFused
	// StageMerge covers the master's completion over the passes' parts:
	// it opens when the last pass returns.
	StageMerge
	// StageShard covers one switch's whole pass of a pruned run, at every
	// width (a single-switch run is one shard).
	StageShard
	// StageDelta covers one streaming delta's execution.
	StageDelta
	// StageFailover marks a discarded attempt: the span's duration is
	// the wall-clock the failed attempt burned before being redone.
	StageFailover

	numStages
)

var stageNames = [numStages]string{
	"plan", "admit", "skip", "scan", "encode", "prune", "fused",
	"merge", "shard", "delta", "failover",
}

// String returns the stage's lowercase taxonomy name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// depth is the render indentation: lifecycle stages are top-level,
// engine-side stages nest beneath the pass that contains them.
func (s Stage) depth() int {
	switch s {
	case StagePlan, StageAdmit, StageScan, StageDelta, StageFailover:
		return 0
	default:
		return 1
	}
}

// Span is one timed stage. Start is the offset from the trace's birth
// (monotonic), Dur the stage's wall time.
type Span struct {
	Stage   Stage
	Switch  int // switch/shard index; -1 = master-side / not placed
	Attempt int // failover attempt the span belongs to (0 = first)
	Start   time.Duration
	Dur     time.Duration
	// Entries/Forwarded count the stream crossing the stage's boundary
	// (entries offloaded to the switch vs forwarded past it); zero when
	// the stage has no stream.
	Entries   int64
	Forwarded int64
	// Note carries low-cardinality context (the stream a pass took, a
	// degraded shard, a plan's mode).
	Note string
}

// Trace collects one query's spans. The zero value is not usable; get
// traces from New. A nil *Trace is a valid no-op receiver for every
// method, so instrumentation points need no nil checks of their own.
type Trace struct {
	t0      time.Time
	queryID uint32

	mu    sync.Mutex
	spans []Span
}

// spanPool recycles span buffers so steady-state tracing does not
// allocate per query. Buffers return to the pool via Release.
var spanPool = sync.Pool{
	New: func() any { return make([]Span, 0, 32) },
}

// New starts a trace; its clock (monotonic, via time.Time) begins now.
func New() *Trace {
	return &Trace{t0: time.Now(), spans: spanPool.Get().([]Span)}
}

// Release returns the trace's span buffer to the pool. Only call when
// no references to the trace or its spans remain.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	t.mu.Lock()
	s := t.spans
	t.spans = nil
	t.mu.Unlock()
	if s != nil {
		spanPool.Put(s[:0])
	}
}

// SetQueryID stamps the trace with the query's fabric-assigned id.
func (t *Trace) SetQueryID(id uint32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.queryID = id
	t.mu.Unlock()
}

// QueryID returns the stamped id (0 until admission assigns one).
func (t *Trace) QueryID() uint32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.queryID
}

// Elapsed is the wall time since the trace began.
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

// Timer is an in-flight span: Begin stamps the start, End appends the
// completed span. The zero Timer (from a nil trace) no-ops on End.
type Timer struct {
	t     *Trace
	start time.Duration
	span  Span
}

// Begin opens a span for stage on switch sw (-1 = master-side).
// Only End touches the trace, so Begin costs one monotonic clock read.
func (t *Trace) Begin(stage Stage, sw int) Timer {
	if t == nil {
		return Timer{}
	}
	return Timer{t: t, start: time.Since(t.t0), span: Span{Stage: stage, Switch: sw}}
}

// Attempt tags the span with a failover attempt number.
func (m Timer) Attempt(n int) Timer {
	m.span.Attempt = n
	return m
}

// Counts sets the span's stream counts without closing it.
func (m Timer) Counts(entries, forwarded int64) Timer {
	m.span.Entries = entries
	m.span.Forwarded = forwarded
	return m
}

// Restage reassigns the span's stage — used when the outcome decides
// what a span was (a pass that crossed a switch death becomes a
// failover span).
func (m Timer) Restage(s Stage) Timer {
	m.span.Stage = s
	return m
}

// End closes the span with stream counts and appends it to the trace.
func (m Timer) End(entries, forwarded int64) {
	m.span.Entries = entries
	m.span.Forwarded = forwarded
	m.EndNote("")
}

// EndNote closes the span with an optional note.
func (m Timer) EndNote(note string) {
	if m.t == nil {
		return
	}
	m.span.Start = m.start
	m.span.Dur = time.Since(m.t.t0) - m.start
	m.span.Note = note
	m.t.Add(m.span)
}

// Add appends a completed span (used for spans whose bounds were
// measured elsewhere, e.g. an admission wait).
func (t *Trace) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans sorted by start offset
// (ties broken by stage order, then switch), safe to keep.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Switch < out[j].Switch
	})
	return out
}

// StageTotal is one aggregated line of the compact trace summary: the
// summed duration and stream counts of every span of one stage.
type StageTotal struct {
	Stage     Stage
	Nanos     int64
	Entries   int64
	Forwarded int64
}

// Summary aggregates spans per stage, ordered by stage number — the
// compact form Result frames carry so clients see server-side timings
// without shipping the whole span list.
func (t *Trace) Summary() []StageTotal {
	if t == nil {
		return nil
	}
	var tot [numStages]StageTotal
	var seen [numStages]bool
	t.mu.Lock()
	for _, s := range t.spans {
		tot[s.Stage].Nanos += int64(s.Dur)
		tot[s.Stage].Entries += s.Entries
		tot[s.Stage].Forwarded += s.Forwarded
		seen[s.Stage] = true
	}
	t.mu.Unlock()
	out := make([]StageTotal, 0, 8)
	for i := range tot {
		if seen[i] {
			tot[i].Stage = Stage(i)
			out = append(out, tot[i])
		}
	}
	return out
}

// Render writes the span tree: one line per span in start order,
// engine-side stages indented under their pass.
func (t *Trace) Render(w io.Writer) {
	if t == nil {
		fmt.Fprintln(w, "trace: disabled")
		return
	}
	spans := t.Spans()
	fmt.Fprintf(w, "trace: query-id=%d spans=%d\n", t.QueryID(), len(spans))
	for _, s := range spans {
		var b strings.Builder
		for i := 0; i <= s.Stage.depth(); i++ {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-8s %12s", s.Stage, s.Dur.Round(time.Microsecond))
		if s.Switch >= 0 {
			fmt.Fprintf(&b, "  switch=%d", s.Switch)
		}
		if s.Attempt > 0 {
			fmt.Fprintf(&b, "  attempt=%d", s.Attempt)
		}
		if s.Entries > 0 {
			fmt.Fprintf(&b, "  entries=%d", s.Entries)
		}
		if s.Forwarded > 0 {
			fmt.Fprintf(&b, "  forwarded=%d", s.Forwarded)
		}
		if s.Note != "" {
			fmt.Fprintf(&b, "  (%s)", s.Note)
		}
		fmt.Fprintln(w, b.String())
	}
}

// String renders the span tree to a string.
func (t *Trace) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}
