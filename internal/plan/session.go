// Package plan is Cheetah's planning layer: the session API that fronts
// the whole library. A Session binds a table to a switch model and an
// execution configuration; its fluent builder compiles validated
// engine.Query specs; its planner picks the pruning algorithm, derives
// the §5 parameters from Table 2's profiles and the theorems'
// configuration formulas, and admission-checks the program against the
// hardware model; and one Exec entrypoint routes the query to direct,
// batched-Cheetah, or cluster execution behind a single Execution report.
//
// The paper's central claim (§5, §6) is that this layer — not the user —
// owns algorithm choice and tuning; packages engine, prune and switchsim
// stay the low-level substrate for callers that need manual control.
package plan

import (
	"fmt"
	"sync"
	"time"

	"cheetah/internal/obs"
	"cheetah/internal/stats"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
)

// Every session plans randomized pruners for a failure probability of
// delta (TOP N's Theorem 2/3 configuration) and estimates completion times
// with engine.DefaultCostModel over a NIC of nicGbps.
const (
	delta   = 1e-4
	nicGbps = 10
)

// Options configures a session. The zero value selects the paper's
// defaults: a Tofino-class switch, one CWorker and in-process transport.
type Options struct {
	// Model is the switch hardware the planner admission-checks against.
	// The zero value selects switchsim.Tofino().
	Model switchsim.Model
	// Workers is the CWorker (partition) count; ≤ 0 selects 1. With
	// multiple switches it is the per-shard worker count.
	Workers int
	// Switches is the execution fabric's switch count; ≤ 0 selects 1.
	// With more than one switch, Exec shards the query across the fabric
	// (scatter/gather with a two-level merge) and Serve places whole
	// queries on the least-loaded switch — the paper's rack-scale
	// deployment, one ToR switch per rack.
	Switches int
	// Seed drives fingerprinting and randomized pruner defaults.
	Seed uint64
	// UseCluster makes Exec send every switch's entries over the simulated
	// lossy network with the §7.2 reliability protocol — one rack of
	// Workers flows per switch — instead of handing them to the program in
	// process; planning, skipping, completion and spans are unchanged. GROUP
	// BY SUM stays in process, with a note in the plan's Reason: its
	// program rewrites packets (the evicted aggregate) while the §7.2
	// switch forwards the bytes it received. Serve and Stream run in
	// process whatever this says.
	UseCluster bool
	// LossRate injects packet loss on every rack link (UseCluster only). A
	// link that loses a packet past the retry limit breaks its switch, and
	// that shard finishes on the master-side backstop.
	LossRate float64
	// RTO overrides the rack's retransmission timeout (UseCluster only).
	RTO time.Duration
	// Metrics, when non-nil, is the operational-metrics registry the
	// session's serving and streaming fabrics record into (admission
	// counters, queue-depth/active-lease gauges, admission-wait and
	// delta-latency histograms). Nil gives each fabric a private
	// registry, reachable via its Fabric().Metrics().
	Metrics *stats.Registry
	// DisableTracing turns query lifecycle tracing off. By default every
	// Exec/Submit/delta execution carries an obs.Trace collecting
	// per-stage spans (plan, admission, skip, one shard span per switch
	// pass, the master's merge), surfaced via Execution.Trace and
	// Execution.ExplainAnalyze. Tracing times whole stages — never
	// per-entry work — and carries nothing back into the execution, so
	// results stay bit-identical either way; the knob exists for
	// measurement, not correctness.
	DisableTracing bool
}

// Session is an open database handle: a table plus the planning context
// every query compiled through it shares. Sessions are cheap; open one
// per table.
type Session struct {
	table *table.Table
	opts  Options
	// free is the session's free list of idle, Reset switch programs.
	free programs

	// mu guards the open serving/streaming handles Close must drain.
	mu       sync.Mutex
	children map[interface{ Close() }]struct{}
	closed   bool
}

// Open validates opts, fills defaults and returns a session over t.
func Open(t *table.Table, opts Options) (*Session, error) {
	if t == nil {
		return nil, fmt.Errorf("plan: Open needs a table")
	}
	if opts.Model.Stages == 0 {
		opts.Model = switchsim.Tofino()
	}
	if err := opts.Model.Validate(); err != nil {
		return nil, err
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Switches <= 0 {
		opts.Switches = 1
	}
	if t.SkipIndex() == nil && t.RootOffset() == 0 {
		// Storage-side block skipping is the table's: Open keeps the index
		// the table carries (built with t.BuildSkipIndex at any block
		// size), else builds one at the default size. Skipping never
		// changes results. Best effort: a session over a view (RootOffset
		// ≠ 0, or a zero-offset view whose root owns the data) inherits
		// whatever index its root carries; BuildSkipIndex rejects views.
		_ = t.BuildSkipIndex(0)
	}
	return &Session{
		table:    t,
		opts:     opts,
		free:     programs{bound: opts.Model.TotalSRAMBits()},
		children: make(map[interface{ Close() }]struct{}),
	}, nil
}

// addChild registers an open serving/streaming handle for Close to
// drain; it fails once the session is closed.
func (s *Session) addChild(c interface{ Close() }) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("plan: session is closed")
	}
	s.children[c] = struct{}{}
	return nil
}

// removeChild deregisters a handle that closed on its own.
func (s *Session) removeChild(c interface{ Close() }) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.children, c)
}

// Close shuts the session's serving and streaming handles down:
// registered subscriptions drain their in-flight delta and release
// their switch programs, queued admissions fail over to direct
// execution, and in-flight Submits complete (a Submit racing Close
// falls back to exact direct execution — never an error). One-shot
// Exec/Plan calls keep working on the closed session; Close is about
// the long-lived handles. Idempotent: extra Closes are no-ops, and
// concurrent Closes are safe.
//
// The error contract for callers racing Close, by path:
//
//   - RETRYABLE (the operation may be reissued against another session
//     or after a restart; nothing partial happened):
//     Streaming.Append/AppendBatch fail with stream.ErrClosed — the
//     batch either committed atomically before the close or not at
//     all. Streaming.Subscribe fails with a closed-handle error before
//     registering anything. Network front ends (internal/netserve) map
//     exactly these to their retryable wire error code during a drain.
//   - NEVER AN ERROR: Serving.Submit/SubmitQoS racing Close does not
//     fail because of the close — serve.ErrClosed triggers the exact
//     direct fallback, so the caller gets a correct result either way.
//     The only errors a close-racing SubmitQoS surfaces are the ones
//     its QoS could produce anyway, and of those only
//     serve.ErrDeadline (deadline-based shedding: the query is
//     dropped, not degraded — retry with a fresh deadline if still
//     wanted).
//   - TERMINAL (retrying cannot help): query validation errors and
//     execution failures, unchanged by Close.
//
// TestSessionCloseRaceQoSAndAppend pins this contract under -race.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	kids := make([]interface{ Close() }, 0, len(s.children))
	for c := range s.children {
		kids = append(kids, c)
	}
	s.children = make(map[interface{ Close() }]struct{})
	s.mu.Unlock()
	for _, c := range kids {
		c.Close()
	}
}

// newTrace starts a lifecycle trace for one execution, or returns the
// nil no-op trace when the session disabled tracing — every obs method
// is nil-safe, so instrumentation points need no checks of their own.
func (s *Session) newTrace() *obs.Trace {
	if s.opts.DisableTracing {
		return nil
	}
	return obs.New()
}

// Table returns the session's table.
func (s *Session) Table() *table.Table { return s.table }

// Model returns the switch model the session plans against.
func (s *Session) Model() switchsim.Model { return s.opts.Model }

// Options returns the resolved session options (defaults filled in).
func (s *Session) Options() Options { return s.opts }
