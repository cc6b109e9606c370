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

	"cheetah/internal/engine"
	"cheetah/internal/fabric"
	"cheetah/internal/obs"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
)

// Every session estimates completion times with costModel, built once and
// only read, over a NIC of nicGbps.
const nicGbps = 10

var costModel = engine.DefaultCostModel()

// Options configures a session. The zero value selects the paper's
// defaults: a Tofino-class switch, one CWorker and in-process transport.
type Options struct {
	// Model is the switch hardware the planner admission-checks against.
	// The zero value selects switchsim.Tofino().
	Model switchsim.Model
	// Workers is the CWorker (partition) count; ≤ 0 selects 1. With
	// multiple switches it is the per-shard worker count.
	Workers int
	// Switches is the session fabric's switch count; ≤ 0 selects 1.
	// With more than one switch, Exec shards the query across that many
	// switches (scatter/gather with a two-level merge) and SubmitQoS
	// places whole queries on the least-loaded one — the paper's
	// rack-scale deployment, one ToR switch per rack.
	Switches int
	// QueueLimit caps each fabric switch's admission wait queue (0 =
	// unbounded). Submissions arriving past the cap fall back to exact
	// direct execution instead of queueing — load shedding, not an error.
	QueueLimit int
	// TenantQuota caps any one tenant's concurrently active one-shot
	// leases per switch (0 = unlimited). Quota-blocked submissions wait
	// without blocking other tenants' admissions. Standing programs count
	// toward no tenant's quota: they hold their switch for the life of
	// their subscription.
	TenantQuota int
	// Seed drives fingerprinting and randomized pruner defaults.
	Seed uint64
	// UseCluster makes Exec send every switch's entries over the simulated
	// lossy network with the §7.2 reliability protocol — one rack of
	// Workers flows per switch — instead of handing them to the program in
	// process; planning, skipping, completion and spans are unchanged. GROUP
	// BY SUM stays in process, with a note in the plan's Reason: its
	// program rewrites packets (the evicted aggregate) while the §7.2
	// switch forwards the bytes it received. SubmitQoS and Stream run in
	// process whatever this says.
	UseCluster bool
	// LossRate injects packet loss on every rack link (UseCluster only). A
	// link that loses a packet past the retry limit breaks its switch, and
	// that shard finishes on the master-side backstop.
	LossRate float64
	// RTO overrides the rack's retransmission timeout (UseCluster only).
	RTO time.Duration
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
// every query compiled through it shares, and the one switch fabric its
// served queries (SubmitQoS) and standing programs (Stream) share — §5's
// multi-query switch sharing. Sessions are cheap; open one per table.
type Session struct {
	table *table.Table
	opts  Options
	fab   *fabric.Fabric
	// free is the session's free list of idle, Reset switch programs.
	free programs

	// mu guards the open streaming handle Close must drain. A table has
	// one append log, so a session has at most one handle open at a time.
	mu     sync.Mutex
	stream *Streaming
	closed bool
}

// Open validates opts, fills defaults, builds the session's fabric and
// returns a session over t.
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
	fab, err := fabric.New(fabric.Options{
		Switches:    opts.Switches,
		Model:       opts.Model,
		QueueLimit:  opts.QueueLimit,
		TenantQuota: opts.TenantQuota,
	})
	if err != nil {
		return nil, err
	}
	return &Session{
		table: t,
		opts:  opts,
		fab:   fab,
		free:  programs{bound: opts.Model.TotalSRAMBits()},
	}, nil
}

// Close shuts the session's streaming handle down — its
// subscriptions drain their in-flight delta and release their switch
// programs — and then the fabric: queued admissions fail over to direct
// execution, and in-flight Submits complete (a Submit racing Close
// falls back to exact direct execution — never an error). One-shot
// Exec/Plan calls keep working on the closed session; Close is about
// the fabric and the long-lived handles. Idempotent: extra Closes are
// no-ops, and concurrent Closes are safe.
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
//   - NEVER AN ERROR: Submit/SubmitQoS racing Close does not
//     fail because of the close — fabric.ErrClosed triggers the exact
//     direct fallback, so the caller gets a correct result either way.
//     The only errors a close-racing SubmitQoS surfaces are the ones
//     its QoS could produce anyway, and of those only
//     fabric.ErrDeadline (deadline-based shedding: the query is
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
	st := s.stream
	s.mu.Unlock()
	if st != nil {
		st.Close()
	}
	s.fab.Close()
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

// Fabric returns the session's switch fabric, for failure-lifecycle
// control (Fail/Restore/Add), per-switch access, admission counters and
// occupancy. Served queries and standing programs share it.
func (s *Session) Fabric() *fabric.Fabric { return s.fab }

// Options returns the resolved session options (defaults filled in).
func (s *Session) Options() Options { return s.opts }
