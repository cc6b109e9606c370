// Package stream turns Cheetah's frozen-table, one-shot execution model
// into a streaming one: tables become append-able sources and queries
// become long-lived subscriptions whose standing results stay fresh as
// rows arrive. The dataplane was always streaming — workers stream
// entries through the switch, which prunes them in flight — so the
// subsystem's job is purely incremental bookkeeping: an append log with
// versioned consistent-prefix snapshots (Ingestor), per-kind merge
// state folding each delta's execution result into a standing result
// (merge.go), and subscriptions that drive deltas through any executor
// — direct, batched, sharded, or a fabric lease — and expose the
// standing result by polling or over a channel (subscription.go).
//
// The load-bearing invariant, pinned by the property suites: after any
// append schedule, a subscription's standing result is bit-identical to
// re-running its query from scratch over the full committed prefix.
package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cheetah/internal/engine"
	"cheetah/internal/table"
)

// ErrClosed is returned for operations on a closed ingestor or
// subscription.
var ErrClosed = errors.New("stream: ingestor is closed")

// ErrBacklog is returned by appends under the Shed policy when
// committing the batch would push the slowest subscription's unprocessed
// backlog past the configured bound.
var ErrBacklog = errors.New("stream: subscription backlog is full")

// Policy selects what a bounded ingestor does when an append would
// overflow the backlog.
type Policy uint8

const (
	// Block makes Append wait until subscriptions drain enough backlog.
	Block Policy = iota
	// Shed makes Append fail fast with ErrBacklog; the rows are NOT
	// committed (the standing results stay consistent with the log).
	Shed
)

// String renders the policy.
func (p Policy) String() string {
	if p == Shed {
		return "shed"
	}
	return "block"
}

// Config shapes an ingestor.
type Config struct {
	// Backlog bounds the unprocessed rows buffered ahead of the slowest
	// subscription; 0 means unbounded. The bound is what keeps a slow
	// standing query from letting the gap to the live table grow without
	// limit.
	Backlog int
	// OnFull picks the overflow behaviour: Block (default) or Shed.
	OnFull Policy
}

// Ingestor is an append log over a table: atomic batch appends,
// monotonically versioned snapshots (the version is the committed row
// count), and registration of continuous queries. Appends serialize on
// the ingestor; readers never block writers and writers never block
// readers — a snapshot detaches from the log at capture and stays
// consistent while appends continue. All methods are safe for
// concurrent use.
//
// The ingestor must own its table exclusively: it is created over a
// root (non-view) table and every mutation must go through Append*.
// Mutations that bypass it are detected via table.Version and surface
// as errors on the next append.
type Ingestor struct {
	cfg Config

	mu     sync.Mutex
	cond   *sync.Cond // broadcast: commits, offset advances, close
	t      *table.Table
	tver   uint64 // t.Version() at the last commit
	rows   uint64 // committed row count == snapshot version
	subs   map[*Subscription]struct{}
	closed bool
}

// NewIngestor opens an append log over t. Rows already in t count as
// committed prefix (version = current row count).
func NewIngestor(t *table.Table, cfg Config) (*Ingestor, error) {
	if t == nil {
		return nil, fmt.Errorf("stream: NewIngestor needs a table")
	}
	if t.IsView() {
		return nil, fmt.Errorf("stream: cannot ingest into a view (appends are disallowed there)")
	}
	if cfg.Backlog < 0 {
		cfg.Backlog = 0
	}
	in := &Ingestor{
		cfg:  cfg,
		t:    t,
		tver: t.Version(),
		rows: uint64(t.NumRows()),
		subs: make(map[*Subscription]struct{}),
	}
	in.cond = sync.NewCond(&in.mu)
	return in, nil
}

// Version returns the committed row count — the monotonically
// increasing snapshot version.
func (in *Ingestor) Version() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rows
}

// Snapshot captures a consistent committed prefix: a detached read-only
// table plus its version. The snapshot stays valid and immutable while
// appends continue.
func (in *Ingestor) Snapshot() (*table.Table, uint64, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	// Extend the skip index over rows appended since the last snapshot
	// before the snapshot captures the index pointer. Amortizing the
	// refresh onto the read path (rather than every commit) keeps
	// appends O(row); the refresh itself is O(rows appended) — it
	// copies the tail block's summary on write and folds in the new rows
	// alone — and only the in.mu holder reads tail column data, so it is
	// serialized against commits.
	in.t.RefreshSkipIndex()
	snap, err := in.t.SnapshotPrefix(int(in.rows))
	if err != nil {
		return nil, 0, err
	}
	return snap, in.rows, nil
}

// Append commits one row (values in schema order, like
// table.AppendRow). The commit is atomic with respect to snapshots and
// subscriptions.
func (in *Ingestor) Append(vals ...any) error {
	return in.commit(1, func() error { return in.t.AppendRow(vals...) })
}

// AppendBatch atomically commits every row of src (a table or view with
// a type-compatible schema): subscriptions and snapshots see either
// none or all of the batch.
func (in *Ingestor) AppendBatch(src *table.Table) error {
	if src == nil {
		return fmt.Errorf("stream: AppendBatch needs a source table")
	}
	n := src.NumRows()
	if n == 0 {
		return nil
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return in.commit(n, func() error { return in.t.AppendRowsFrom(src, rows) })
}

// commit runs one append under the ingestor lock: backpressure first,
// exclusive-ownership check, the append itself, then the version bump
// and wakeups.
func (in *Ingestor) commit(n int, apply func() error) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if err := in.waitCapacityLocked(n); err != nil {
		return err
	}
	if got := in.t.Version(); got != in.tver {
		return fmt.Errorf("stream: table mutated outside the ingestor (version %d, expected %d)", got, in.tver)
	}
	if err := apply(); err != nil {
		return err
	}
	in.tver = in.t.Version()
	in.rows += uint64(n)
	in.cond.Broadcast()
	for s := range in.subs {
		s.wake()
	}
	return nil
}

// waitCapacityLocked enforces the backlog bound for an n-row commit.
func (in *Ingestor) waitCapacityLocked(n int) error {
	if in.closed {
		return ErrClosed
	}
	if in.cfg.Backlog <= 0 {
		return nil
	}
	if n > in.cfg.Backlog {
		return fmt.Errorf("stream: batch of %d rows exceeds the backlog bound %d", n, in.cfg.Backlog)
	}
	for {
		if in.backlogLocked()+n <= in.cfg.Backlog {
			return nil
		}
		if in.cfg.OnFull == Shed {
			return fmt.Errorf("%w (%d rows pending, bound %d)", ErrBacklog, in.backlogLocked(), in.cfg.Backlog)
		}
		in.cond.Wait()
		if in.closed {
			return ErrClosed
		}
	}
}

// backlogLocked is the unprocessed-row gap of the slowest live
// subscription; zero with no subscriptions.
func (in *Ingestor) backlogLocked() int {
	var worst uint64
	for s := range in.subs {
		if gap := in.rows - s.processed; gap > worst {
			worst = gap
		}
	}
	return int(worst)
}

// Stats is a point-in-time ingest gauge.
type Stats struct {
	// Rows is the committed row count (the version).
	Rows uint64
	// Subscriptions is the live continuous-query count.
	Subscriptions int
	// Backlog is the slowest subscription's unprocessed-row gap.
	Backlog int
}

// Stats returns the current ingest gauges.
func (in *Ingestor) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return Stats{Rows: in.rows, Subscriptions: len(in.subs), Backlog: in.backlogLocked()}
}

// Subscribe registers q as a continuous query: deltas of the log run
// incrementally through opts.Exec (engine.ExecDirect on the delta when
// nil) and fold into a standing result. The new subscription starts at
// version 0, so its first delta catches up over the already-committed
// prefix — registrations interleaved with appends converge to the same
// standing result.
func (in *Ingestor) Subscribe(q *engine.Query, opts SubOptions) (*Subscription, error) {
	if q == nil {
		return nil, fmt.Errorf("stream: Subscribe needs a query")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if opts.Exec == nil {
		opts.Exec = DirectExec
	}
	s, err := newSubscription(in, q, opts)
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return nil, ErrClosed
	}
	in.subs[s] = struct{}{}
	in.mu.Unlock()
	s.start()
	return s, nil
}

// Close shuts the log down: blocked and future appends fail with
// ErrClosed, and every registered subscription is closed (their pumps
// drain the delta in flight, then stop). Idempotent.
func (in *Ingestor) Close() {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return
	}
	in.closed = true
	subs := make([]*Subscription, 0, len(in.subs))
	for s := range in.subs {
		subs = append(subs, s)
	}
	in.cond.Broadcast()
	in.mu.Unlock()
	for _, s := range subs {
		s.Close()
	}
}

// DirectExec is the default delta executor: exact single-node execution
// of the delta query. It keeps the merge layer testable — and usable —
// without any switch in the loop.
func DirectExec(dq *engine.Query) (*engine.Result, error) {
	return engine.ExecDirect(dq)
}

// waitVersion blocks until sub's processed version reaches v, the
// subscription errors or closes, or ctx is done. Callers: Wait/Flush.
func (in *Ingestor) waitVersion(ctx context.Context, s *Subscription, v uint64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	stop := context.AfterFunc(ctx, func() {
		in.mu.Lock()
		in.cond.Broadcast()
		in.mu.Unlock()
	})
	defer stop()
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		if s.err != nil {
			return s.err
		}
		if s.processed >= v {
			return nil
		}
		if s.subClosed || in.closed {
			return ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		in.cond.Wait()
	}
}
