package plan

// This file is the session API's streaming front door: Session.Stream
// opens the session's table as an append-able source, and
// Streaming.Subscribe registers planner-built queries as continuous
// queries. It is the layer between internal/stream (the append log and
// incremental merge state) and the execution substrate: Subscribe plans
// the delta program exactly like Exec would — same candidates, same
// per-switch sizing at the session's fabric width — then admits it on
// the session's fabric, the one SubmitQoS places served queries on, and
// holds the lease(s) for the subscription's lifetime, so the standing
// program keeps its switch state across deltas (the DISTINCT cache, TOP
// N minima and GROUP BY maxima it warms on early deltas keep pruning
// the later ones). Each committed delta batch then runs through the batched
// engine — engine.ExecSharded across the fabric when Switches > 1 —
// against only the delta, and the result folds into the standing
// result.
//
// Two deliberate deviations from the one-shot paths:
//
//   - HAVING deltas plan and execute as GROUP BY SUM: the sketch path's
//     candidates-only output cannot be merged incrementally (a key may
//     cross the threshold only in aggregate), so the subscription keeps
//     the full per-key sum map and applies the threshold at the
//     standing result.
//   - JOIN programs reset at each delta: the build side is the delta
//     itself, so the Bloom filters must retrain; the lease is still
//     held across deltas (the switch resources stay reserved for the
//     standing query).
//
// Failure handling (§7.2): a switch death never breaks a subscription —
// the master's merge state is the exactness backstop. Every delta is a
// leased Session.run, so a standing program whose switch is found dead
// before a delta, or dies in the middle of one (that pass is discarded
// and redone: register state absorbed by a drained program dies with the
// switch), is re-placed cold by the subscription's replace method on the
// least-loaded survivor, like a served query's failover: a fresh program
// re-learns its prune state from the deltas that follow. When no switch
// can host the program right now, the engine finishes that delta on its
// master-side backstop — exact, unpruned by any standing state — and the
// next delta retries the re-placement; continuous-query results stay
// bit-identical to a from-scratch run throughout. A delta's execution
// reads only the delta's rows, never the standing result.

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"cheetah/internal/engine"
	"cheetah/internal/fabric"
	"cheetah/internal/obs"
	"cheetah/internal/prune"
	"cheetah/internal/stream"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
)

// StreamOptions configures a streaming handle.
type StreamOptions struct {
	// Backlog bounds the unprocessed rows buffered ahead of the slowest
	// subscription (0 = unbounded).
	Backlog int
	// Shed makes over-backlog appends fail fast with stream.ErrBacklog
	// instead of blocking until subscriptions drain.
	Shed bool
}

// Streaming is a live streaming handle over the session's table: an
// append log plus the continuous queries whose standing programs it
// holds on the session's fabric. All methods are safe for concurrent
// use.
type Streaming struct {
	s   *Session
	ing *stream.Ingestor

	mu     sync.Mutex
	subs   map[*Subscription]struct{}
	closed bool
	once   sync.Once
}

// Stream opens the session's table as a streaming source. The handle
// closes when ctx is done (or on Close); appends and new subscriptions
// then fail, standing subscriptions drain and release their programs.
// The handle's ingestor owns the table's appends, so a session has one
// open handle: Stream fails while another is open, and a handle opened
// after it closes starts from every row the earlier one committed.
func (s *Session) Stream(ctx context.Context, opts StreamOptions) (*Streaming, error) {
	pol := stream.Block
	if opts.Shed {
		pol = stream.Shed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("plan: session is closed")
	}
	if s.stream != nil {
		return nil, fmt.Errorf("plan: the session already has an open streaming handle; close it first")
	}
	ing, err := stream.NewIngestor(s.table, stream.Config{Backlog: opts.Backlog, OnFull: pol})
	if err != nil {
		return nil, err
	}
	st := &Streaming{s: s, ing: ing, subs: make(map[*Subscription]struct{})}
	s.stream = st
	if ctx != nil {
		context.AfterFunc(ctx, st.Close)
	}
	return st, nil
}

// Session returns the streaming handle's session.
func (st *Streaming) Session() *Session { return st.s }

// Ingest returns the underlying append log, for direct snapshot and
// stats access.
func (st *Streaming) Ingest() *stream.Ingestor { return st.ing }

// Append commits one row (values in schema order).
func (st *Streaming) Append(vals ...any) error { return st.ing.Append(vals...) }

// AppendBatch atomically commits every row of src.
func (st *Streaming) AppendBatch(src *table.Table) error { return st.ing.AppendBatch(src) }

// Version returns the committed row count (the snapshot version).
func (st *Streaming) Version() uint64 { return st.ing.Version() }

// Subscription is one continuous query registered through the session:
// the stream-layer subscription plus its plan and held switch
// resources. Results/Updates/Wait/Flush are promoted from the embedded
// subscription.
type Subscription struct {
	*stream.Subscription
	st   *Streaming
	plan *Plan
	// windowed deltas must not carry switch state across executions: a
	// value pruned by a cache warmed OUTSIDE the window could be part of
	// the window's true result, so every windowed delta resets the
	// program(s) first.
	windowed bool

	mu sync.Mutex
	// placements are the fabric holds backing the standing program, held
	// across deltas: one per switch of the plan's width, nil for a direct
	// (unpruned) subscription; pruners[i] is the program installed under
	// placements[i]. Entries move between switches when re-placement
	// routes around a failed switch.
	placements []*fabric.Lease
	pruners    []prune.Pruner
	replaced   int
	traffic    engine.Traffic
	skipped    engine.SkipStats
	// lastTrace is the most recently completed delta's lifecycle trace
	// (nil before the first delta, or with tracing disabled). Traces are
	// handed out to callers, so they are never pooled back — dropped
	// references are garbage-collected.
	lastTrace *obs.Trace
	once      sync.Once
}

// Trace returns the lifecycle trace of the most recently completed
// delta execution: the delta span plus the engine stages that ran
// beneath it (per-shard passes, failovers, the merge). Nil
// before the first delta completes or when the session disabled
// tracing.
func (ss *Subscription) Trace() *obs.Trace {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.lastTrace
}

// exec is the subscription's stream.DeltaExec. Every delta runs under
// its own trace: a top-level delta span brackets the whole execution
// (redos included) and the completed trace publishes via Trace.
func (ss *Subscription) exec(dq *engine.Query) (*engine.Result, error) {
	clock := engine.StartClock()
	tr := ss.st.s.newTrace()
	tm := tr.Begin(obs.StageDelta, -1)
	res, err := ss.delta(dq, tr)
	if err != nil {
		tm.EndNote("error: " + err.Error())
	} else {
		tm.End(int64(dq.Table.NumRows()), int64(len(res.Rows)))
	}
	// Delta freshness: how long a committed batch took to fold into
	// the standing result (redos and failover re-placements included).
	ss.st.s.fab.Metrics().Histogram("delta_latency").Observe(clock.Elapsed().Nanoseconds())
	ss.mu.Lock()
	ss.lastTrace = tr
	ss.mu.Unlock()
	return res, err
}

// Plan returns the plan backing the subscription's delta executions.
// For HAVING subscriptions it is the GROUP BY SUM delta plan (see the
// package comment).
func (ss *Subscription) Plan() *Plan { return ss.plan }

// Switch returns the fabric switch a single-switch subscription is
// currently placed on, or -1 (sharded subscriptions own a program on
// every switch; direct subscriptions own none). The value changes when
// re-placement moves the standing program off a failed switch.
func (ss *Subscription) Switch() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if len(ss.placements) != 1 {
		return -1
	}
	return ss.placements[0].Switch
}

// Replaced returns how many times the subscription's standing
// program(s) have been re-placed after a switch failure.
func (ss *Subscription) Replaced() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.replaced
}

// Traffic returns the cumulative dataplane traffic of the
// subscription's delta executions.
func (ss *Subscription) Traffic() engine.Traffic {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.traffic
}

// Skipped returns the cumulative block-skip statistics of the
// subscription's delta executions: blocks (and their rows) the skip
// index proved irrelevant, so the delta never read or encoded them.
// Zero when the plan did not enable skipping (Plan().Skip).
func (ss *Subscription) Skipped() engine.SkipStats {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.skipped
}

// account adds one delta execution's traffic and skip statistics.
func (ss *Subscription) account(t engine.Traffic, sk engine.SkipStats) {
	ss.mu.Lock()
	ss.traffic.EntriesSent += t.EntriesSent
	ss.traffic.Forwarded += t.Forwarded
	ss.traffic.SecondPassSent += t.SecondPassSent
	ss.traffic.MasterProcessed += t.MasterProcessed
	ss.skipped.Add(sk)
	ss.mu.Unlock()
}

// Close deregisters the continuous query: the stream subscription
// drains its in-flight delta, then the standing program's switch
// resources release. Idempotent.
func (ss *Subscription) Close() {
	ss.once.Do(func() {
		ss.Subscription.Close()
		ss.mu.Lock()
		placements := ss.placements
		ss.placements = nil
		ss.mu.Unlock()
		for _, pl := range placements {
			pl.Release()
		}
		ss.st.mu.Lock()
		delete(ss.st.subs, ss)
		ss.st.mu.Unlock()
	})
}

// Subscribe registers q as a continuous query: the planner picks and
// sizes the pruning program (per switch at the session's fabric
// width), the session's fabric admits it — a standing program holds its
// switch state across deltas, and counts toward no tenant's quota — and
// every committed delta batch executes incrementally into a standing
// result that always equals a from-scratch run over the full committed
// prefix. Queries no switch can host (and placements shed by the queue
// limit) run their deltas as exact direct executions.
func (st *Streaming) Subscribe(ctx context.Context, q *engine.Query) (*Subscription, error) {
	return st.subscribe(ctx, q, 0, 0)
}

// SubscribeWindow is Subscribe for the windowed variants of the
// aggregate kinds (TOP N, GROUP BY MAX/SUM, HAVING): the standing
// result covers the most recently completed window of `window` rows,
// sliding by `slide` rows with the oldest rows retracted. window ==
// slide is a tumbling window; window must be a multiple of slide.
func (st *Streaming) SubscribeWindow(ctx context.Context, q *engine.Query, window, slide int) (*Subscription, error) {
	return st.subscribe(ctx, q, window, slide)
}

func (st *Streaming) subscribe(ctx context.Context, q *engine.Query, window, slide int) (*Subscription, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st.mu.Lock()
	closed := st.closed
	st.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("plan: streaming handle is closed")
	}
	if q == nil {
		return nil, fmt.Errorf("plan: Subscribe needs a query")
	}
	// Plan what every delta runs: HAVING deltas aggregate full per-key
	// sums (GROUP BY SUM program); the threshold applies at the standing
	// result.
	p, err := st.s.planFor(stream.DeltaQuery(q, q.Table), st.s.opts.Switches)
	if err != nil {
		return nil, err
	}
	if q.Kind == engine.KindHaving && p.Mode != ModeDirect {
		p.Reason += "; continuous having keeps exact per-key sums (threshold at the standing result)"
	}
	// Streaming always executes deltas in-process through the fabric;
	// the cluster transport has no incremental path.
	if p.Mode == ModeCluster {
		p.Mode = ModeCheetah
		p.Reason += "; streaming executes in-process (cluster transport has no incremental path)"
	}
	ss := &Subscription{st: st, plan: p, windowed: window != 0 || slide != 0}
	if p.Mode != ModeDirect {
		if err := ss.admit(ctx); err != nil {
			return nil, err
		}
	}
	sub, err := st.ing.Subscribe(q, stream.SubOptions{Exec: ss.exec, Window: window, Slide: slide})
	if err != nil {
		for _, pl := range ss.placements {
			pl.Release()
		}
		return nil, err
	}
	ss.Subscription = sub
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		ss.Close()
		return nil, fmt.Errorf("plan: streaming handle is closed")
	}
	st.subs[ss] = struct{}{}
	st.mu.Unlock()
	return ss, nil
}

// admit places the plan's standing programs — one per switch of the
// plan's width — to be held across deltas. A fabric that refuses them at
// admission (fallbackServing) leaves an exact direct subscription.
func (ss *Subscription) admit(ctx context.Context) error {
	pruners, err := ss.plan.NewShardPruners()
	if err != nil {
		return err
	}
	progs := make([]switchsim.Program, len(pruners))
	for i, pr := range pruners {
		progs[i] = pr
	}
	placements, err := ss.st.s.fab.Admit(ctx, fabric.Request{Shards: progs, Wait: true, Standing: true})
	if err != nil {
		if !fallbackServing(err) {
			return err
		}
		ss.plan = fallbackPlan(ss.plan, "streaming", err)
		return nil
	}
	ss.placements, ss.pruners = placements, pruners
	return nil
}

// delta executes one committed batch: exactly (direct) for an unpruned
// subscription, as a leased Session.run over the standing programs
// otherwise, with replace as the run's hook for a dead seat.
func (ss *Subscription) delta(dq *engine.Query, tr *obs.Trace) (*engine.Result, error) {
	p := ss.plan
	if p.Mode == ModeDirect {
		res, skipped, err := direct(dq, p, tr)
		ss.account(engine.Traffic{}, skipped)
		return res, err
	}
	ss.mu.Lock()
	pruners := slices.Clone(ss.pruners)
	flows := make([]engine.BatchDataplane, len(ss.placements))
	for i, pl := range ss.placements {
		flows[i] = pl
	}
	ss.mu.Unlock()
	resetForDelta(pruners, ss.windowed)
	run, err := ss.st.s.run(dq, p, pruners, flows, ss.replace, tr)
	if err != nil {
		return nil, err
	}
	ss.account(run.Traffic, run.Skipped)
	return run.Result, nil
}

// replace gives a dead seat a fresh, cold instance of the plan's program,
// admitted non-blocking — a standing query must move now or ride the
// engine's backstop for this delta, never queue behind other queries. It
// runs on the engine's per-shard goroutines; distinct shards re-place
// concurrently, so the subscription's lists update under ss.mu.
func (ss *Subscription) replace(shard, _ int) (prune.Pruner, engine.BatchDataplane, error) {
	pruner, err := ss.plan.NewPruner()
	if err != nil {
		return nil, nil, err
	}
	leases, err := ss.st.s.fab.Admit(context.Background(), fabric.Request{Prog: pruner, Standing: true})
	if err != nil {
		return nil, nil, err
	}
	placement := leases[0]
	ss.mu.Lock()
	old := ss.placements[shard]
	ss.placements[shard], ss.pruners[shard] = placement, pruner
	ss.replaced++
	ss.mu.Unlock()
	// Retire the dead placement: the failed switch's counters record the
	// migration and the (already revoked) lease releases.
	old.Retire()
	return pruner, placement, nil
}

// resetForDelta clears switch state before a delta execution where
// reuse would be wrong: always for JOIN (the delta is the build side —
// the filters must retrain), and for every program of a windowed
// subscription (state warmed outside the window must not prune rows
// inside it). Unwindowed single-pass programs deliberately keep their
// state — that is the standing-program payoff.
func resetForDelta(pruners []prune.Pruner, windowed bool) {
	for _, pr := range pruners {
		if _, isJoin := pr.(*prune.Join); isJoin || windowed {
			pr.Reset()
		}
	}
}

// Close shuts the streaming handle down: appends and new subscriptions
// fail, and every continuous query drains its in-flight delta and
// releases its standing program. The session's fabric stays open.
// Idempotent.
func (st *Streaming) Close() {
	st.once.Do(func() {
		st.mu.Lock()
		st.closed = true
		subs := make([]*Subscription, 0, len(st.subs))
		for ss := range st.subs {
			subs = append(subs, ss)
		}
		st.mu.Unlock()
		st.ing.Close()
		for _, ss := range subs {
			ss.Close()
		}
		st.s.mu.Lock()
		st.s.stream = nil
		st.s.mu.Unlock()
	})
}
