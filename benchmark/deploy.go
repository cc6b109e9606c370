package main

// The two deployment shapes the workloads run on: an in-process
// plan.Session (local_*) and a loopback netserve server with wire
// clients (remote_small, stream_append). Both expose the same three
// things — run op i of the stream, append a batch, and say how far each
// standing subscription has caught up — so one runner drives all four
// workloads. Everything here goes through the packages' public
// functions only.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cheetah/internal/engine"
	"cheetah/internal/netserve"
	"cheetah/internal/obs"
	"cheetah/internal/plan"
	"cheetah/internal/table"
	"cheetah/internal/wire"
)

// subKinds are the four standing subscriptions every deployment holds
// (variant 0 of each): one per pruner family that matters for
// freshness.
var subKinds = [...]int{opFilter, opDistinct, opTopN, opHaving}

const numSubs = len(subKinds)

// coverage tracks the version each subscription's standing result
// covers and when it got there. One consumer goroutine per subscription
// calls note; the ingest loop calls wait.
type coverage struct {
	mu      sync.Mutex
	ver     [numSubs]uint64
	at      [numSubs]time.Time
	updates int
	wake    chan struct{} // cap 1: a pending wake-up is enough
}

func newCoverage() *coverage { return &coverage{wake: make(chan struct{}, 1)} }

func (c *coverage) note(sub int, v uint64) {
	now := time.Now()
	c.mu.Lock()
	if v > c.ver[sub] {
		c.ver[sub], c.at[sub] = v, now
	}
	c.updates++
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

func (c *coverage) updateCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.updates
}

// wait blocks until every subscription covers v and returns when each
// got there; it fails when ctx ends first.
func (c *coverage) wait(ctx context.Context, v uint64) ([numSubs]time.Time, error) {
	for {
		c.mu.Lock()
		ok, at := true, c.at
		for _, got := range c.ver {
			ok = ok && got >= v
		}
		c.mu.Unlock()
		if ok {
			return at, nil
		}
		select {
		case <-c.wake:
		case <-ctx.Done():
			return at, fmt.Errorf("subscriptions did not cover version %d: %w", v, ctx.Err())
		}
	}
}

// opOut is one op's answer plus what the program reported about it.
type opOut struct {
	res       engine.Result
	wall      time.Duration // program-side execution wall
	stages    []obs.StageTotal
	sent, fwd int
	skip      engine.SkipStats
	direct    bool
	// Traced pass only: the harness spans around Session.Plan and around
	// Session.ExecPlan or Client.Query.
	planUs, callUs float64
}

type deployment interface {
	// query runs op i of the stream as client c. With a tracer it wraps
	// each call into a layer in a span under parent.
	query(ctx context.Context, tr *tracer, parent *span, c, i int) (opOut, error)
	appendBatch(ctx context.Context, b *table.Table) (uint64, error)
	// standing returns subscription sub's standing result and version.
	standing(sub int) (*engine.Result, uint64)
	// snapshot is the committed primary table, read through the
	// ingestor so it is ordered after every acknowledged append.
	snapshot() (*table.Table, uint64, error)
	covered() *coverage
	close()
}

// ---- in-process ----

type local struct {
	sess *plan.Session
	strm *plan.Streaming
	subs [numSubs]*plan.Subscription
	ops  *opStream
	cov  *coverage
	wg   sync.WaitGroup
}

// openLocal opens the session over e's primary table, the streaming
// handle and the four subscriptions.
func openLocal(ctx context.Context, tr *tracer, e *env) (*local, error) {
	l := &local{ops: e.ops, cov: newCoverage()}
	var err error
	tr.timed(nil, "plan", "plan.Open", func() {
		l.sess, err = plan.Open(e.primary, plan.Options{Workers: 1, Switches: e.w.switches, Seed: e.o.seed})
	})
	if err != nil {
		return nil, err
	}
	if l.strm, err = l.sess.Stream(ctx, plan.StreamOptions{}); err != nil {
		l.sess.Close()
		return nil, err
	}
	for i, q := range e.subQ {
		sub, err := l.strm.Subscribe(ctx, q)
		if err != nil {
			l.close()
			return nil, err
		}
		l.subs[i] = sub
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for u := range sub.Updates() {
				l.cov.note(i, u.Version)
			}
		}()
	}
	return l, nil
}

func (l *local) query(ctx context.Context, tr *tracer, parent *span, _, i int) (opOut, error) {
	q := l.ops[i]
	var ex *plan.Execution
	var err error
	if tr == nil {
		ex, err = l.sess.Exec(ctx, q)
	} else {
		var p *plan.Plan
		ps := tr.timed(parent, "plan", "Session.Plan", func() { p, err = l.sess.Plan(q) })
		if err != nil {
			return opOut{}, err
		}
		s := tr.begin(parent, "engine", "Session.ExecPlan")
		ex, err = l.sess.ExecPlan(ctx, p)
		if err != nil {
			tr.end(s, nil)
			return opOut{}, err
		}
		out := execOut(ex)
		tr.end(s, out.counts())
		out.planUs, out.callUs = ps.us(), s.us()
		return out, nil
	}
	if err != nil {
		return opOut{}, err
	}
	return execOut(ex), nil
}

func execOut(ex *plan.Execution) opOut {
	return opOut{
		res: *ex.Result, wall: ex.Wall, stages: ex.Trace().Summary(),
		sent: ex.Traffic.EntriesSent, fwd: ex.Traffic.Forwarded,
		skip: ex.SkipStats, direct: ex.Plan.Mode == plan.ModeDirect,
	}
}

// counts is what the program reported about an op, flattened for a
// span's counts.
func (o *opOut) counts() map[string]int64 {
	m := map[string]int64{
		"wall_ns": int64(o.wall), "sent": int64(o.sent), "forwarded": int64(o.fwd),
		"rows": int64(len(o.res.Rows)), "blocks_seen": int64(o.skip.BlocksSeen),
		"blocks_skipped": int64(o.skip.BlocksSkipped),
	}
	for _, st := range o.stages {
		m["stage."+st.Stage.String()+"_ns"] = st.Nanos
	}
	return m
}

func (l *local) appendBatch(_ context.Context, b *table.Table) (uint64, error) {
	if err := l.strm.AppendBatch(b); err != nil {
		return 0, err
	}
	// The single appender owns the version: nothing commits between the
	// append and this read.
	return l.strm.Version(), nil
}

func (l *local) standing(sub int) (*engine.Result, uint64) { return l.subs[sub].Results() }

func (l *local) snapshot() (*table.Table, uint64, error) { return l.strm.Ingest().Snapshot() }

func (l *local) covered() *coverage { return l.cov }

func (l *local) close() {
	l.sess.Close() // closes the streaming handle and its subscriptions
	l.wg.Wait()
}

// ---- loopback server ----

type remote struct {
	srv   *netserve.Server
	conns []*netserve.Client
	first int // conns[first:] are the query clients; conns[0] ingests
	specs [period]wire.QuerySpec
	subs  [numSubs]*netserve.ClientSub
	cov   *coverage
	wg    sync.WaitGroup

	mu          sync.Mutex
	last        [numSubs]*wire.UpdateMsg
	countBytes  bool // traced pass: re-encode updates for their size
	updateBytes int
}

// table names of the served catalog.
const (
	tPrimary  = "visits"
	tRankings = "rankings"
)

// specsOf detaches the op stream into wire specs against the catalog
// names.
func specsOf(ops *opStream) ([period]wire.QuerySpec, error) {
	var specs [period]wire.QuerySpec
	for i, q := range ops {
		right := ""
		if q.Right != nil {
			right = tRankings
		}
		s, err := wire.SpecOf(q, tPrimary, right)
		if err != nil {
			return specs, err
		}
		specs[i] = *s
	}
	return specs, nil
}

// openRemote starts a loopback server over e's tables and dials conns
// connections (tenant-0 at priority 1, the rest at priority 0); the
// last clients of them run queries. With stream set, the server streams
// and connection 0 holds the four subscriptions.
func openRemote(ctx context.Context, tr *tracer, e *env, conns, clients int, stream bool) (*remote, error) {
	r := &remote{cov: newCoverage(), first: conns - clients}
	var err error
	if r.specs, err = specsOf(e.ops); err != nil {
		return nil, err
	}
	opts := netserve.Options{
		Tables: e.catalog(), Primary: tPrimary,
		Plan: plan.Options{Workers: 1, Switches: e.w.switches, Seed: e.o.seed},
	}
	if stream {
		opts.Stream = &plan.StreamOptions{}
	}
	tr.timed(nil, "netserve", "netserve.Listen", func() { r.srv, err = netserve.Listen("127.0.0.1:0", opts) })
	if err != nil {
		return nil, err
	}
	for c := 0; c < conns; c++ {
		var cl *netserve.Client
		tr.timed(nil, "netserve", "netserve.Dial", func() {
			cl, err = netserve.Dial(r.srv.Addr().String(), fmt.Sprintf("tenant-%d", c))
		})
		if err != nil {
			r.close()
			return nil, err
		}
		r.conns = append(r.conns, cl)
	}
	if !stream {
		return r, nil
	}
	for i, k := range subKinds {
		sub, err := r.conns[0].Subscribe(ctx, r.specs[k], netserve.SubscribeOptions{Credits: 1})
		if err != nil {
			r.close()
			return nil, err
		}
		r.subs[i] = sub
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for u := range sub.Updates() {
				r.mu.Lock()
				r.last[i] = u
				if r.countBytes {
					r.updateBytes += len(u.EncodeBody(nil))
				}
				r.mu.Unlock()
				// A failed credit means the connection is gone; the next
				// append or wait reports it.
				_ = sub.Credit(1)
				r.cov.note(i, u.Version)
			}
		}()
	}
	return r, nil
}

func (r *remote) query(ctx context.Context, tr *tracer, parent *span, c, i int) (opOut, error) {
	cl := r.conns[r.first+c]
	prio := 0
	if r.first+c == 0 {
		prio = 1
	}
	s := tr.begin(parent, "netserve", "Client.Query")
	res, err := cl.Query(ctx, r.specs[i], netserve.QueryOptions{Priority: prio})
	if err != nil {
		tr.end(s, nil)
		return opOut{}, err
	}
	out := opOut{
		res:  engine.Result{Columns: res.Columns, Rows: res.Rows},
		wall: time.Duration(res.WallNanos), sent: int(res.EntriesSent), fwd: int(res.Forwarded),
		direct: plan.Mode(res.Mode) == plan.ModeDirect,
	}
	for _, st := range res.Trace {
		out.stages = append(out.stages, obs.StageTotal{
			Stage: obs.Stage(st.Stage), Nanos: int64(st.Nanos),
			Entries: int64(st.Entries), Forwarded: int64(st.Forwarded),
		})
	}
	if tr != nil {
		tr.end(s, out.counts())
		out.callUs = s.us()
	}
	return out, nil
}

func (r *remote) appendBatch(ctx context.Context, b *table.Table) (uint64, error) {
	return r.conns[0].Append(ctx, b)
}

func (r *remote) standing(sub int) (*engine.Result, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	u := r.last[sub]
	if u == nil {
		return nil, 0
	}
	return &engine.Result{Columns: u.Columns, Rows: u.Rows}, u.Version
}

func (r *remote) snapshot() (*table.Table, uint64, error) {
	return r.srv.Streaming().Ingest().Snapshot()
}

func (r *remote) covered() *coverage { return r.cov }

func (r *remote) close() {
	for _, cl := range r.conns {
		_ = cl.Close() // teardown: the server closes next regardless
	}
	if r.srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = r.srv.Shutdown(sctx) // on timeout the remaining teardown finishes in the background
		cancel()
	}
	r.wg.Wait()
}
