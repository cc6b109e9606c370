package plan

// This file is the session API's serving front door: Session.Serve opens
// the session's switch fabric for many concurrent clients, and
// Serving.Submit plans + admits + executes one query through a shared
// pipeline. It is the layer between the fluent builder (one query at a
// time) and internal/fabric (placement) + internal/serve (admission and
// QueryID multiplexing): Submit reuses the planner unchanged — at fabric
// width 1, since a served query runs whole on the switch it is placed
// on — then swaps the execution's exclusive pipeline ownership for a
// flow-scoped lease on the least-loaded switch.

import (
	"context"
	"fmt"
	"sync"

	"cheetah/internal/engine"
	"cheetah/internal/fabric"
	"cheetah/internal/obs"
	"cheetah/internal/prune"
	"cheetah/internal/serve"
	"cheetah/internal/switchsim"
)

// ServeOptions configures a serving handle.
type ServeOptions struct {
	// QueueLimit caps each switch's admission wait queue (0 =
	// unbounded). Queries arriving past the cap fall back to exact
	// direct execution instead of queueing — load shedding, not an
	// error.
	QueueLimit int
	// TenantQuota caps any one tenant's concurrently active leases per
	// switch (0 = unlimited). Quota-blocked submissions wait without
	// blocking other tenants' admissions.
	TenantQuota int
}

// Serving is a live multi-query serving handle over the session's
// switch fabric (Options.Switches pipelines). Any number of goroutines
// may call Submit concurrently: each submitted query is planned as
// usual, placed on the least-loaded switch (falling back to the FIFO
// queue of the least-contended one when every switch is busy), admitted
// under its own QueryID, executed through its flow-scoped dataplane
// handle, and uninstalled on completion. Queries no switch can ever
// host — and queries shed by the queue limit — run as exact direct
// executions, mirroring the planner's fallback semantics.
type Serving struct {
	s    *Session
	fab  *fabric.Fabric
	once sync.Once
}

// Serve opens the session's switch fabric for concurrent serving. The
// handle closes when ctx is done (or on Close); active queries finish,
// queued admissions fail over to direct execution.
func (s *Session) Serve(ctx context.Context, opts ServeOptions) (*Serving, error) {
	fab, err := fabric.New(fabric.Options{
		Switches:    s.opts.Switches,
		Model:       s.opts.Model,
		QueueLimit:  opts.QueueLimit,
		TenantQuota: opts.TenantQuota,
		Metrics:     s.opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	sv := &Serving{s: s, fab: fab}
	if err := s.addChild(sv); err != nil {
		fab.Close()
		return nil, err
	}
	if ctx != nil {
		context.AfterFunc(ctx, sv.Close)
	}
	return sv, nil
}

// Session returns the serving handle's session.
func (sv *Serving) Session() *Session { return sv.s }

// Switches returns the fabric width.
func (sv *Serving) Switches() int { return sv.fab.Size() }

// Fabric returns the serving handle's switch fabric, for failure-
// lifecycle control (Fail/Restore/Add) and per-switch access.
func (sv *Serving) Fabric() *fabric.Fabric { return sv.fab }

// Stats returns the serving layer's cumulative admission counters,
// summed across the fabric's switches.
func (sv *Serving) Stats() serve.Counters {
	var total serve.Counters
	for _, c := range sv.fab.Stats() {
		total.Add(c)
	}
	return total
}

// StatsPerSwitch returns each switch's admission counters, indexed by
// switch.
func (sv *Serving) StatsPerSwitch() []serve.Counters { return sv.fab.Stats() }

// Utilization reports the fabric's occupancy summed across switches
// (used and capacity both scale with switch count).
func (sv *Serving) Utilization() switchsim.Utilization {
	var total switchsim.Utilization
	for _, u := range sv.fab.Utilization() {
		total.Add(u)
	}
	return total
}

// UtilizationPerSwitch reports each pipeline's occupancy, indexed by
// switch.
func (sv *Serving) UtilizationPerSwitch() []switchsim.Utilization {
	return sv.fab.Utilization()
}

// Close shuts the serving layer down: queued admissions and future
// Submits fall back to direct execution. Idempotent.
func (sv *Serving) Close() {
	sv.once.Do(func() {
		sv.fab.Close()
		sv.s.removeChild(sv)
	})
}

// Submit plans and executes q through the fabric with default QoS. See
// SubmitQoS.
func (sv *Serving) Submit(ctx context.Context, q *engine.Query) (*Execution, error) {
	return sv.SubmitQoS(ctx, q, serve.QoS{})
}

// SubmitQoS plans and executes q through the fabric under the given
// QoS. The query is placed whole on one switch — least-loaded first,
// the least-contended FIFO queue when all are busy — and blocks while
// that queue is full unless the query is oversized or shed, in which
// case it runs direct. Within a queue, higher-priority submissions
// admit first; a tenant at its quota waits without blocking others; a
// submission whose qos.Deadline passes while queued fails with
// serve.ErrDeadline (deadline-based shedding — the query is dropped,
// not degraded). If the placed switch dies mid-query the pass is
// discarded and redone on a replacement switch admitted under the same
// QoS (Session.run; capped, then finished on the master-side backstop),
// so a Submit never returns a result tainted by a failure. Concurrent
// submissions multiplex their batches through per-query programs
// selected by QueryID on their placed switch.
func (sv *Serving) SubmitQoS(ctx context.Context, q *engine.Query, qos serve.QoS) (*Execution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// One clock over the whole submission: the execution's Wall covers
	// every failover attempt, admission waits and discarded passes
	// included — never reset per attempt.
	clock := engine.StartClock()
	tr := sv.s.newTrace()
	// A served query runs whole on its placed switch, so plan at fabric
	// width 1 regardless of the session's Exec width.
	ptm := tr.Begin(obs.StagePlan, -1)
	p, err := sv.s.planFor(q, 1)
	if err != nil {
		tr.Release()
		return nil, err
	}
	ptm.EndNote(p.Mode.String())
	// Serving always executes in-process through a shared pipeline — the
	// cluster transport has no multiplexed path — so a UseCluster plan
	// is rewritten to the mode that actually runs (the plan is fresh
	// from planFor, not shared).
	if p.Mode == ModeCluster {
		p.Mode = ModeCheetah
		p.Reason += "; serving executes in-process (cluster transport has no multiplexed path)"
	}
	var pruner prune.Pruner
	var placement *fabric.Placement
	if p.Mode == ModeCheetah {
		if placement, pruner, err = sv.admit(ctx, p, qos, 0, tr); err != nil {
			if !fallbackServing(err) {
				tr.Release()
				return nil, err
			}
			p = fallbackPlan(p, "serving", err)
		}
	}
	// The planner's own fallback (no program fits the model) bypasses
	// admission entirely — the oversized-query bypass — and a refused
	// admission joins it.
	if p.Mode == ModeDirect {
		return sv.s.execPlan(ctx, p, tr, clock)
	}
	// The placed switch died under the query: its counters record the
	// failover, the revoked lease releases, and a fresh program — the
	// dead switch's register state is unrecoverable, so the redone pass
	// replays the whole stream through clean state (§7.2) — is admitted
	// under the same ctx and QoS. A refusal the fallback predicate lists
	// leaves the engine's master-side backstop to finish the query; any
	// other (a missed deadline, a cancelled ctx) fails the Submit.
	var refused error
	replace := func(_, attempt int) (prune.Pruner, engine.BatchDataplane, error) {
		sv.fab.Server(placement.Switch).NoteFailedOver(qos.Tenant)
		placement.Release()
		npl, npr, err := sv.admit(ctx, p, qos, attempt, tr)
		if err != nil {
			if !fallbackServing(err) {
				refused = err
			}
			return nil, nil, err
		}
		placement = npl
		return npr, npl, nil
	}
	run, err := sv.s.run(q, p, []prune.Pruner{pruner}, []engine.BatchDataplane{placement}, replace, tr)
	if err == nil {
		err = refused
	}
	// Uninstalling is not the caller's wait: the lease the run ended on
	// releases after the report, and its Wall, are complete. Then the
	// program goes back to the session's free list, unless the run failed
	// or a dead switch touched it (a failover, a degraded finish, or a
	// lease revoked after the run).
	defer func() {
		reuse := err == nil && run.FailedOver == 0 && run.Degraded == 0 && placement.Err() == nil
		placement.Release()
		if reuse {
			sv.s.free.give(p, []prune.Pruner{pruner})
		}
	}()
	if err != nil {
		tr.Release()
		return nil, err
	}
	if run.Degraded > 0 {
		p.Reason += "; placed switch lost with no replacement to be had: finished on the master-side backstop (§7.2)"
	}
	ex := &Execution{
		Plan:         p,
		QueryID:      placement.QueryID(),
		Switch:       placement.Switch,
		PerSwitch:    sv.perSwitch(placement.Switch, run.Traffic),
		PipelineUtil: placement.Utilization(),
		trace:        tr,
	}
	sv.s.fill(ex, run)
	ex.Wall = clock.Elapsed()
	return ex, nil
}

// admit takes one seat for p's program under the query's QoS — a fresh
// program instance per admission — and records the admission (attempt 0)
// or re-admission as an admit span carrying the placed switch.
func (sv *Serving) admit(ctx context.Context, p *Plan, qos serve.QoS, attempt int, tr *obs.Trace) (*fabric.Placement, prune.Pruner, error) {
	pruner, err := p.NewPruner()
	if err != nil {
		return nil, nil, err
	}
	span := obs.Span{Stage: obs.StageAdmit, Switch: -1, Attempt: attempt, Start: tr.Elapsed()}
	placement, err := sv.fab.AdmitQoS(ctx, pruner, qos)
	span.Dur = tr.Elapsed() - span.Start
	if err != nil {
		span.Note = fmt.Sprintf("not admitted: %v", err)
		tr.Add(span)
		return nil, nil, err
	}
	span.Switch = placement.Switch
	tr.Add(span)
	tr.SetQueryID(placement.QueryID())
	return placement, pruner, nil
}

// perSwitch snapshots each fabric switch's serving counters and
// occupancy for an execution report; the placed switch additionally
// carries the execution's own traffic.
func (sv *Serving) perSwitch(placed int, t engine.Traffic) []SwitchReport {
	stats := sv.fab.Stats()
	utils := sv.fab.Utilization()
	out := make([]SwitchReport, len(stats))
	for i := range out {
		out[i] = SwitchReport{Serve: stats[i], Util: utils[i]}
	}
	if placed >= 0 && placed < len(out) {
		out[placed].Traffic = t
	}
	return out
}
