package plan

// This file is the session API's serving front door: Session.SubmitQoS
// plans + admits + executes one query through the session's switch
// fabric, for any number of concurrent clients. It is the layer between
// the fluent builder (one query at a time) and internal/fabric
// (placement, admission and QueryID multiplexing): SubmitQoS reuses
// the planner unchanged — at fabric width 1, since a served query runs
// whole on the switch it is placed on — then swaps the execution's
// exclusive pipeline ownership for a flow-scoped lease on the
// least-loaded switch. The fabric is the one Stream's standing
// programs sit on, so served queries share switches with them.

import (
	"context"
	"fmt"

	"cheetah/internal/engine"
	"cheetah/internal/fabric"
	"cheetah/internal/obs"
	"cheetah/internal/prune"
)

// Submit plans and executes q through the session's fabric with default
// QoS. See SubmitQoS.
func (s *Session) Submit(ctx context.Context, q *engine.Query) (*Execution, error) {
	return s.SubmitQoS(ctx, q, fabric.QoS{})
}

// SubmitQoS plans and executes q through the session's fabric under the
// given QoS; any number of goroutines may call it concurrently. The
// query is placed whole on one switch — least-loaded first, the
// least-contended FIFO queue when all are busy — admitted under its own
// QueryID, and uninstalled on completion. It blocks while that queue is
// full unless the query is oversized or shed, in which case it runs
// direct, as does a query submitted after Close. Within a queue,
// higher-priority submissions admit first; a tenant at its quota waits
// without blocking others; a submission whose qos.Deadline passes while
// queued fails with fabric.ErrDeadline (deadline-based shedding — the
// query is dropped, not degraded). If the placed switch dies mid-query
// the pass is discarded and redone on a replacement switch admitted
// under the same QoS (Session.run; capped, then finished on the
// master-side backstop), so a Submit never returns a result tainted by
// a failure. Concurrent submissions multiplex their batches through
// per-query programs selected by QueryID on their placed switch, beside
// the standing programs of the session's subscriptions.
func (s *Session) SubmitQoS(ctx context.Context, q *engine.Query, qos fabric.QoS) (*Execution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// One clock over the whole submission: the execution's Wall covers
	// every failover attempt, admission waits and discarded passes
	// included — never reset per attempt.
	clock := engine.StartClock()
	tr := s.newTrace()
	// A served query runs whole on its placed switch, so plan at fabric
	// width 1 regardless of the session's Exec width.
	ptm := tr.Begin(obs.StagePlan, -1)
	p, err := s.planFor(q, 1)
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
	var placement *fabric.Lease
	if p.Mode == ModeCheetah {
		if placement, pruner, err = s.admit(ctx, p, qos, 0, tr); err != nil {
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
		return s.execPlan(ctx, p, tr, clock)
	}
	// The placed switch died under the query: the revoked lease retires
	// (its switch's counters record the failover), and a fresh program —
	// the dead switch's register state is unrecoverable, so the redone
	// pass replays the whole stream through clean state (§7.2) — is
	// admitted under the same ctx and QoS. A refusal the fallback predicate lists
	// leaves the engine's master-side backstop to finish the query; any
	// other (a missed deadline, a cancelled ctx) fails the Submit.
	var refused error
	replace := func(_, attempt int) (prune.Pruner, engine.BatchDataplane, error) {
		placement.Retire()
		npl, npr, err := s.admit(ctx, p, qos, attempt, tr)
		if err != nil {
			if !fallbackServing(err) {
				refused = err
			}
			return nil, nil, err
		}
		placement = npl
		return npr, npl, nil
	}
	run, err := s.run(q, p, []prune.Pruner{pruner}, []engine.BatchDataplane{placement}, replace, tr)
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
			s.free.give(p, []prune.Pruner{pruner})
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
		PerSwitch:    s.perSwitch(placement.Switch, run.Traffic),
		PipelineUtil: placement.Utilization(),
		trace:        tr,
	}
	s.fill(ex, run)
	ex.Wall = clock.Elapsed()
	return ex, nil
}

// admit takes one seat for p's program under the query's QoS — a fresh
// program instance per admission — and records the admission (attempt 0)
// or re-admission as an admit span carrying the placed switch.
func (s *Session) admit(ctx context.Context, p *Plan, qos fabric.QoS, attempt int, tr *obs.Trace) (*fabric.Lease, prune.Pruner, error) {
	pruner, err := p.NewPruner()
	if err != nil {
		return nil, nil, err
	}
	span := obs.Span{Stage: obs.StageAdmit, Switch: -1, Attempt: attempt, Start: tr.Elapsed()}
	leases, err := s.fab.Admit(ctx, fabric.Request{Prog: pruner, QoS: qos, Wait: true})
	span.Dur = tr.Elapsed() - span.Start
	if err != nil {
		span.Note = fmt.Sprintf("not admitted: %v", err)
		tr.Add(span)
		return nil, nil, err
	}
	placement := leases[0]
	span.Switch = placement.Switch
	tr.Add(span)
	tr.SetQueryID(placement.QueryID())
	return placement, pruner, nil
}

// perSwitch snapshots each fabric switch's serving counters and
// occupancy for an execution report; the placed switch additionally
// carries the execution's own traffic.
func (s *Session) perSwitch(placed int, t engine.Traffic) []SwitchReport {
	stats := s.fab.Stats()
	utils := s.fab.Utilization()
	out := make([]SwitchReport, len(stats))
	for i := range out {
		out[i] = SwitchReport{Serve: stats[i], Util: utils[i]}
	}
	if placed >= 0 && placed < len(out) {
		out[placed].Traffic = t
	}
	return out
}
