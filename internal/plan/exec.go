package plan

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"cheetah/internal/cluster"
	"cheetah/internal/engine"
	"cheetah/internal/fabric"
	"cheetah/internal/obs"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
)

// Execution is the unified report of one Exec call: the result, the plan
// that produced it, the measured traffic and pruning statistics (zero
// for direct execution), the cluster protocol report when the network
// path ran, and the modelled completion-time estimates.
type Execution struct {
	Plan   *Plan
	Result *engine.Result
	// Traffic counts the pruned path's data movement; zero for
	// ModeDirect.
	Traffic engine.Traffic
	// Stats is the switch program's pruning statistics; zero for
	// ModeDirect.
	Stats prune.Stats
	// SkipStats counts the block skip index's work when the plan enabled
	// skipping (Plan.Skip): BlocksSkipped of BlocksSeen blocks were
	// proven irrelevant by zone maps/Blooms and never read, eliminating
	// RowsSkipped rows before encode. Zero when skipping was off or
	// nothing could be skipped.
	engine.SkipStats
	// ClusterReport is non-nil only for ModeCluster.
	ClusterReport *cluster.Report
	// QueryID is the flow id the serving layer assigned this execution
	// (the §5 Cheetah-header query id); 0 outside SubmitQoS.
	QueryID uint32
	// Switch is the fabric switch index a served query was placed on;
	// meaningful only when QueryID is non-zero.
	Switch int
	// PerSwitch reports each switch's traffic and occupancy for a
	// scatter/gather execution (Switches > 1 in the plan), and each
	// fabric switch's serving counters for a served (SubmitQoS)
	// execution; nil for plain single-switch and direct runs.
	PerSwitch []SwitchReport
	// FailedOver counts how many times this execution was redone on a
	// replacement switch after its placed switch died mid-query (§7.2
	// failover); only served executions fail over.
	FailedOver int
	// PipelineUtil is the switch occupancy attributed to this query: the
	// shared pipeline's snapshot at admission under SubmitQoS, a
	// dedicated pipeline's occupancy otherwise. Zero for ModeDirect.
	PipelineUtil switchsim.Utilization
	// Estimate is the modelled completion time of the path that ran.
	Estimate engine.Breakdown
	// SparkEstimate is the modelled completion time of the Spark-style
	// baseline on the same data, for comparison (Figure 5's other bar).
	SparkEstimate engine.Breakdown
	// Wall is the measured wall-clock of the whole execution, captured
	// once per call by the engine's shared Stopwatch. For a served query
	// it covers every failover attempt (admission waits and discarded
	// passes included) — never reset per attempt.
	Wall time.Duration

	// trace is the execution's lifecycle trace; nil when the session
	// disabled tracing (Options.DisableTracing).
	trace *obs.Trace
}

// Trace returns the execution's lifecycle trace: per-stage spans from
// planning through admission, switch passes and the master merge. Nil
// when the session disabled tracing.
func (e *Execution) Trace() *obs.Trace { return e.trace }

// SwitchReport is one fabric switch's share of a scatter/gather
// execution: its shard's traffic and the pipeline occupancy of its
// program. For served executions, Serve carries the switch's
// cumulative admission/failure counters at completion time.
type SwitchReport struct {
	Traffic engine.Traffic
	Util    switchsim.Utilization
	Serve   fabric.Counters
}

// UnprunedFraction is Forwarded/EntriesSent, Figures 10–11's metric; it
// reports 1 for direct execution (nothing was pruned).
func (e *Execution) UnprunedFraction() float64 {
	if e.Traffic.EntriesSent == 0 {
		return 1
	}
	return float64(e.Traffic.Forwarded) / float64(e.Traffic.EntriesSent)
}

// Explain renders the execution the way EXPLAIN ANALYZE would: the plan,
// the admission outcome, the measured traffic and the modelled times.
func (e *Execution) Explain() string {
	var b strings.Builder
	p := e.Plan
	fmt.Fprintf(&b, "query:   %s\n", p.Query.Kind)
	if p.Mode == ModeDirect {
		fmt.Fprintf(&b, "mode:    direct (single node)\n")
		fmt.Fprintf(&b, "reason:  %s\n", p.Reason)
	} else {
		if p.Switches > 1 {
			fmt.Fprintf(&b, "mode:    %s (%d switches × %d workers, %s fabric)\n",
				p.Mode, p.Switches, p.Workers, p.Model.Name)
		} else {
			fmt.Fprintf(&b, "mode:    %s (%d workers, switch %s)\n", p.Mode, p.Workers, p.Model.Name)
		}
		fmt.Fprintf(&b, "pruner:  %s (%s guarantee) — %s\n", p.PrunerName, p.Guarantee, p.Reason)
		fmt.Fprintf(&b, "switch:  %s\n", p.Profile)
		if e.QueryID != 0 {
			fmt.Fprintf(&b, "queryid: %d (shared pipeline, switch %d)\n", e.QueryID, e.Switch)
		}
		if e.PipelineUtil.StagesTotal != 0 {
			fmt.Fprintf(&b, "util:    %s\n", e.PipelineUtil)
		}
		fmt.Fprintf(&b, "traffic: sent=%d forwarded=%d pruned=%.2f%%\n",
			e.Traffic.EntriesSent, e.Traffic.Forwarded, 100*e.Stats.PruneRate())
		for i, sw := range e.PerSwitch {
			fmt.Fprintf(&b, "  switch %d: sent=%d forwarded=%d util %s\n",
				i, sw.Traffic.EntriesSent, sw.Traffic.Forwarded, sw.Util)
		}
	}
	if p.Skip {
		fmt.Fprintf(&b, "skip:    %d/%d blocks skipped via zone maps + blooms (%d rows never read)\n",
			e.BlocksSkipped, e.BlocksSeen, e.RowsSkipped)
	}
	if e.ClusterReport != nil {
		fmt.Fprintf(&b, "network: delivered=%d retransmits=%d\n",
			e.ClusterReport.Delivered, e.ClusterReport.Retransmissions)
	}
	if e.Result != nil {
		fmt.Fprintf(&b, "result:  %d rows\n", len(e.Result.Rows))
	}
	fmt.Fprintf(&b, "time:    %.3fs modelled (spark baseline %.3fs)\n",
		e.Estimate.Total(), e.SparkEstimate.Total())
	return b.String()
}

// ExplainAnalyze renders the execution the way Explain does, then
// appends what actually happened: the measured wall clock and the
// lifecycle trace's span tree (per-stage timings, per-switch passes,
// failover attempts, stream counts).
func (e *Execution) ExplainAnalyze() string {
	var b strings.Builder
	b.WriteString(e.Explain())
	fmt.Fprintf(&b, "wall:    %s measured\n", e.Wall.Round(time.Microsecond))
	if e.trace == nil {
		b.WriteString("trace:   disabled (Options.DisableTracing)\n")
	} else {
		e.trace.Render(&b)
	}
	return b.String()
}

// addSkipSpan records the skip-index consultation as a zero-duration
// span (consultation time is folded into the pass that consulted it):
// the span carries the rows the metadata eliminated before encode.
func addSkipSpan(tr *obs.Trace, start time.Duration, st engine.SkipStats) {
	if st.BlocksSeen == 0 {
		return
	}
	tr.Add(obs.Span{
		Stage: obs.StageSkip, Switch: -1, Start: start,
		Entries: int64(st.RowsSkipped),
		Note:    fmt.Sprintf("%d/%d blocks skipped", st.BlocksSkipped, st.BlocksSeen),
	})
}

// Exec plans and executes the query through the planned path. It is the
// session API's single execution entrypoint: the same call serves
// direct, batched-Cheetah and cluster execution, and always returns the
// full Execution report. Unless the session disabled tracing, the
// returned execution carries a lifecycle trace whose plan span covers
// the planner call itself — inside Execution.Wall, as on SubmitQoS: the
// one clock starts before planning.
func (s *Session) Exec(ctx context.Context, q *engine.Query) (*Execution, error) {
	clock := engine.StartClock()
	tr := s.newTrace()
	tm := tr.Begin(obs.StagePlan, -1)
	p, err := s.Plan(q)
	if err != nil {
		tr.Release()
		return nil, err
	}
	tm.EndNote(p.Mode.String())
	return s.execPlan(ctx, p, tr, clock)
}

// ExecPlan executes a previously computed plan, allowing one plan to be
// inspected (or rendered) before running and reused across runs. The
// trace of a pre-planned execution has no plan span — planning happened
// outside the call.
func (s *Session) ExecPlan(ctx context.Context, p *Plan) (*Execution, error) {
	clock := engine.StartClock()
	return s.execPlan(ctx, p, s.newTrace(), clock)
}

// execPlan runs a plan under an already-started trace and stamps the
// execution's Wall once, from the clock its front door started before the
// trace — so every span ends inside Wall — around the whole call: the
// single wall-clock capture point every execution path shares
// (engine.Stopwatch).
func (s *Session) execPlan(ctx context.Context, p *Plan, tr *obs.Trace, clock engine.Stopwatch) (*Execution, error) {
	ex, err := s.execPlanModes(ctx, p, tr)
	if err != nil {
		tr.Release()
		return nil, err
	}
	ex.Wall = clock.Elapsed()
	return ex, nil
}

func (s *Session) execPlanModes(ctx context.Context, p *Plan, tr *obs.Trace) (*Execution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ex := &Execution{Plan: p, trace: tr}
	q := p.Query
	switch p.Mode {
	case ModeDirect:
		res, skipped, err := direct(q, p, tr)
		if err != nil {
			return nil, err
		}
		ex.Result, ex.SkipStats = res, skipped
		// Direct execution is single-node: all rows on one machine — and
		// its baseline is a single rack's workers, whatever the session's
		// fabric width.
		ex.Estimate = costModel.SparkTime(q.Kind, []int{queryRows(q)}, len(res.Rows), false, nicGbps)
		ex.SparkEstimate = s.sparkEstimate(q, len(res.Rows), 1)
	case ModeCheetah, ModeCluster:
		pruners, err := p.NewShardPruners()
		if err != nil {
			return nil, err
		}
		// ModeCluster is this same run with one rack per switch as the
		// shards' dataplanes: the rack changes how entries travel, never
		// what the switch decides or how the master completes.
		var racks []*cluster.Rack
		var flows []engine.BatchDataplane
		if p.Mode == ModeCluster {
			if racks, err = s.openRacks(p, pruners); err != nil {
				return nil, err
			}
			for _, r := range racks {
				flows = append(flows, r)
			}
		}
		run, err := s.run(q, p, pruners, flows, nil, tr)
		rep, closeErr := closeRacks(racks)
		if err = errors.Join(err, closeErr); err != nil {
			return nil, err
		}
		s.fill(ex, run)
		// All of the plan's programs are identically configured, so one
		// pipeline's occupancy — rack 0's, or a dedicated switch's —
		// covers every switch.
		if rep != nil {
			ex.ClusterReport, ex.PipelineUtil = rep, rep.Util
		} else {
			ex.PipelineUtil = p.Model.Utilization(p.Profile)
		}
		// The run is read and its racks closed: the programs are done
		// with, and go back to the free list unless a failed switch or a
		// broken rack link touched them.
		if run.FailedOver == 0 && run.Degraded == 0 {
			s.free.give(p, pruners)
		}
		if p.Switches > 1 {
			ex.PerSwitch = make([]SwitchReport, p.Switches)
			for i := range ex.PerSwitch {
				ex.PerSwitch[i] = SwitchReport{Traffic: run.PerSwitch[i], Util: ex.PipelineUtil}
			}
		}
	default:
		return nil, fmt.Errorf("plan: unknown mode %v", p.Mode)
	}
	return ex, nil
}

// direct runs q exactly on one node — the oracle every pruned path
// equals — under a scan span. It still consults the skip index when the
// plan enabled skipping: skipping is storage-side, independent of whether
// a switch program runs.
func direct(q *engine.Query, p *Plan, tr *obs.Trace) (res *engine.Result, skipped engine.SkipStats, err error) {
	tm := tr.Begin(obs.StageScan, -1)
	start := tr.Elapsed()
	if p.Skip {
		res, skipped, err = engine.ExecDirectSkip(q)
	} else {
		res, err = engine.ExecDirect(q)
	}
	if err != nil {
		return nil, skipped, err
	}
	tm.End(int64(queryRows(q)), int64(len(res.Rows)))
	addSkipSpan(tr, start, skipped)
	return res, skipped, nil
}

// fallbackServing reports whether a fabric admission failure means "run
// exactly, without the switch" (§7.2: the servers keep results exact on
// their own — fabric.ErrFailed is a fully dead fabric) rather than "fail
// the call". Deadline misses are deliberately NOT in the list: a
// deadline-shed query is dropped, not silently retried on the slower
// path its deadline already couldn't afford.
func fallbackServing(err error) bool {
	return errors.Is(err, fabric.ErrNeverFits) ||
		errors.Is(err, fabric.ErrQueueFull) ||
		errors.Is(err, fabric.ErrClosed) ||
		errors.Is(err, fabric.ErrFailed)
}

// fallbackPlan is the exact direct plan a front door degrades to when the
// fabric refuses it a seat at admission (fallbackServing).
func fallbackPlan(p *Plan, door string, err error) *Plan {
	return &Plan{
		Query:    p.Query,
		Mode:     ModeDirect,
		Model:    p.Model,
		Workers:  p.Workers,
		Seed:     p.Seed,
		Switches: 1,
		Skip:     p.Skip,
		Reason:   fmt.Sprintf("%s fallback: %v", door, err),
	}
}

// run is the planning layer's one pruned execution: q (the plan's query,
// or a streaming delta of it) through pruners, instances of p's program
// in shard order. flows are the dataplanes a front door already holds for
// them — nil for Session.Exec, whose programs are dedicated and have no
// switch to lose, one rack per switch for its ModeCluster plans (a rack
// whose link breaks degrades its shard to the backstop), one lease for a
// served query, one per switch for a standing subscription — and replace
// re-seats a shard whose switch died (engine.ShardedOptions.Failover).
//
// Every pruned run, leased, racked or neither, at every width, is an
// engine.ExecSharded run, so the one §7.2 loop — discard a pass that
// crossed its switch's death, ask replace, redo, and past the cap or
// without a survivor finish the shard on the master-side backstop — is
// shardExec.run's, and every trace draws the switch/master line in the
// same place: shard spans, then merge.
func (s *Session) run(q *engine.Query, p *Plan, pruners []prune.Pruner, flows []engine.BatchDataplane,
	replace func(shard, attempt int) (prune.Pruner, engine.BatchDataplane, error), tr *obs.Trace) (*engine.ShardedRun, error) {
	start := tr.Elapsed()
	run, err := engine.ExecSharded(q, engine.ShardedOptions{
		Shards: len(pruners), Workers: p.Workers, Seed: p.Seed, Skip: p.Skip, Trace: tr,
		Pruners: pruners, Flows: flows, Failover: replace,
	})
	if err != nil {
		return nil, err
	}
	addSkipSpan(tr, start, run.Skipped)
	return run, nil
}

// fill populates the execution report from a pruned run. The
// completion-time estimate uses the fabric's bottleneck shape — racks
// stream in parallel while the master still touches every forwarded entry
// (fabricBottleneck, the identity at one switch).
func (s *Session) fill(ex *Execution, run *engine.ShardedRun) {
	q := ex.Plan.Query
	ex.Result = run.Result
	ex.Traffic = run.Traffic
	ex.Stats = run.Stats
	ex.SkipStats = run.Skipped
	ex.FailedOver = run.FailedOver
	ex.Estimate = costModel.CheetahTime(q.Kind, fabricBottleneck(run.Traffic, run.PerSwitch), nicGbps)
	ex.SparkEstimate = s.sparkEstimate(q, len(run.Result.Rows), ex.Plan.Switches)
}

// openRacks builds one Figure-1 rack per shard program, each on its own
// simulated network with independent loss randomness.
func (s *Session) openRacks(p *Plan, pruners []prune.Pruner) ([]*cluster.Rack, error) {
	racks := make([]*cluster.Rack, 0, len(pruners))
	for i, pr := range pruners {
		r, err := cluster.NewRack(pr, cluster.Config{
			Workers:  p.Workers,
			LossRate: s.opts.LossRate,
			Seed:     p.Seed + uint64(i)*0x9e3779b97f4a7c15,
			RTO:      s.opts.RTO,
			Model:    p.Model,
		})
		if err != nil {
			_, closeErr := closeRacks(racks)
			return nil, errors.Join(err, closeErr)
		}
		racks = append(racks, r)
	}
	return racks, nil
}

// closeRacks closes every rack and sums their reports, the pipeline
// occupancy and program name taken from rack 0; nil without racks.
func closeRacks(racks []*cluster.Rack) (*cluster.Report, error) {
	if len(racks) == 0 {
		return nil, nil
	}
	var errs []error
	sum := &cluster.Report{}
	for i, r := range racks {
		errs = append(errs, r.Close())
		rep := r.Report()
		if i == 0 {
			sum.PrunerName, sum.Util = rep.PrunerName, rep.Util
		}
		sum.EntriesSent += rep.EntriesSent
		sum.Pruned += rep.Pruned
		sum.Delivered += rep.Delivered
		sum.Retransmissions += rep.Retransmissions
		sum.DroppedGaps += rep.DroppedGaps
	}
	return sum, errors.Join(errs...)
}

// fabricBottleneck reshapes a sharded execution's traffic for the cost
// model: worker→switch legs run in parallel across racks (take the
// busiest switch's sent counts), while forwarded entries all converge
// on the master.
func fabricBottleneck(total engine.Traffic, perSwitch []engine.Traffic) engine.Traffic {
	t := engine.Traffic{
		Forwarded:       total.Forwarded,
		MasterProcessed: total.MasterProcessed,
	}
	for _, sw := range perSwitch {
		if sw.EntriesSent > t.EntriesSent {
			t.EntriesSent = sw.EntriesSent
		}
		if sw.SecondPassSent > t.SecondPassSent {
			t.SecondPassSent = sw.SecondPassSent
		}
	}
	return t
}

// queryRows counts the rows a query touches across its input tables.
func queryRows(q *engine.Query) int {
	rows := q.Table.NumRows()
	if q.Right != nil {
		rows += q.Right.NumRows()
	}
	return rows
}

// sparkEstimate models the Spark-style baseline on the same hardware
// the execution used: the table split evenly across every rack's
// workers at the plan's fabric width (served queries run whole on one
// switch, so their baseline is a single rack's workers), warm run.
func (s *Session) sparkEstimate(q *engine.Query, resultRows, switches int) engine.Breakdown {
	rows := queryRows(q)
	if switches <= 0 {
		switches = 1
	}
	workers := s.opts.Workers * switches
	perWorker := make([]int, workers)
	for i := range perWorker {
		perWorker[i] = rows / workers
		if i < rows%workers {
			perWorker[i]++
		}
	}
	return costModel.SparkTime(q.Kind, perWorker, resultRows, false, nicGbps)
}
