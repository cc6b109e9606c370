package engine

// This file implements the pruned driver — the only one: the table is
// sharded across k switches (the paper's deployment shape, where each
// rack's ToR switch prunes its own workers' streams), each shard runs the
// kind's pass (pass.go) concurrently on its own switch program — redone
// through a replacement when its switch dies mid-stream — and the kind's
// completion merges the shards' parts into a result that reproduces
// ExecDirect's exactly for every query kind. The single-switch run
// (ExecCheetah) is this driver at k = 1: one view of the whole table, one
// pass, a one-part completion that merges nothing.
//
// Correctness per kind under the split (contiguous row ranges, JOIN's
// key-hashed co-partition):
//
//   - FILTER / SKYLINE: each switch forwards a superset of its shard's
//     matching/non-dominated rows; the master gathers survivors and
//     re-runs the exact completion over the union. skyline(S) =
//     skyline(T) whenever skyline(T) ⊆ S ⊆ T. When every switch runs the
//     query's exact filter on a dataplane that forwards exactly its
//     verdicts the superset is the answer, and FILTER needs neither the
//     gather nor the recheck (filterExact, pass.grants).
//   - TOP N: every global top-N value is in its shard's local top N, so
//     per-shard N-heaps followed by a tightened global N-heap re-check
//     lose nothing.
//   - DISTINCT / GROUP BY: the shards' partials (partial.go) are keyed by
//     one id space — the query's key ids, resolved once on the unsplit
//     table — so they fold by id: dedupe / max / sum respectively, in k
//     parallel ranges of the key dictionary's order when the result holds
//     a good share of it.
//   - HAVING: a key with global sum S > T has some shard with local sum
//     ≥ ⌈S/k⌉ > ⌊T/k⌋, so per-shard sketches thresholded at ⌊T/k⌋
//     surface every true positive; the global second pass re-computes
//     exact sums per shard against the union of all shards' candidates,
//     merges them, and drops the extra false positives (the same
//     guarantee shape as §4.3's partial second pass).
//   - JOIN: the executor hash-shards both tables on the join keys, so
//     matching keys are co-located and per-switch Bloom joins are
//     disjoint: each shard sorts its own rows and the master merges the
//     sorted runs. The shards carry the key column only — all a JOIN pass
//     and its completion read — and an unchanged table hands back the
//     co-partition it built last time (table.ShardKeys).

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"cheetah/internal/obs"
	"cheetah/internal/prune"
	"cheetah/internal/table"
)

// ShardedOptions configures the multi-switch scatter/gather path.
type ShardedOptions struct {
	// Shards is the switch count; ≤ 0 selects 1.
	Shards int
	// Workers is the CWorker (partition) count per shard.
	Workers int
	// Seed drives fingerprinting and randomized pruner defaults. All
	// shards share it, so fingerprints agree at the global combine.
	Seed uint64
	// Pruners, when non-nil, supplies one program per shard (len must
	// equal Shards) — the planner's per-switch sizing. Defaults are the
	// single-switch configurations (defaultShardPruner), with HAVING's
	// sketch threshold tightened to ⌊threshold/Shards⌋ and randomized TOP
	// N's δ to δ/Shards.
	Pruners []prune.Pruner
	// Flows, when non-nil, routes shard i's batches through Flows[i] (a
	// flow-scoped handle on shard i's shared pipeline, or a whole rack
	// over a lossy network) instead of invoking the shard's pruner
	// directly. Requires Pruners: control-plane operations still address
	// the programs directly. A flow may forward a superset of what its
	// program decides; only one that offers its program through the
	// FusedProgram probe is trusted to forward exactly that.
	Flows []BatchDataplane
	// Failover, when non-nil, is consulted after a shard's switch dies
	// (its Flow implements HealthDataplane and reports failure): it
	// returns a fresh program and dataplane for the shard — typically a
	// new lease on a surviving switch — and the shard's whole stream is
	// redone through them, which is what keeps results §7.2-exact (state
	// a dead switch held in registers is unrecoverable, so the shard is
	// replayed from scratch, never patched). attempt counts from 1.
	// Returning an error, or exhausting maxFailoverAttempts, degrades
	// the shard to master-side execution of its own (reset) program —
	// the servers-are-the-backstop guarantee: switch loss costs
	// performance, never correctness.
	Failover func(shard, attempt int) (prune.Pruner, BatchDataplane, error)
	// Skip enables storage-side block skipping on each shard (skip.go)
	// for kinds with a sound block bound (FILTER, TOP N, JOIN). Shards
	// that are contiguous views of an indexed table inherit its skip
	// index; JOIN's key-only hash shards are tables without one and
	// simply scan. Results stay bit-identical to ExecDirect.
	Skip bool
	// NoFuse opts shards out of the fused compiled loops (fuse.go) and
	// back onto the chunked batch pipeline, mirroring
	// CheetahOptions.NoFuse. Shards whose dataplane withholds direct
	// program access (chaos-armed pipelines, racks) fall back per shard
	// automatically; Results are identical either way.
	NoFuse bool
	// Trace, when non-nil, collects one span per shard pass — noted with
	// the stream it took, fused or chunked, with where its key
	// fingerprints came from (keysNote) and, for JOIN, its key ids
	// (idsNote) — plus a failover span per discarded attempt and one merge
	// span for the master's completion, noted, for the aggregation kinds,
	// with where the query's key ids came from, into the query's lifecycle
	// trace: the span scheme of every pruned run, in
	// process or leased, at every width. Span recording is mutex-guarded,
	// so concurrent shard goroutines may share the trace. Tracing observes
	// only — results, traffic and stats are unchanged.
	Trace *obs.Trace
}

// ShardedRun is the outcome of a pruned execution: a scatter/gather one,
// or ExecCheetah's at one switch.
type ShardedRun struct {
	Result *Result
	// Traffic aggregates all switches: every field, MasterProcessed
	// included, is the sum of PerSwitch, and with one shard it is what
	// ExecCheetah reports.
	Traffic Traffic
	// PerSwitch is each switch's own traffic — what the single-switch
	// execution of that shard, with that switch's program, reports.
	// (HAVING's second pass re-streams each shard's rows of every shard's
	// candidates, so that part depends on the other shards.)
	PerSwitch []Traffic
	// Stats sums the shard programs' pruning statistics.
	Stats prune.Stats
	// PrunerName records the per-switch algorithm.
	PrunerName string
	// FailedOver counts switch replacements taken via Options.Failover
	// (shard streams redone on another switch).
	FailedOver int
	// Degraded counts shards that fell back to master-side execution of
	// their program after failover was exhausted or unavailable.
	Degraded int
	// Skipped sums the shards' block-skipping work (zero unless
	// Options.Skip was set and shards carried skip metadata).
	Skipped SkipStats
	// Wall is the execution's total wall time, captured once in
	// ExecSharded or ExecCheetah around the whole run (see Stopwatch) —
	// it covers every shard pass including failover redos, never a single
	// attempt.
	Wall time.Duration
}

// UnprunedFraction is Forwarded/EntriesSent over the whole fabric.
func (s *ShardedRun) UnprunedFraction() float64 {
	if s.Traffic.EntriesSent == 0 {
		return 0
	}
	return float64(s.Traffic.Forwarded) / float64(s.Traffic.EntriesSent)
}

// shardTables splits the query's input tables into k shards. JOIN's
// sides are hash-sharded on their keys, so that matching keys are
// co-located: the shards hold the key column alone and are shared
// read-only between the queries that find them memoised on the table
// (table.ShardKeys). Everything else — and a one-shard JOIN, which has
// nothing to co-locate — splits into contiguous zero-copy views.
func shardTables(q *Query, k int) (left, right []*table.Table, err error) {
	if q.Kind == KindJoin && k > 1 {
		if left, err = q.Table.ShardKeys(q.LeftKey, k); err != nil {
			return nil, nil, err
		}
		right, err = q.Right.ShardKeys(q.RightKey, k)
		return left, right, err
	}
	if left, err = q.Table.Partition(k); err != nil {
		return nil, nil, err
	}
	if q.Kind == KindJoin {
		right, err = q.Right.Partition(k)
	}
	return left, right, err
}

// shardExec is one shard's pass plus its failover bookkeeping.
type shardExec struct {
	pass
	idx      int
	attempts int  // failover replacements taken
	degraded bool // fell back to master-side execution
	// tm is the first attempt's span, opened with the shard's context so
	// that it covers what the shard sets up before it streams (its part,
	// its health check) — time a one-shard leased run would otherwise
	// spend under no span at all.
	tm obs.Timer
}

// maxFailoverAttempts caps per-shard switch replacements before the
// shard degrades to master-side execution.
const maxFailoverAttempts = 3

// healthErr reports the shard dataplane's failure, when it exposes
// health at all (a master-side progDataplane never fails).
func (se *shardExec) healthErr() error {
	if h, ok := se.dp.(HealthDataplane); ok {
		return h.Err()
	}
	return nil
}

// ensureHealthy gives the shard a live dataplane before an attempt:
// while the current one reports a dead switch, the Failover hook is
// asked for a replacement (capped), and past the cap — or without a
// hook — the shard degrades to running its own program master-side.
// The program is Reset first: its register state is treated as lost
// with the switch, exactly like the real failure it models.
func (se *shardExec) ensureHealthy(opts ShardedOptions) {
	for se.healthErr() != nil {
		if opts.Failover == nil || se.attempts >= maxFailoverAttempts {
			se.pruner.Reset()
			se.dp = progDataplane{prog: se.pruner}
			se.degraded = true
			return
		}
		se.attempts++
		p, dp, err := opts.Failover(se.idx, se.attempts)
		if err != nil || p == nil || dp == nil {
			se.pruner.Reset()
			se.dp = progDataplane{prog: se.pruner}
			se.degraded = true
			return
		}
		se.pruner, se.dp = p, dp
	}
}

// run executes one shard's whole stream (pass) with §7.2-exact
// failover: a pass that crossed its switch's death is discarded — the
// registers backing its pruning decisions are gone, so partial results
// cannot be trusted — and redone through a replacement dataplane. attempt
// is handed the shard's index and must (re)initialize all per-attempt
// state it accumulates, including reading se.pruner/se.dp at call time;
// se.traffic and se.skipped are reset here. The loop terminates: every
// retry either replaces the switch (capped) or lands on the master-side
// backstop, which cannot fail.
func (se *shardExec) run(opts ShardedOptions, attempt func(s int) error) error {
	for redo := false; ; redo = true {
		se.ensureHealthy(opts)
		se.traffic = Traffic{}
		se.skipped = SkipStats{}
		se.keys = ""
		if redo {
			se.tm = opts.Trace.Begin(obs.StageShard, se.idx)
		}
		tm := se.tm.Attempt(se.attempts)
		if err := attempt(se.idx); err != nil {
			return err
		}
		if se.healthErr() == nil {
			// The note names the stream the pass took (pass.fuse) and where
			// its key fingerprints and ids came from (keysNote, idsNote).
			note := "chunked"
			if se.fused {
				note = "fused"
			}
			if se.keys != "" {
				note += "; " + se.keys
			}
			if se.degraded {
				note += "; degraded: master-side backstop"
			}
			tm.Counts(int64(se.traffic.EntriesSent), int64(se.traffic.Forwarded)).EndNote(note)
			return nil
		}
		// The pass crossed the switch's death: its wall time is recorded
		// as a failover span and the stream is redone (§7.2).
		tm.Restage(obs.StageFailover).EndNote("pass discarded: switch died mid-stream")
	}
}

// forEachShard runs f concurrently for every shard and returns the first
// error. Each shard's pruning is one switch's independent dataplane. A
// panic in f costs the query, not the process: no caller can recover a
// panic in another goroutine, so it is recovered in the shard's own and
// returned as the shard's error — inline at one shard too, so that both
// widths fail alike.
func forEachShard(n int, f func(s int) error) error {
	if n == 1 {
		return runShard(0, f)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for s := 0; s < n; s++ {
		go func(s int) {
			defer wg.Done()
			errs[s] = runShard(s, f)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runShard is f(s) with a panic turned into the shard's error, stack
// included.
func runShard(s int, f func(s int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: shard %d panicked: %v\n%s", s, r, debug.Stack())
		}
	}()
	return f(s)
}

// newShardExecs shards the tables and builds each shard's context. The
// shards' spans open before the split, so that a split which rebuilds
// column storage (a JOIN co-partition the table had not memoised) is time
// under the shard spans, not under none.
func newShardExecs(q *Query, opts ShardedOptions) ([]*shardExec, error) {
	execs := make([]*shardExec, opts.Shards)
	for s := range execs {
		execs[s] = &shardExec{idx: s, tm: opts.Trace.Begin(obs.StageShard, s)}
	}
	left, right, err := shardTables(q, opts.Shards)
	if err != nil {
		return nil, err
	}
	for s, se := range execs {
		qs := *q
		qs.Table = left[s]
		if right != nil {
			qs.Right = right[s]
		}
		se.pass = pass{q: &qs, workers: opts.Workers, seed: opts.Seed, skip: opts.Skip, noFuse: opts.NoFuse}
		if opts.Pruners != nil {
			se.pruner = opts.Pruners[s]
		} else if se.pruner, err = defaultShardPruner(q, opts.Shards, opts.Seed); err != nil {
			return nil, err
		}
		if opts.Flows != nil {
			se.dp = opts.Flows[s]
		} else {
			se.dp = progDataplane{prog: se.pruner}
		}
	}
	return execs, nil
}

// ExecSharded runs the query across a fabric of Shards switches: the
// table is sharded, each shard's workers stream through their own switch
// program concurrently, and the master merges shard partials into the
// exact global result. The result is identical to ExecDirect for every
// query kind.
func ExecSharded(q *Query, opts ShardedOptions) (*ShardedRun, error) {
	clock := StartClock()
	run, err := execSharded(q, opts)
	if run != nil {
		// The engine's single wall capture: one stamp per call, covering
		// every shard pass and failover redo, never reset by a retry.
		run.Wall = clock.Elapsed()
	}
	return run, err
}

func execSharded(q *Query, opts ShardedOptions) (*ShardedRun, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := MixedJoinKeys(q); err != nil {
		return nil, err
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Pruners != nil {
		if len(opts.Pruners) != opts.Shards {
			return nil, fmt.Errorf("engine: got %d pruners for %d shards", len(opts.Pruners), opts.Shards)
		}
		// Unlike ExecCheetah's single nil-means-default Pruner, a partial
		// slice is ambiguous (which shards wanted defaults?) — reject it
		// before a nil program reaches a shard's dataplane.
		for i, p := range opts.Pruners {
			if p == nil {
				return nil, fmt.Errorf("engine: shard %d has a nil pruner (omit Pruners entirely for defaults)", i)
			}
		}
	}
	if opts.Flows != nil {
		if len(opts.Flows) != opts.Shards {
			return nil, fmt.Errorf("engine: got %d flows for %d shards", len(opts.Flows), opts.Shards)
		}
		if opts.Pruners == nil {
			return nil, fmt.Errorf("engine: shard flows require the matching Pruners (control-plane operations address programs directly)")
		}
	}
	execs, err := newShardExecs(q, opts)
	if err != nil {
		return nil, err
	}
	res, err := execPasses(q, execs, opts)
	if err != nil {
		return nil, err
	}
	run := &ShardedRun{Result: res}
	run.PrunerName = execs[0].pruner.Name()
	run.PerSwitch = make([]Traffic, len(execs))
	for s, se := range execs {
		run.PerSwitch[s] = se.traffic
		run.Traffic.EntriesSent += se.traffic.EntriesSent
		run.Traffic.Forwarded += se.traffic.Forwarded
		run.Traffic.SecondPassSent += se.traffic.SecondPassSent
		run.Traffic.MasterProcessed += se.traffic.MasterProcessed
		st := se.pruner.Stats()
		run.Stats.Processed += st.Processed
		run.Stats.Pruned += st.Pruned
		run.FailedOver += se.attempts
		if se.degraded {
			run.Degraded++
		}
		run.Skipped.Add(se.skipped)
	}
	return run, nil
}
