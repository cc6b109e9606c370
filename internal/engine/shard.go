package engine

// This file implements the multi-switch scatter/gather execution path:
// the table is sharded across N switches (the paper's deployment shape,
// where each rack's ToR switch prunes its own workers' streams), each
// shard runs the batched pruning pipeline concurrently on its own
// switch program, and the master performs a two-level merge — shard-
// local partials first (fingerprint dedupe, TOP N heaps, aggregate
// maps), then a global combine — that reproduces ExecDirect's result
// exactly for every query kind.
//
// Correctness per kind under arbitrary sharding:
//
//   - FILTER / SKYLINE: each switch forwards a superset of its shard's
//     matching/non-dominated rows; the master gathers survivors and
//     re-runs the exact completion over the union. skyline(S) =
//     skyline(T) whenever skyline(T) ⊆ S ⊆ T. When every switch runs the
//     query's exact filter the superset is the answer, and FILTER needs
//     neither the gather nor the recheck (filterExact).
//   - TOP N: every global top-N value is in its shard's local top N, so
//     per-shard N-heaps followed by a tightened global N-heap re-check
//     lose nothing.
//   - DISTINCT / GROUP BY: partials (partial.go) merge by the
//     worker-computed fingerprint, which is seed-consistent across
//     shards; merging is dedupe / max / sum respectively.
//   - HAVING: a key with global sum S > T has some shard with local sum
//     ≥ ⌈S/k⌉ > ⌊T/k⌋, so per-shard sketches thresholded at ⌊T/k⌋
//     surface every true positive; the global second pass re-computes
//     exact sums per shard against the union of all shards' candidates,
//     merges them, and drops the extra false positives (the same
//     guarantee shape as §4.3's partial second pass).
//   - JOIN: the executor hash-shards both tables on the join keys, so
//     matching keys are co-located and per-switch Bloom joins compose
//     by concatenation, sorted once.

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"cheetah/internal/obs"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
)

// ShardStrategy selects how ExecSharded splits the table across
// switches.
type ShardStrategy uint8

const (
	// ShardAuto hash-shards JOIN inputs on their keys (required for
	// co-location) and splits everything else contiguously — the
	// cheapest correct default.
	ShardAuto ShardStrategy = iota
	// ShardContiguous splits into contiguous row ranges (zero-copy
	// views), like assigning Spark partitions to racks in file order.
	ShardContiguous
	// ShardHash hash-shards on the query's key column (DISTINCT's first
	// column, GROUP BY/HAVING's key, TOP N's order column, FILTER's
	// first predicate column, SKYLINE's first dimension).
	ShardHash
	// ShardRange range-shards on the query's key column (Int64 only).
	ShardRange
)

// String renders the strategy.
func (s ShardStrategy) String() string {
	switch s {
	case ShardContiguous:
		return "contiguous"
	case ShardHash:
		return "hash"
	case ShardRange:
		return "range"
	default:
		return "auto"
	}
}

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
	// equal Shards) — the planner's per-switch sizing. Defaults follow
	// the batched path's per-kind configurations, with HAVING's sketch
	// threshold tightened to ⌊threshold/Shards⌋.
	Pruners []prune.Pruner
	// Flows, when non-nil, routes shard i's batches through Flows[i] (a
	// flow-scoped handle on shard i's shared pipeline) instead of
	// invoking the shard's pruner directly. Requires Pruners: control-
	// plane operations still address the programs directly.
	Flows []BatchDataplane
	// Strategy selects the sharding scheme; see ShardAuto.
	Strategy ShardStrategy
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
	// Backoff, when positive, is the base delay before the first
	// failover attempt; each further attempt on the same shard doubles
	// it (capped exponential backoff — the cap is maxFailoverAttempts
	// itself). Zero retries immediately, which is what tests want.
	Backoff time.Duration
	// Skip enables storage-side block skipping on each shard (skip.go)
	// for kinds with a sound block bound (FILTER, TOP N, JOIN). Shards
	// that are contiguous views of an indexed table inherit its skip
	// index; hash/range shards are freshly materialized tables without
	// one and simply scan. Results stay bit-identical to ExecDirect.
	Skip bool
	// NoFuse opts shards out of the fused compiled loops (fuse.go) and
	// back onto the chunked batch pipeline, mirroring
	// CheetahOptions.NoFuse. Shards whose dataplane withholds direct
	// program access (chaos-armed pipelines) fall back per shard
	// automatically; Results are identical either way.
	NoFuse bool
	// Trace, when non-nil, collects one span per shard pass (plus a
	// failover span per discarded attempt and a global merge span) into
	// the query's lifecycle trace. Span recording is mutex-guarded, so
	// concurrent shard goroutines may share the trace. Tracing observes
	// only — results, traffic and stats are unchanged.
	Trace *obs.Trace
}

// ShardedRun is the outcome of a scatter/gather execution.
type ShardedRun struct {
	Result *Result
	// Traffic aggregates all switches (MasterProcessed is the global
	// combine's input size).
	Traffic Traffic
	// PerSwitch is each switch's own traffic (MasterProcessed is that
	// shard's contribution to the combine).
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
	// ExecSharded around the whole run (see Stopwatch) — it covers every
	// shard pass including failover redos, never a single attempt.
	Wall time.Duration
}

// UnprunedFraction is Forwarded/EntriesSent over the whole fabric.
func (s *ShardedRun) UnprunedFraction() float64 {
	if s.Traffic.EntriesSent == 0 {
		return 0
	}
	return float64(s.Traffic.Forwarded) / float64(s.Traffic.EntriesSent)
}

// shardKeyCol picks the column ShardHash/ShardRange split on.
func shardKeyCol(q *Query) (string, error) {
	switch q.Kind {
	case KindFilter:
		return q.Predicates[0].Col, nil
	case KindDistinct:
		return q.DistinctCols[0], nil
	case KindTopN:
		return q.OrderCol, nil
	case KindGroupByMax, KindGroupBySum, KindHaving:
		return q.KeyCol, nil
	case KindSkyline:
		return q.SkylineCols[0], nil
	default:
		return "", fmt.Errorf("engine: no shard key column for %v", q.Kind)
	}
}

// shardTables splits the query's input tables into k shards according to
// the strategy. For JOIN both sides are hash-sharded on their keys; any
// other strategy would break key co-location and is rejected.
func shardTables(q *Query, k int, strategy ShardStrategy) (left, right []*table.Table, err error) {
	if q.Kind == KindJoin {
		if strategy != ShardAuto && strategy != ShardHash {
			return nil, nil, fmt.Errorf("engine: sharded join requires hash sharding on the keys, not %v", strategy)
		}
		if k == 1 {
			// One shard needs no co-location: zero-copy views beat
			// rebuilding both tables' column storage.
			if left, err = q.Table.Partition(1); err != nil {
				return nil, nil, err
			}
			if right, err = q.Right.Partition(1); err != nil {
				return nil, nil, err
			}
			return left, right, nil
		}
		ls, li := q.Table.Schema(), q.Table.Schema().Index(q.LeftKey)
		rs, ri := q.Right.Schema(), q.Right.Schema().Index(q.RightKey)
		if ls[li].Type != rs[ri].Type {
			return nil, nil, fmt.Errorf("engine: sharded join needs same-typed keys, %q is %s and %q is %s",
				q.LeftKey, ls[li].Type, q.RightKey, rs[ri].Type)
		}
		if left, err = q.Table.ShardBy(q.LeftKey, k); err != nil {
			return nil, nil, err
		}
		if right, err = q.Right.ShardBy(q.RightKey, k); err != nil {
			return nil, nil, err
		}
		return left, right, nil
	}
	switch strategy {
	case ShardAuto, ShardContiguous:
		left, err = q.Table.Partition(k)
	case ShardHash:
		var col string
		if col, err = shardKeyCol(q); err == nil {
			left, err = q.Table.ShardBy(col, k)
		}
	case ShardRange:
		var col string
		if col, err = shardKeyCol(q); err == nil {
			left, err = q.Table.ShardByRange(col, k)
		}
	default:
		err = fmt.Errorf("engine: unknown shard strategy %d", uint8(strategy))
	}
	return left, nil, err
}

// defaultShardPruner builds shard s's program with the batched path's
// default configuration, tightened per shard where the merge needs it.
func defaultShardPruner(q *Query, shards int, seed uint64) (prune.Pruner, error) {
	switch q.Kind {
	case KindJoin:
		return prune.NewJoin(prune.DefaultJoinConfig(seed))
	case KindTopN:
		// Each shard's randomized program gets δ/k: a global top-N value
		// lives in exactly one shard, so the union bound over k
		// independent programs keeps the fabric-wide miss probability at
		// the single-switch default δ.
		return prune.NewRandTopN(prune.LegacyRandTopNConfig(q.N, 1e-4/float64(shards), seed))
	default:
		return defaultAggPruner(q, q.Threshold/int64(shards), seed)
	}
}

// shardPruner resolves shard s's program: the caller's when supplied
// (with a kind-specific type check where the executor needs the concrete
// interface), a tightened default otherwise.
func shardPruner(q *Query, opts ShardedOptions, s int) (prune.Pruner, error) {
	if opts.Pruners != nil {
		return opts.Pruners[s], nil
	}
	return defaultShardPruner(q, opts.Shards, opts.Seed)
}

// shardExec bundles one shard's execution context.
type shardExec struct {
	idx      int
	q        *Query // per-shard query (shard tables substituted)
	pruner   prune.Pruner
	dp       BatchDataplane
	traffic  Traffic
	skipped  SkipStats
	attempts int  // failover replacements taken
	degraded bool // fell back to master-side execution
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
		if opts.Backoff > 0 {
			time.Sleep(opts.Backoff << (se.attempts - 1))
		}
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
// cannot be trusted — and redone through a replacement dataplane. pass
// must (re)initialize all per-attempt state it accumulates, including
// reading se.pruner/se.dp at call time; se.traffic is reset here. The
// loop terminates: every retry either replaces the switch (capped) or
// lands on the master-side backstop, which cannot fail.
func (se *shardExec) run(opts ShardedOptions, pass func() error) error {
	for {
		se.ensureHealthy(opts)
		se.traffic = Traffic{}
		se.skipped = SkipStats{}
		tm := opts.Trace.Begin(obs.StageShard, se.idx).Attempt(se.attempts)
		if err := pass(); err != nil {
			return err
		}
		if se.healthErr() == nil {
			note := ""
			if se.degraded {
				note = "degraded: master-side backstop"
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
// error. Each shard's pruning is one switch's independent dataplane.
func forEachShard(n int, f func(s int) error) error {
	if n == 1 {
		return f(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for s := 0; s < n; s++ {
		go func(s int) {
			defer wg.Done()
			errs[s] = f(s)
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

// newShardExecs shards the tables and builds each shard's context.
func newShardExecs(q *Query, opts ShardedOptions) ([]*shardExec, error) {
	left, right, err := shardTables(q, opts.Shards, opts.Strategy)
	if err != nil {
		return nil, err
	}
	execs := make([]*shardExec, opts.Shards)
	for s := 0; s < opts.Shards; s++ {
		qs := *q
		qs.Table = left[s]
		if right != nil {
			qs.Right = right[s]
		}
		pruner, err := shardPruner(q, opts, s)
		if err != nil {
			return nil, err
		}
		se := &shardExec{idx: s, q: &qs, pruner: pruner}
		if opts.Flows != nil {
			se.dp = opts.Flows[s]
		} else {
			se.dp = progDataplane{prog: pruner}
		}
		execs[s] = se
	}
	return execs, nil
}

// gatherSurvivors copies each shard's surviving rows into one master-
// side table (late materialization of the gather step), one columnar
// sweep per shard.
func gatherSurvivors(execs []*shardExec, survivors [][]int) (*table.Table, error) {
	g, err := table.New(execs[0].q.Table.Schema())
	if err != nil {
		return nil, err
	}
	total := 0
	for _, rows := range survivors {
		total += len(rows)
	}
	g.Grow(total)
	for s, rows := range survivors {
		if err := g.AppendRowsFrom(execs[s].q.Table, rows); err != nil {
			return nil, err
		}
	}
	return g, nil
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
	traceBase := opts.Trace.Elapsed()
	var run *ShardedRun
	switch q.Kind {
	case KindFilter, KindSkyline:
		run, err = shardedGather(q, execs, opts)
	case KindTopN:
		run, err = shardedTopN(q, execs, opts)
	case KindDistinct, KindGroupByMax, KindGroupBySum, KindHaving:
		run, err = shardedAggregation(q, execs, opts)
	case KindJoin:
		run, err = shardedJoin(q, execs, opts)
	default:
		return nil, fmt.Errorf("engine: unknown kind %v", q.Kind)
	}
	if err != nil {
		return nil, err
	}
	run.PrunerName = execs[0].pruner.Name()
	run.PerSwitch = make([]Traffic, len(execs))
	for s, se := range execs {
		run.PerSwitch[s] = se.traffic
		run.Traffic.EntriesSent += se.traffic.EntriesSent
		run.Traffic.Forwarded += se.traffic.Forwarded
		run.Traffic.SecondPassSent += se.traffic.SecondPassSent
		st := se.pruner.Stats()
		run.Stats.Processed += st.Processed
		run.Stats.Pruned += st.Pruned
		run.FailedOver += se.attempts
		if se.degraded {
			run.Degraded++
		}
		run.Skipped.Add(se.skipped)
	}
	if tr := opts.Trace; tr != nil {
		// The global combine is everything after the last shard pass
		// finished: shard-local partials merged into the exact result.
		mergeStart := traceBase
		for _, s := range tr.Spans() {
			if (s.Stage == obs.StageShard || s.Stage == obs.StageFailover) && s.Start >= traceBase {
				if end := s.Start + s.Dur; end > mergeStart {
					mergeStart = end
				}
			}
		}
		now := tr.Elapsed()
		if now < mergeStart {
			mergeStart = now
		}
		tr.Add(obs.Span{Stage: obs.StageMerge, Switch: -1, Start: mergeStart,
			Dur: now - mergeStart, Entries: int64(run.Traffic.MasterProcessed)})
	}
	return run, nil
}

// shardSurvivors runs shard se's single-pass pruning stream and returns
// the shard-local surviving row ids, using the pruner's batched
// execution (ExecCheetah on the shard with the shard's own program).
// Kinds whose batched completion fuses away the survivor list (TOP N)
// have their own shard pass below.
func (se *shardExec) shardSurvivors(opts ShardedOptions, collect func(fwd []uint64, ids []uint64, b int)) error {
	q := se.q
	buf := getStreamBuf()
	defer putStreamBuf(buf)
	var encFor func(*table.Table) partEncoder
	var width int
	needIDs := true
	spans := fullSpans(q.Table)
	switch q.Kind {
	case KindFilter:
		cols := make([]int, len(q.Predicates))
		for i, p := range q.Predicates {
			cols[i] = q.Table.Schema().MustIndex(p.Col)
		}
		width = len(cols)
		if opts.Skip {
			// Contiguous shards are views of the indexed root and skip
			// against its (root-aligned) blocks; materialized hash/range
			// shards have no index and get the full span back.
			spans, se.skipped = filterSpans(q, q.Table, cols)
		}
		encFor = func(t *table.Table) partEncoder { return encFilter(t, q.Predicates, cols) }
	case KindSkyline:
		cols := make([]int, len(q.SkylineCols))
		for i, c := range q.SkylineCols {
			cols[i] = q.Table.Schema().MustIndex(c)
		}
		width = len(cols) + 1
		needIDs = false
		encFor = func(t *table.Table) partEncoder { return encCols64(t, cols) }
	default:
		return fmt.Errorf("engine: shardSurvivors does not handle %v", q.Kind)
	}
	return spanPass(q.Table, spans, opts.Workers, width, needIDs, buf, encFor, se.dp,
		func(b *switchsim.Batch, dec []switchsim.Decision, ids []uint64) {
			se.traffic.EntriesSent += b.N
			src := ids
			if q.Kind == KindSkyline {
				// The entry id rides as the last header column through
				// swaps.
				src = b.Cols[width-1]
			}
			fwd := buf.compactForwarded(src, dec, b.N)
			se.traffic.Forwarded += len(fwd)
			collect(fwd, ids, b.N)
		})
}

// shardedGather serves FILTER and SKYLINE: per-shard survivor streams,
// then an exact master completion over the gathered union. A FILTER
// whose every shard runs the query's exact filter (filterExact) needs
// neither the gather nor the recheck: its survivors are the answer, so
// the count is the forwards summed and the rows render straight from
// their shard tables.
func shardedGather(q *Query, execs []*shardExec, opts ShardedOptions) (*ShardedRun, error) {
	exact := q.Kind == KindFilter
	for _, se := range execs {
		exact = exact && filterExact(se.q, se.pruner)
	}
	survivors := make([][]int, len(execs))
	err := forEachShard(len(execs), func(s int) error {
		se := execs[s]
		return se.run(opts, func() error {
			if exact && se.attempts > 0 && !filterExact(se.q, se.pruner) {
				return fmt.Errorf("engine: shard %d: failover replaced the query's exact filter with a different program", s)
			}
			if rows, ok := se.fusedGatherPass(opts, exact && q.CountOnly); ok {
				survivors[s] = rows
				return nil
			}
			sv := survivorSet{remaining: se.q.Table.NumRows()}
			if err := se.shardSurvivors(opts, func(fwd []uint64, _ []uint64, chunkN int) {
				sv.add(fwd, chunkN)
			}); err != nil {
				return err
			}
			if q.Kind == KindSkyline {
				// Control-plane drain of the stored points at FIN.
				dr, ok := se.pruner.(prune.Drainer)
				if !ok {
					return fmt.Errorf("engine: skyline needs a draining pruner, got %T", se.pruner)
				}
				width := len(q.SkylineCols)
				for _, e := range dr.Drain() {
					se.traffic.Forwarded++
					sv.rows = append(sv.rows, int(e[width]))
				}
			}
			se.traffic.MasterProcessed = len(sv.rows)
			survivors[s] = sv.rows
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	run := &ShardedRun{}
	if exact {
		var rows [][]string
		for s, se := range execs {
			run.Traffic.MasterProcessed += se.traffic.Forwarded
			if !q.CountOnly {
				rows = appendFilterRows(rows, se.q.Table, survivors[s])
			}
		}
		run.Result = filterResult(q, run.Traffic.MasterProcessed, rows)
		return run, nil
	}
	g, err := gatherSurvivors(execs, survivors)
	if err != nil {
		return nil, err
	}
	qg := *q
	qg.Table = g
	if run.Result, err = completeOnRows(&qg, allRows(g)); err != nil {
		return nil, err
	}
	run.Traffic.MasterProcessed = g.NumRows()
	return run, nil
}

// shardedTopN keeps an N-heap per shard (the shard-local threshold),
// then re-checks the union in a global N-heap at the master.
func shardedTopN(q *Query, execs []*shardExec, opts ShardedOptions) (*ShardedRun, error) {
	heaps := make([]int64Heap, len(execs))
	err := forEachShard(len(execs), func(s int) error {
		se := execs[s]
		qs := se.q
		col := qs.Table.Schema().MustIndex(qs.OrderCol)
		return se.run(opts, func() error {
			if h, ok := se.fusedTopNPass(opts, col); ok {
				heaps[s] = h
				return nil
			}
			buf := getStreamBuf()
			defer putStreamBuf(buf)
			h := make(int64Heap, 0, qs.N)
			sink := func(b *switchsim.Batch, dec []switchsim.Decision, _ []uint64) {
				se.traffic.EntriesSent += b.N
				fwd := buf.compactForwarded(b.Cols[0], dec, b.N)
				se.traffic.Forwarded += len(fwd)
				for _, raw := range fwd {
					v := int64(raw)
					if len(h) < qs.N {
						h.push(v)
					} else if v > h[0] {
						h[0] = v
						h.fixRoot()
					}
				}
			}
			if opts.Skip && qs.Table.SkipIndex() != nil {
				// Shard-local threshold bound: the shard heap's h[0] is a
				// valid (if looser) lower bound for its own top N, which
				// is all the global merge consumes from this shard.
				topNSpanScan(qs.Table, col, qs.N, &h, &se.skipped, func(lo, hi int) {
					v, err := qs.Table.View(lo, hi)
					if err != nil {
						return
					}
					batchPass(v.NumRows(), opts.Workers, 1, false, buf, encInt64(v, col), se.dp, sink)
				})
			} else {
				batchPass(qs.Table.NumRows(), opts.Workers, 1, false, buf, encInt64(qs.Table, col), se.dp, sink)
			}
			se.traffic.MasterProcessed = len(h)
			heaps[s] = h
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	g := make(int64Heap, 0, q.N)
	forwarded := 0
	for _, h := range heaps {
		forwarded += len(h)
		for _, v := range h {
			if len(g) < q.N {
				g.push(v)
			} else if v > g[0] {
				g[0] = v
				g.fixRoot()
			}
		}
	}
	run := &ShardedRun{Result: topNResult(q, g)}
	run.Traffic.MasterProcessed = forwarded
	return run, nil
}

// shardedAggregation serves DISTINCT, GROUP BY MAX, GROUP BY SUM and
// HAVING: every shard streams into its own partial (aggPass), and the
// master merges the partials — by fingerprint, which is seed-consistent
// across shards — into shard 0's and renders it. HAVING inserts a
// barrier: the shards' candidates are unioned before any shard sums, a
// key's sum may cross the global threshold only in aggregate.
func shardedAggregation(q *Query, execs []*shardExec, opts ShardedOptions) (*ShardedRun, error) {
	partials := make([]*partial, len(execs))
	for s, se := range execs {
		partials[s] = newPartial(se.q)
		defer partials[s].release()
	}
	err := forEachShard(len(execs), func(s int) error {
		se, p := execs[s], partials[s]
		return se.run(opts, func() (err error) {
			p.reset(se.q.Table)
			se.traffic.EntriesSent, se.traffic.Forwarded, err = aggPass(se.q, se.pruner, se.dp,
				se.fusable(opts), opts.Seed, opts.Workers, p)
			se.traffic.MasterProcessed = len(p.ents)
			if q.Kind == KindDistinct {
				se.traffic.MasterProcessed = se.traffic.Forwarded
			}
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	g := partials[0]
	for _, p := range partials[1:] {
		g.merge(p)
	}
	run := &ShardedRun{}
	switch q.Kind {
	case KindGroupBySum:
		run.Traffic.MasterProcessed = len(g.ents)
	case KindHaving:
		// The exact pass is pruner-free, so it runs the same whatever the
		// shard's dataplane, and no switch can die under it.
		for _, p := range partials[1:] {
			p.copyCandidates(g)
		}
		vc := q.Table.Schema().MustIndex(q.AggCol)
		_ = forEachShard(len(execs), func(s int) error {
			tr := &execs[s].traffic
			tr.SecondPassSent = partials[s].sumCandidates(vc, opts.Seed)
			tr.EntriesSent += tr.SecondPassSent
			tr.MasterProcessed = tr.SecondPassSent
			return nil
		})
		for s, p := range partials {
			if s > 0 {
				g.merge(p)
			}
			run.Traffic.MasterProcessed += execs[s].traffic.SecondPassSent
		}
	default:
		for _, se := range execs {
			run.Traffic.MasterProcessed += se.traffic.Forwarded
		}
	}
	run.Result = g.render(q)
	return run, nil
}

// shardedJoin runs one Bloom join per switch over the co-located shard
// pair and concatenates the per-key summaries (hash co-location means no
// key spans switches): each shard completes to unsorted rows and the
// union is sorted once.
func shardedJoin(q *Query, execs []*shardExec, opts ShardedOptions) (*ShardedRun, error) {
	partials := make([][][]string, len(execs))
	err := forEachShard(len(execs), func(s int) error {
		se := execs[s]
		// The build and probe passes share the program's Bloom state, so
		// the retry unit is the whole build→probe sequence: a switch that
		// dies anywhere inside it invalidates the filter, never just one
		// pass.
		return se.run(opts, func() (err error) {
			j, ok := se.pruner.(*prune.Join)
			if !ok {
				return fmt.Errorf("engine: join needs a *prune.Join, got %T", se.pruner)
			}
			sc := joinScratchPool.Get().(*joinScratch)
			defer joinScratchPool.Put(sc)
			if se.fusedJoinPass(opts, sc) {
				partials[s], err = completeJoin(se.q, sc)
				return err
			}
			buf := getStreamBuf()
			defer putStreamBuf(buf)
			// Probe-side skipping per shard is exact for the same reason
			// as on the single-switch path (skip.go): a key absent from
			// every scanned right block is absent from the shard's left too.
			left, right, tr, skipped, err := batchJoinPasses(se.q, j, se.dp, opts.Workers, opts.Seed, opts.Skip, buf)
			if err != nil {
				return err
			}
			se.traffic, se.skipped = tr, skipped
			partials[s], err = completeJoinRows(se.q, opts.Seed, left, right)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	run := &ShardedRun{Result: joinResult(q, slices.Concat(partials...))}
	for _, se := range execs {
		run.Traffic.MasterProcessed += se.traffic.MasterProcessed
	}
	return run, nil
}
