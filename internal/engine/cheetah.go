package engine

import (
	"fmt"
	"strconv"

	"cheetah/internal/hashutil"
	"cheetah/internal/obs"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
)

// CheetahOptions configures the pruned execution path.
type CheetahOptions struct {
	// Workers is the number of CWorkers (data partitions). Paper testbed:
	// 5 for Big Data, 1 for TPC-H.
	Workers int
	// Pruner overrides the default pruner built for the query kind.
	// For KindJoin it must be a *prune.Join; for KindSkyline a
	// *prune.Skyline; etc.
	Pruner prune.Pruner
	// Seed drives fingerprinting and any randomized pruner defaults.
	Seed uint64
	// Scalar forces the per-entry reference path (execScalar: one loop
	// for every kind, one Program.Process call per entry, completion by
	// the direct executor over the forwarded rows). The default is the
	// pruned executor (pass.go); the scalar path is kept as the
	// equivalence-test reference and benchmark baseline. It runs the
	// program the default would (Pruner, else DefaultPruner) and reports
	// a ShardedRun with one PerSwitch entry.
	Scalar bool
	// Skip enables storage-side block skipping (skip.go) for kinds with
	// a sound block bound (FILTER, TOP N, JOIN) when the table carries a
	// skip index (table.BuildSkipIndex). Results stay bit-identical to
	// ExecDirect; skipped blocks are never encoded, so Traffic shrinks.
	// Batched path only; combining Skip with Scalar is an error — the
	// scalar path is the equivalence reference.
	Skip bool
	// NoFuse opts out of the fused execution loops (fuse.go) and keeps
	// the chunked batch pipeline. The fused loops are the default when the
	// query's pruner is a shipped type they know (pass.fuse); Results are
	// always bit-identical to ExecDirect either way. Traffic and Stats
	// are also identical for every kind except randomized TOP N, whose
	// fused RNG draws from a counter-indexed stream (prune decisions may
	// differ; final Results do not).
	NoFuse bool
	// Trace, when non-nil, collects the run's spans — one shard span for
	// the pass, noted fused or chunked, and one merge span for the
	// master's completion, like every pruned run (ShardedOptions.Trace) —
	// into the query's lifecycle trace. Tracing observes only: it never
	// changes results, traffic or stats. The scalar path — the
	// equivalence reference — is never traced.
	Trace *obs.Trace
}

// BatchDataplane processes one batch of entries for an already-admitted
// query flow. serve.Lease implements it by routing through the shared
// pipeline's per-flow program table (ShardedOptions.Flows), cluster.Rack
// by sending the entries over a lossy network through the §7.2 protocol;
// the engine's default implementation simply runs the execution's own
// pruner.
type BatchDataplane interface {
	ProcessBatch(b *switchsim.Batch, decisions []switchsim.Decision)
}

// HealthDataplane is the optional failure-aware extension of
// BatchDataplane: Err reports nil while the switch still holds the
// program and the revocation error once it died. A dead switch's
// dataplane stays safe to call — it forwards everything — but any pass
// that crossed the death may have lost program state the completion
// depends on (§7.2), so executions check Err after each pass and redo
// the work through a replacement. serve.Lease and cluster.Rack implement
// it.
type HealthDataplane interface {
	BatchDataplane
	Err() error
}

// progDataplane is the exclusive-ownership default: batches run straight
// on the query's program.
type progDataplane struct{ prog switchsim.Program }

func (d progDataplane) ProcessBatch(b *switchsim.Batch, decisions []switchsim.Decision) {
	switchsim.ProcessBatchOf(d.prog, b, decisions)
}

// FusedProgram implements the fused-capability probe (pass.fuse): on the
// exclusive path the execution owns the program outright, so direct
// access is always allowed.
func (d progDataplane) FusedProgram() switchsim.Program { return d.prog }

// Traffic counts the data movement of one Cheetah execution; the cost
// model converts it to time.
type Traffic struct {
	// EntriesSent counts worker→switch data packets across all passes.
	EntriesSent int
	// Forwarded counts switch→master survivors (including emitted
	// aggregates and control-plane drains).
	Forwarded int
	// SecondPassSent counts the partial second pass of HAVING (entries
	// re-streamed for candidate keys) — included in EntriesSent too.
	SecondPassSent int
	// MasterProcessed counts entries the master touched to complete the
	// query.
	MasterProcessed int
}

// ExecCheetah runs the query along the Cheetah path: partition the table
// across CWorkers, stream the relevant columns through the (simulated)
// switch pruner, and complete the query at the master on the survivors
// via late materialization (row ids travel in the packets). Unless
// opts.Scalar asks for the per-row reference, that is ExecSharded at one
// shard, and the run is its report.
func ExecCheetah(q *Query, opts CheetahOptions) (*ShardedRun, error) {
	clock := StartClock()
	run, err := execCheetah(q, opts)
	if run != nil {
		// The engine's single wall capture (satellite of the timing
		// unification): one stamp per call, covering every internal pass,
		// never reset by a retry.
		run.Wall = clock.Elapsed()
	}
	return run, err
}

func execCheetah(q *Query, opts CheetahOptions) (*ShardedRun, error) {
	if !opts.Scalar {
		// The pruned run at one switch is the sharded run at one shard
		// (shard.go): this is its adapter, not a second driver.
		so := ShardedOptions{Shards: 1, Workers: opts.Workers, Seed: opts.Seed,
			Skip: opts.Skip, NoFuse: opts.NoFuse, Trace: opts.Trace}
		if opts.Pruner != nil {
			so.Pruners = []prune.Pruner{opts.Pruner}
		}
		return execSharded(q, so)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := MixedJoinKeys(q); err != nil {
		return nil, err
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Skip {
		return nil, fmt.Errorf("engine: block skipping requires the batched path, not Scalar")
	}
	pruner := opts.Pruner
	if pruner == nil {
		p, err := DefaultPruner(q, opts.Seed)
		if err != nil {
			return nil, err
		}
		pruner = p
	}
	return execScalar(q, opts, pruner)
}

// execScalar is the per-entry reference: the one loop every kind shares
// (stream) sends each entry of the kind's stream, in interleave order, to
// the program in its own Process call, and the master keeps what the
// switch forwards and completes it through the direct executor (execRows)
// — the paper's master "runs the same query but on the pruned data". Each
// kind states only its encoding and what the master keeps of a forward.
func execScalar(q *Query, opts CheetahOptions, pruner prune.Pruner) (*ShardedRun, error) {
	run := &ShardedRun{PrunerName: pruner.Name()}
	tr := &run.Traffic
	em, emits := pruner.(switchsim.Emitter)
	// stream sends every row of t, encoded into width header values, to
	// the switch and hands each forwarded packet — the entry's values, or
	// the aggregate an Emitter rewrote them into — to onForward.
	stream := func(t *table.Table, width int, encode func(vals []uint64, r int), onForward func(r int, pkt []uint64)) {
		vals := make([]uint64, width)
		interleave(t, opts.Workers, func(r int) {
			encode(vals, r)
			tr.EntriesSent++
			d, pkt := switchsim.Forward, vals
			if emits {
				d, pkt = em.ProcessEmit(vals)
			} else {
				d = pruner.Process(vals)
			}
			if d == switchsim.Forward {
				tr.Forwarded++
				onForward(r, pkt)
			}
		})
	}
	// rows (and right, a JOIN's right side) are the forwarded rows the
	// master completes on (late materialization: row ids ride along).
	var rows, right []int
	keep := func(r int, _ []uint64) { rows = append(rows, r) }
	t, schema := q.Table, q.Table.Schema()
	var kc []int                         // a GROUP BY or HAVING key column, as fingerprintRow takes it
	var keyed func(vals []uint64, r int) // its entry: the key's fingerprint, then the value
	if q.Kind == KindGroupByMax || q.Kind == KindGroupBySum || q.Kind == KindHaving {
		kc = []int{schema.MustIndex(q.KeyCol)}
		vc := schema.MustIndex(q.AggCol)
		keyed = func(vals []uint64, r int) {
			vals[0] = fingerprintRow(t, kc, r, opts.Seed)
			vals[1] = uint64(t.Int64At(vc, r))
		}
	}
	switch q.Kind {
	case KindFilter:
		// Supported predicates run on the switch; LIKE predicates are
		// precomputed by the CWorker and shipped as bits (§4.1).
		cols := make([]int, len(q.Predicates))
		for i, p := range q.Predicates {
			cols[i] = schema.MustIndex(p.Col)
		}
		stream(t, len(cols), func(vals []uint64, r int) {
			for i, p := range q.Predicates {
				switch {
				case p.SwitchSupported():
					vals[i] = uint64(t.Int64At(cols[i], r))
				case p.Eval(t, cols[i], r):
					vals[i] = 1
				default:
					vals[i] = 0
				}
			}
		}, keep)
	case KindDistinct:
		cols := make([]int, len(q.DistinctCols))
		for i, c := range q.DistinctCols {
			cols[i] = schema.MustIndex(c)
		}
		stream(t, 1, func(vals []uint64, r int) { vals[0] = fingerprintRow(t, cols, r, opts.Seed) }, keep)
	case KindTopN:
		col := schema.MustIndex(q.OrderCol)
		stream(t, 1, func(vals []uint64, r int) { vals[0] = uint64(t.Int64At(col, r)) }, keep)
	case KindGroupByMax:
		stream(t, 2, keyed, keep)
	case KindGroupBySum:
		gbs, ok := pruner.(*prune.GroupBySum)
		if !ok {
			return nil, fmt.Errorf("engine: group-by-sum needs a *prune.GroupBySum, got %T", pruner)
		}
		// The switch forwards aggregates, not rows: the master accumulates
		// (fingerprint → partial sum), and fingerprints resolve back to key
		// strings via the CWorkers' key dictionaries.
		sums := map[uint64]int64{}
		fpToKey := map[uint64]string{}
		stream(t, 2, func(vals []uint64, r int) {
			keyed(vals, r)
			if _, ok := fpToKey[vals[0]]; !ok {
				fpToKey[vals[0]] = cellString(t, kc[0], r)
			}
		}, func(_ int, pkt []uint64) { sums[pkt[0]] += int64(pkt[1]) })
		for _, e := range gbs.Drain() {
			tr.Forwarded++
			sums[e[0]] += int64(e[1])
		}
		res := &Result{Columns: ResultColumns(q)}
		for fp, v := range sums {
			res.Rows = append(res.Rows, []string{fpToKey[fp], strconv.FormatInt(v, 10)})
		}
		res.Sort()
		run.Result = res
		tr.MasterProcessed = len(sums)
	case KindHaving:
		if _, ok := pruner.(*prune.Having); !ok {
			return nil, fmt.Errorf("engine: having needs a *prune.Having, got %T", pruner)
		}
		// Pass 1: everything streams through the sketch; the master
		// collects candidate key fingerprints. Pass 2 (partial): workers
		// re-stream only the candidate keys' entries, and the master's
		// exact sums drop the false positives (§4.3).
		candidates := map[uint64]bool{}
		stream(t, 2, keyed, func(_ int, pkt []uint64) { candidates[pkt[0]] = true })
		interleave(t, opts.Workers, func(r int) {
			if candidates[fingerprintRow(t, kc, r, opts.Seed)] {
				rows = append(rows, r)
			}
		})
		tr.EntriesSent += len(rows)
		tr.SecondPassSent = len(rows)
	case KindJoin:
		jp, ok := pruner.(*prune.Join)
		if !ok {
			return nil, fmt.Errorf("engine: join needs a *prune.Join, got %T", pruner)
		}
		side := func(tb *table.Table, s prune.JoinSide, col string) func([]uint64, int) {
			key := []int{tb.Schema().MustIndex(col)}
			return func(vals []uint64, r int) {
				vals[0] = uint64(s)
				vals[1] = fingerprintRow(tb, key, r, opts.Seed)
			}
		}
		a, b := side(t, prune.SideA, q.LeftKey), side(q.Right, prune.SideB, q.RightKey)
		if jp.Asymmetric() {
			// §4.3's small-table optimization: side A streams once,
			// unpruned, while its filter trains; side B is pruned against it.
			stream(t, 2, a, keep)
			jp.StartProbe()
		} else {
			// Pass 1: the key columns of both tables build the filters
			// (§4.3's input column optimization); these packets terminate
			// at the switch. Pass 2: full entries, pruned by the other
			// side's filter.
			drop := func(int, []uint64) {}
			stream(t, 2, a, drop)
			stream(q.Right, 2, b, drop)
			jp.StartProbe()
			stream(t, 2, a, keep)
		}
		stream(q.Right, 2, b, func(r int, _ []uint64) { right = append(right, r) })
	case KindSkyline:
		sp, ok := pruner.(*prune.Skyline)
		if !ok {
			return nil, fmt.Errorf("engine: skyline needs a *prune.Skyline, got %T", pruner)
		}
		cols := make([]int, len(q.SkylineCols))
		for i, c := range q.SkylineCols {
			cols[i] = schema.MustIndex(c)
		}
		stream(t, len(cols)+1, func(vals []uint64, r int) {
			for i, c := range cols {
				vals[i] = uint64(t.Int64At(c, r))
			}
			vals[len(cols)] = uint64(r)
		}, keep)
		// Control-plane drain of the stored points at FIN: the entry ids
		// rode along through swaps, so the master late-materializes them.
		for _, e := range sp.Drain() {
			tr.Forwarded++
			rows = append(rows, int(e[len(cols)]))
		}
	default:
		return nil, fmt.Errorf("engine: unknown kind %v", q.Kind)
	}
	if run.Result == nil {
		res, err := execRows(q, rows, right)
		if err != nil {
			return nil, err
		}
		run.Result = res
		tr.MasterProcessed = len(rows) + len(right)
	}
	run.Stats = pruner.Stats()
	// One switch: its traffic is the run's.
	run.PerSwitch = []Traffic{*tr}
	return run, nil
}

// interleave yields global row indices of t in the order the switch sees
// them: partitions stream concurrently, so entries arrive round-robin
// across the workers' partitions (§3's rack-scale setup).
func interleave(t *table.Table, workers int, visit func(globalRow int)) {
	n := t.NumRows()
	// Partition boundaries identical to table.Partition.
	starts := make([]int, workers+1)
	for i := 0; i <= workers; i++ {
		starts[i] = i * n / workers
	}
	offsets := make([]int, workers)
	remaining := n
	for remaining > 0 {
		for w := 0; w < workers; w++ {
			r := starts[w] + offsets[w]
			if r < starts[w+1] {
				visit(r)
				offsets[w]++
				remaining--
			}
		}
	}
}

// fingerprintRow hashes the named columns of row r into one 64-bit
// fingerprint, the CWorker-side encoding for wide/multi-column keys. It is
// the scalar reference's own, cell by cell: the pruned passes read a
// single-column key's fingerprints off the table instead
// (table.KeyFingerprints), and this path never does, so that it can check
// them.
func fingerprintRow(t *table.Table, cols []int, r int, seed uint64) uint64 {
	h := seed ^ 0xfeedface
	for _, c := range cols {
		var cell uint64
		if t.Schema()[c].Type == table.Int64 {
			cell = hashutil.HashUint64(uint64(t.Int64At(c, r)), seed)
		} else {
			cell = hashutil.HashString64(t.StringAt(c, r), seed)
		}
		h = hashutil.Mix64(h ^ cell)
	}
	return h
}
