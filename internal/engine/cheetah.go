package engine

import (
	"fmt"

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
	// Scalar forces the legacy per-row execution path (one closure call
	// and one Program.Process per entry). The default is the pruned
	// executor (pass.go); the scalar path is kept frozen as the
	// equivalence-test reference and benchmark baseline. It runs the
	// program the default would (Pruner, else DefaultPruner) and reports
	// a ShardedRun with one PerSwitch entry.
	Scalar bool
	// Skip enables storage-side block skipping (skip.go) for kinds with
	// a sound block bound (FILTER, TOP N, JOIN) when the table carries a
	// skip index (table.BuildSkipIndex). Results stay bit-identical to
	// ExecDirect; skipped blocks are never encoded, so Traffic shrinks.
	// Batched path only; combining Skip with Scalar is an error — the
	// scalar path is the frozen equivalence oracle.
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
	// changes results, traffic or stats. The scalar path — the frozen
	// equivalence oracle — is never traced.
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
	var body func(*Query, CheetahOptions, prune.Pruner) (*ShardedRun, error)
	switch q.Kind {
	case KindFilter:
		body = cheetahFilter
	case KindDistinct:
		body = cheetahDistinct
	case KindTopN:
		body = cheetahTopN
	case KindGroupByMax:
		body = cheetahGroupByMax
	case KindGroupBySum:
		body = cheetahGroupBySum
	case KindHaving:
		body = cheetahHaving
	case KindJoin:
		body = cheetahJoin
	case KindSkyline:
		body = cheetahSkyline
	default:
		return nil, fmt.Errorf("engine: unknown kind %v", q.Kind)
	}
	run, err := body(q, opts, pruner)
	if err != nil {
		return nil, err
	}
	// One switch: its traffic is the run's.
	run.PerSwitch = []Traffic{run.Traffic}
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

// completeOnRows runs the master-side completion: the direct executor
// restricted to the surviving rows.
func completeOnRows(q *Query, rows []int) (*Result, error) {
	switch q.Kind {
	case KindFilter:
		return execFilter(q, q.Table, rows)
	case KindDistinct:
		return execDistinct(q, q.Table, rows)
	case KindTopN:
		return execTopN(q, q.Table, rows)
	case KindGroupByMax:
		return execGroupByMax(q, q.Table, rows)
	case KindSkyline:
		return execSkyline(q, q.Table, rows)
	default:
		return nil, fmt.Errorf("engine: no row completion for %v", q.Kind)
	}
}

func cheetahFilter(q *Query, opts CheetahOptions, pruner prune.Pruner) (*ShardedRun, error) {
	// Supported predicates run on the switch; LIKE predicates are
	// precomputed by the CWorker and shipped as bits (§4.1).
	cols := make([]int, len(q.Predicates))
	for i, p := range q.Predicates {
		cols[i] = q.Table.Schema().MustIndex(p.Col)
	}
	run := &ShardedRun{PrunerName: pruner.Name()}
	vals := make([]uint64, len(q.Predicates))
	var survivors []int
	interleave(q.Table, opts.Workers, func(r int) {
		for i := range q.Predicates {
			p := q.Predicates[i]
			if p.SwitchSupported() {
				vals[i] = uint64(q.Table.Int64At(cols[i], r))
			} else if p.Eval(q.Table, cols[i], r) {
				vals[i] = 1
			} else {
				vals[i] = 0
			}
		}
		run.Traffic.EntriesSent++
		if pruner.Process(vals) == switchsim.Forward {
			run.Traffic.Forwarded++
			survivors = append(survivors, r)
		}
	})
	res, err := completeOnRows(q, survivors)
	if err != nil {
		return nil, err
	}
	run.Result = res
	run.Traffic.MasterProcessed = len(survivors)
	run.Stats = pruner.Stats()
	return run, nil
}

func cheetahDistinct(q *Query, opts CheetahOptions, pruner prune.Pruner) (*ShardedRun, error) {
	cols := make([]int, len(q.DistinctCols))
	for i, c := range q.DistinctCols {
		cols[i] = q.Table.Schema().MustIndex(c)
	}
	run := &ShardedRun{PrunerName: pruner.Name()}
	vals := make([]uint64, 1)
	var survivors []int
	interleave(q.Table, opts.Workers, func(r int) {
		vals[0] = fingerprintRow(q.Table, cols, r, opts.Seed)
		run.Traffic.EntriesSent++
		if pruner.Process(vals) == switchsim.Forward {
			run.Traffic.Forwarded++
			survivors = append(survivors, r)
		}
	})
	res, err := completeOnRows(q, survivors)
	if err != nil {
		return nil, err
	}
	run.Result = res
	run.Traffic.MasterProcessed = len(survivors)
	run.Stats = pruner.Stats()
	return run, nil
}

func cheetahTopN(q *Query, opts CheetahOptions, pruner prune.Pruner) (*ShardedRun, error) {
	col := q.Table.Schema().MustIndex(q.OrderCol)
	run := &ShardedRun{PrunerName: pruner.Name()}
	vals := make([]uint64, 1)
	var survivors []int
	interleave(q.Table, opts.Workers, func(r int) {
		vals[0] = uint64(q.Table.Int64At(col, r))
		run.Traffic.EntriesSent++
		if pruner.Process(vals) == switchsim.Forward {
			run.Traffic.Forwarded++
			survivors = append(survivors, r)
		}
	})
	res, err := completeOnRows(q, survivors)
	if err != nil {
		return nil, err
	}
	run.Result = res
	run.Traffic.MasterProcessed = len(survivors)
	run.Stats = pruner.Stats()
	return run, nil
}

func cheetahGroupByMax(q *Query, opts CheetahOptions, pruner prune.Pruner) (*ShardedRun, error) {
	kc := q.Table.Schema().MustIndex(q.KeyCol)
	vc := q.Table.Schema().MustIndex(q.AggCol)
	run := &ShardedRun{PrunerName: pruner.Name()}
	vals := make([]uint64, 2)
	var survivors []int
	interleave(q.Table, opts.Workers, func(r int) {
		vals[0] = fingerprintRow(q.Table, []int{kc}, r, opts.Seed)
		vals[1] = uint64(q.Table.Int64At(vc, r))
		run.Traffic.EntriesSent++
		if pruner.Process(vals) == switchsim.Forward {
			run.Traffic.Forwarded++
			survivors = append(survivors, r)
		}
	})
	res, err := completeOnRows(q, survivors)
	if err != nil {
		return nil, err
	}
	run.Result = res
	run.Traffic.MasterProcessed = len(survivors)
	run.Stats = pruner.Stats()
	return run, nil
}

func cheetahGroupBySum(q *Query, opts CheetahOptions, p prune.Pruner) (*ShardedRun, error) {
	pruner, ok := p.(*prune.GroupBySum)
	if !ok {
		return nil, fmt.Errorf("engine: group-by-sum needs a *prune.GroupBySum, got %T", p)
	}
	kc := q.Table.Schema().MustIndex(q.KeyCol)
	vc := q.Table.Schema().MustIndex(q.AggCol)
	run := &ShardedRun{PrunerName: pruner.Name()}
	// The master accumulates (fingerprint → partial sum); fingerprints
	// resolve back to key strings via the CWorkers' key dictionaries
	// (late materialization).
	sums := map[uint64]int64{}
	fpToKey := map[uint64]string{}
	vals := make([]uint64, 2)
	interleave(q.Table, opts.Workers, func(r int) {
		fp := fingerprintRow(q.Table, []int{kc}, r, opts.Seed)
		if _, ok := fpToKey[fp]; !ok {
			fpToKey[fp] = cellString(q.Table, kc, r)
		}
		vals[0] = fp
		vals[1] = uint64(q.Table.Int64At(vc, r))
		run.Traffic.EntriesSent++
		if d, out := pruner.ProcessEmit(vals); d == switchsim.Forward {
			run.Traffic.Forwarded++
			sums[out[0]] += int64(out[1])
		}
	})
	for _, e := range pruner.Drain() {
		run.Traffic.Forwarded++
		sums[e[0]] += int64(e[1])
	}
	res := &Result{Columns: []string{q.KeyCol, "sum(" + q.AggCol + ")"}}
	for fp, v := range sums {
		res.Rows = append(res.Rows, []string{fpToKey[fp], fmtInt(v)})
	}
	res.Sort()
	run.Result = res
	run.Traffic.MasterProcessed = len(sums)
	run.Stats = pruner.Stats()
	return run, nil
}

func cheetahHaving(q *Query, opts CheetahOptions, p prune.Pruner) (*ShardedRun, error) {
	pruner, ok := p.(*prune.Having)
	if !ok {
		return nil, fmt.Errorf("engine: having needs a *prune.Having, got %T", p)
	}
	kc := q.Table.Schema().MustIndex(q.KeyCol)
	vc := q.Table.Schema().MustIndex(q.AggCol)
	run := &ShardedRun{PrunerName: pruner.Name()}
	// Pass 1: stream everything through the sketch; the master collects
	// candidate key fingerprints.
	candidates := map[uint64]bool{}
	vals := make([]uint64, 2)
	interleave(q.Table, opts.Workers, func(r int) {
		fp := fingerprintRow(q.Table, []int{kc}, r, opts.Seed)
		vals[0] = fp
		vals[1] = uint64(q.Table.Int64At(vc, r))
		run.Traffic.EntriesSent++
		if pruner.Process(vals) == switchsim.Forward {
			run.Traffic.Forwarded++
			candidates[fp] = true
		}
	})
	// Pass 2 (partial): workers re-stream only the candidate keys'
	// entries; the master computes exact sums and drops false positives
	// (§4.3).
	sums := map[string]int64{}
	interleave(q.Table, opts.Workers, func(r int) {
		fp := fingerprintRow(q.Table, []int{kc}, r, opts.Seed)
		if !candidates[fp] {
			return
		}
		run.Traffic.EntriesSent++
		run.Traffic.SecondPassSent++
		sums[cellString(q.Table, kc, r)] += q.Table.Int64At(vc, r)
	})
	res := &Result{Columns: []string{q.KeyCol}}
	for k, v := range sums {
		if v > q.Threshold {
			res.Rows = append(res.Rows, []string{k})
		}
	}
	res.Sort()
	run.Result = res
	run.Traffic.MasterProcessed = run.Traffic.SecondPassSent
	run.Stats = pruner.Stats()
	return run, nil
}

func cheetahJoin(q *Query, opts CheetahOptions, p prune.Pruner) (*ShardedRun, error) {
	pruner, ok := p.(*prune.Join)
	if !ok {
		return nil, fmt.Errorf("engine: join needs a *prune.Join, got %T", p)
	}
	lc := q.Table.Schema().MustIndex(q.LeftKey)
	rc := q.Right.Schema().MustIndex(q.RightKey)
	run := &ShardedRun{PrunerName: pruner.Name()}
	vals := make([]uint64, 2)
	var leftRows, rightRows []int
	if pruner.Asymmetric() {
		// §4.3's small-table optimization: stream side A once, unpruned,
		// while its filter trains; then prune side B against it.
		interleave(q.Table, opts.Workers, func(r int) {
			vals[0] = uint64(prune.SideA)
			vals[1] = fingerprintRow(q.Table, []int{lc}, r, opts.Seed)
			run.Traffic.EntriesSent++
			if pruner.Process(vals) == switchsim.Forward {
				run.Traffic.Forwarded++
				leftRows = append(leftRows, r)
			}
		})
		pruner.StartProbe()
		interleave(q.Right, opts.Workers, func(r int) {
			vals[0] = uint64(prune.SideB)
			vals[1] = fingerprintRow(q.Right, []int{rc}, r, opts.Seed)
			run.Traffic.EntriesSent++
			if pruner.Process(vals) == switchsim.Forward {
				run.Traffic.Forwarded++
				rightRows = append(rightRows, r)
			}
		})
		res, err := execJoin(q, leftRows, rightRows)
		if err != nil {
			return nil, err
		}
		run.Result = res
		run.Traffic.MasterProcessed = len(leftRows) + len(rightRows)
		run.Stats = pruner.Stats()
		return run, nil
	}
	// Pass 1: key columns of both tables build the filters (§4.3's input
	// column optimization). These packets terminate at the switch.
	interleave(q.Table, opts.Workers, func(r int) {
		vals[0] = uint64(prune.SideA)
		vals[1] = fingerprintRow(q.Table, []int{lc}, r, opts.Seed)
		run.Traffic.EntriesSent++
		if pruner.Process(vals) == switchsim.Forward {
			run.Traffic.Forwarded++
		}
	})
	interleave(q.Right, opts.Workers, func(r int) {
		vals[0] = uint64(prune.SideB)
		vals[1] = fingerprintRow(q.Right, []int{rc}, r, opts.Seed)
		run.Traffic.EntriesSent++
		if pruner.Process(vals) == switchsim.Forward {
			run.Traffic.Forwarded++
		}
	})
	// Pass 2: full entries, pruned by the other side's filter.
	pruner.StartProbe()
	interleave(q.Table, opts.Workers, func(r int) {
		vals[0] = uint64(prune.SideA)
		vals[1] = fingerprintRow(q.Table, []int{lc}, r, opts.Seed)
		run.Traffic.EntriesSent++
		if pruner.Process(vals) == switchsim.Forward {
			run.Traffic.Forwarded++
			leftRows = append(leftRows, r)
		}
	})
	interleave(q.Right, opts.Workers, func(r int) {
		vals[0] = uint64(prune.SideB)
		vals[1] = fingerprintRow(q.Right, []int{rc}, r, opts.Seed)
		run.Traffic.EntriesSent++
		if pruner.Process(vals) == switchsim.Forward {
			run.Traffic.Forwarded++
			rightRows = append(rightRows, r)
		}
	})
	res, err := execJoin(q, leftRows, rightRows)
	if err != nil {
		return nil, err
	}
	run.Result = res
	run.Traffic.MasterProcessed = len(leftRows) + len(rightRows)
	run.Stats = pruner.Stats()
	return run, nil
}

func cheetahSkyline(q *Query, opts CheetahOptions, p prune.Pruner) (*ShardedRun, error) {
	pruner, ok := p.(*prune.Skyline)
	if !ok {
		return nil, fmt.Errorf("engine: skyline needs a *prune.Skyline, got %T", p)
	}
	cols := make([]int, len(q.SkylineCols))
	for i, c := range q.SkylineCols {
		cols[i] = q.Table.Schema().MustIndex(c)
	}
	run := &ShardedRun{PrunerName: pruner.Name()}
	vals := make([]uint64, len(cols)+1)
	var survivors []int
	interleave(q.Table, opts.Workers, func(r int) {
		for i, c := range cols {
			vals[i] = uint64(q.Table.Int64At(c, r))
		}
		vals[len(cols)] = uint64(r)
		run.Traffic.EntriesSent++
		if pruner.Process(vals) == switchsim.Forward {
			run.Traffic.Forwarded++
			survivors = append(survivors, r)
		}
	})
	// Control-plane drain of the stored points at FIN: the entry ids
	// rode along through swaps, so the master late-materializes them.
	for _, e := range pruner.Drain() {
		run.Traffic.Forwarded++
		survivors = append(survivors, int(e[len(cols)]))
	}
	res, err := completeOnRows(q, survivors)
	if err != nil {
		return nil, err
	}
	run.Result = res
	run.Traffic.MasterProcessed = len(survivors)
	run.Stats = pruner.Stats()
	return run, nil
}

// fmtInt is strconv.FormatInt(v, 10) with a shorter name for call sites
// in this file.
func fmtInt(v int64) string {
	return fmt.Sprintf("%d", v)
}
