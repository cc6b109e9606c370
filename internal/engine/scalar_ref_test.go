package engine

import (
	"fmt"
	"strconv"

	"cheetah/internal/hashutil"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
)

// scalarRef runs q along the per-entry reference (execScalar) that the
// equivalence suites hold the pruned executor to: the program the
// pruned run would take (opts.Pruner, else DefaultPruner) sees every
// entry in its own Process call, and the master completes the forwarded
// rows through the direct executor. It reports a ShardedRun with one
// PerSwitch entry and no Wall. Skip, NoFuse and Trace do not apply.
func scalarRef(q *Query, opts CheetahOptions) (*ShardedRun, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := MixedJoinKeys(q); err != nil {
		return nil, err
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
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
