package engine

// The pruned executor. The paper has one dataflow — workers stream
// entries through a switch program, the master completes the query on
// the survivors — and its rack-scale deployment is that dataflow k times
// plus a merge. This file is that shape written once: a pass streams one
// table (pair) through one program on one dataplane into the kind
// family's part, and a completion merges a list of parts and renders the
// Result.
//
//	family               pass       part                   completion
//	FILTER, SKYLINE      survivors  surviving row ids      completeSurvivors
//	TOP N                topN       N-heap                 completeTopN
//	JOIN                 join       pair counts by the     completeJoin
//	                                query's right key ids
//	DISTINCT, GROUP BY   agg        partial (partial.go)   completeAgg
//	MAX/SUM, HAVING      (agg.go)
//
// execPasses has one driver, ExecSharded (shard.go): one pass per shard
// under shardExec.run's failover, then the completion. ExecCheetah is that
// driver at one shard — same Result, Traffic, Stats and SkipStats by
// construction — and a one-part completion merges nothing.
//
// A pass chooses between the fused loops (fuse.go) and the chunked
// pipeline (batch.go) itself, from what it can observe: see fuse. Results
// are bit-identical to ExecDirect either way; Traffic and Stats are too,
// randomized TOP N's RNG stream aside (fuse.go).

import (
	"fmt"

	"cheetah/internal/obs"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
)

// pass is one table (pair) streaming through one program on one
// dataplane, and the traffic and skipping that run accounted for.
type pass struct {
	q       *Query // the pass's own query: a shard's view stands in for the whole table
	pruner  prune.Pruner
	dp      BatchDataplane
	workers int
	seed    uint64
	skip    bool // block skipping (skip.go) for the kinds with a sound bound
	noFuse  bool
	fused   bool // the latest run took the fused loops
	// keys is the latest run's keysNote — whether its key fingerprints came
	// off the table or were hashed first, and for JOIN its idsNote and
	// xmapNote likewise; empty for the kinds that read none.
	keys string
	// traffic.MasterProcessed is what the master touches to complete this
	// pass's part, defined by the scalar reference (scalar_ref_test.go): the
	// forwarded entries, but GROUP BY SUM's distinct forwarded keys and
	// HAVING's re-streamed second pass.
	traffic Traffic
	skipped SkipStats
}

// fuse decides, and records, whether this run drives the program's state
// directly through the fused loops instead of chunking batches through
// the dataplane. ok is the family's own condition — the program is a
// shipped concrete type the loops know, JOIN starts in its build phase.
// Beyond it the dataplane must grant direct access to the program.
func (ps *pass) fuse(ok bool) bool {
	ps.fused = ok && !ps.noFuse && ps.grants()
	return ps.fused
}

// grants reports whether the dataplane offers the very program the pass
// holds through the FusedProgram probe — which also vouches that what it
// forwards is exactly what that program decides. The exclusive
// progDataplane always does; a fabric.Lease does only while its pipeline
// is healthy and no fault injector is armed (chaos runs keep the chunked
// per-batch kill semantics), and never for a program other than the one
// installed for the flow; a cluster.Rack, which forwards a superset, never
// does.
func (ps *pass) grants() bool {
	fp, ok := ps.dp.(interface{ FusedProgram() switchsim.Program })
	return ok && fp.FusedProgram() == switchsim.Program(ps.pruner)
}

// survivors is FILTER's and SKYLINE's pass: it returns the surviving row
// ids in the pass's own table's coordinates, SKYLINE's control-plane drain
// included. With countOnly — an exact FILTER count — it collects none:
// the forward count is the answer.
func (ps *pass) survivors(countOnly bool) (rows []int, err error) {
	q, t, tr := ps.q, ps.q.Table, &ps.traffic
	var cols []int
	spans := fullSpans(t)
	if q.Kind == KindSkyline {
		cols = make([]int, len(q.SkylineCols))
		for i, c := range q.SkylineCols {
			cols[i] = t.Schema().MustIndex(c)
		}
		if sk, ok := ps.pruner.(*prune.Skyline); ps.fuse(ok) {
			rows, tr.EntriesSent, tr.Forwarded = fusedSkylineScan(t, cols, sk, ps.workers)
			sk.AddStats(uint64(tr.EntriesSent), uint64(tr.EntriesSent-tr.Forwarded))
		}
	} else {
		cols = make([]int, len(q.Predicates))
		for i, p := range q.Predicates {
			cols[i] = t.Schema().MustIndex(p.Col)
		}
		if ps.skip {
			// Skipping is exact for FILTER (monotone formula over block
			// bounds; skip.go): a skipped block holds no matching row.
			// Contiguous shards are views of the indexed root and skip
			// against its blocks.
			spans, ps.skipped = filterSpans(q, t, cols)
		}
		if f, ok := ps.pruner.(*prune.Filter); ps.fuse(ok) {
			// ok=false: the program's predicate layout is not the query's
			// wire format, and the stream is the dataplane's after all.
			var sent, fwd int
			rows, sent, fwd, ok = fusedFilterScan(t, q.Predicates, cols, f, spans, !countOnly)
			if ps.fused = ok; ok {
				f.AddStats(uint64(sent), uint64(sent-fwd))
				tr.EntriesSent, tr.Forwarded = sent, fwd
			}
		}
	}
	if !ps.fused {
		// The chunked pipeline. FILTER's packets carry the predicate
		// columns, and its survivors are their positions; SKYLINE's entry
		// id is a real header value — the last column — riding through the
		// program's swaps.
		enc, width := encFilter(t, q.Predicates, cols), len(cols)
		keep := func(_ [][]uint64, _, row int) { rows = append(rows, row) }
		switch {
		case q.Kind == KindSkyline:
			enc, width = encCols64(t, cols), len(cols)+1
			keep = func(c [][]uint64, j, _ int) { rows = append(rows, int(c[len(cols)][j])) }
		case countOnly:
			keep = nil
		}
		tr.EntriesSent, tr.Forwarded = batchPass(spans, ps.workers, width, enc, ps.dp, keep)
	}
	if q.Kind == KindSkyline {
		// Control-plane drain of the stored points at FIN: their ids rode
		// along through the swaps, so the master late-materializes them.
		dr, ok := ps.pruner.(prune.Drainer)
		if !ok {
			return nil, fmt.Errorf("engine: skyline needs a draining pruner, got %T", ps.pruner)
		}
		for _, e := range dr.Drain() {
			tr.Forwarded++
			rows = append(rows, int(e[len(cols)]))
		}
	}
	tr.MasterProcessed = tr.Forwarded
	return rows, nil
}

// gatherSurvivors copies every pass's surviving rows into one master-side
// table (late materialization of the gather step), one columnar sweep per
// pass.
func gatherSurvivors(passes []*pass, parts [][]int) (*table.Table, error) {
	g, err := table.New(passes[0].q.Table.Schema())
	if err != nil {
		return nil, err
	}
	total := 0
	for _, rows := range parts {
		total += len(rows)
	}
	g.Grow(total)
	for s, rows := range parts {
		if err := g.AppendRowsFrom(passes[s].q.Table, rows); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// completeSurvivors is FILTER's and SKYLINE's completion. Each pass
// forwarded a superset of its table's matching / non-dominated rows, and
// skyline(S) = skyline(T) whenever skyline(T) ⊆ S ⊆ T, so the exact
// direct completion over the union of the parts is the answer: in place
// over a single part, over a gathered table otherwise. When every pass ran
// the query's own filter on a dataplane that forwards exactly its verdicts
// (exact), the superset is the answer itself and
// needs neither the gather nor the recheck: the count is the forwards
// summed, and the rows render straight from the passes' tables.
func completeSurvivors(q *Query, passes []*pass, parts [][]int, exact bool) (*Result, error) {
	if exact {
		count := 0
		var rows [][]string
		for s, ps := range passes {
			count += ps.traffic.Forwarded
			if !q.CountOnly {
				rows = appendFilterRows(rows, ps.q.Table, parts[s])
			}
		}
		return filterResult(q, count, rows), nil
	}
	if len(passes) == 1 {
		return execRows(passes[0].q, parts[0], nil)
	}
	g, err := gatherSurvivors(passes, parts)
	if err != nil {
		return nil, err
	}
	qg := *q
	qg.Table = g
	return execRows(&qg, allRows(g), nil)
}

// topN is TOP N's pass: forwarded values feed an N-heap straight from the
// stream — no survivor list materializes — and the heap is the part. With
// skipping the heap doubles as the block threshold (skip.go): once it is
// full, a block whose max ≤ h[0] cannot change the pass's top N, which is
// all a completion consumes from it, and the bound tightens between
// spans.
func (ps *pass) topN() int64Heap {
	q, t, tr := ps.q, ps.q.Table, &ps.traffic
	col := t.Schema().MustIndex(q.OrderCol)
	ints := t.Int64Col(col)
	h := make(int64Heap, 0, q.N)
	var scan func(lo, hi int) (sent, fwd int)
	rnd, isRnd := ps.pruner.(*prune.RandTopN)
	det, isDet := ps.pruner.(*prune.DetTopN)
	if ps.fuse(isRnd || isDet) {
		scan = func(lo, hi int) (sent, fwd int) {
			if isRnd {
				h, sent, fwd = fusedTopNRandSpan(ints, lo, hi, rnd, h, q.N)
				rnd.AddStats(uint64(sent), uint64(sent-fwd))
			} else {
				h, sent, fwd = fusedTopNDetSpan(ints, lo, hi, ps.workers, det, h, q.N)
				det.AddStats(uint64(sent), uint64(sent-fwd))
			}
			return sent, fwd
		}
	} else {
		enc, keep := encInt64(ints), func(c [][]uint64, j, _ int) { h.offer(int64(c[0][j]), q.N) }
		scan = func(lo, hi int) (int, int) {
			return batchPass([]span{{lo, hi}}, ps.workers, 1, enc, ps.dp, keep)
		}
	}
	stream := func(lo, hi int) {
		sent, fwd := scan(lo, hi)
		tr.EntriesSent += sent
		tr.Forwarded += fwd
	}
	if ps.skip && t.SkipIndex() != nil {
		topNSpanScan(t, col, q.N, &h, &ps.skipped, stream)
	} else {
		stream(0, t.NumRows())
	}
	tr.MasterProcessed = tr.Forwarded
	return h
}

// completeTopN is TOP N's completion: every global top-N value is in its
// pass's local top N, so re-checking the other heaps' values against the
// first loses nothing.
func completeTopN(q *Query, heaps []int64Heap) *Result {
	g := heaps[0]
	for _, h := range heaps[1:] {
		g = TopN(q.N, g, h)
	}
	return TopNResult(q, g)
}

// join is JOIN's pass p: the whole Bloom join of the pass's rows of the
// query's table pair — every row, or its key shards' — build, switchover,
// probe — in sc, over the key columns and ids the query loaded into jp,
// and its joined keys' pair counts written into jp (pairCounts), where the
// completion reads them in key order. The build and probe passes share
// the program's Bloom state, so this whole sequence is also the failover
// retry unit: a switch that dies anywhere inside it invalidates the
// filter, never just one pass.
func (ps *pass) join(sc *joinScratch, jp *joinPairs, p int) error {
	j, ok := ps.pruner.(*prune.Join)
	if !ok {
		return fmt.Errorf("engine: join needs a *prune.Join, got %T", ps.pruner)
	}
	ps.keys = jp.note(ps.q, p)
	sc.left.use(&jp.left, p)
	sc.right.use(&jp.right, p)
	// Blocks skip only where the right side streams whole: a key shard's
	// rows lie scattered over them.
	skip := ps.skip && jp.right.rows == nil
	// fusedJoinPasses hard-codes which filter each pass trains or probes,
	// which only matches the chunked passes — they consult the live phase —
	// when the program starts in its build phase (a mid-phase standing
	// program keeps the chunked pipeline).
	if ps.fuse(j.Phase() == prune.PhaseBuild) {
		ps.traffic, ps.skipped = fusedJoinPasses(ps.q, j, skip, sc)
	} else {
		ps.traffic, ps.skipped = batchJoinPasses(ps.q, j, ps.dp, ps.workers, skip, sc)
	}
	sc.pairCounts(jp)
	return nil
}

// completeAgg is the aggregation kinds' completion. HAVING inserts a
// barrier: the passes' candidates are unioned before any pass sums,
// because a key's sum may cross the query's threshold only in aggregate;
// then every pass re-streams the union's rows for exact sums (§4.3's
// partial second pass), accounting the re-streamed entries to its own
// traffic. The partials, keyed by the query's key ids, then complete: a
// ranked result by k parallel walks of the dictionary's order
// (completeRanked), anything else by folding every partial into the first,
// which renders. note is the merge span's: where the key ids came from
// (idsNote), empty for a multi-column key, which has none. err is a
// panic of a second pass or of a walk (forEachShard).
func completeAgg(q *Query, passes []*pass, partials []*partial) (res *Result, note string, err error) {
	g := partials[0]
	if q.Kind == KindHaving {
		for _, p := range partials[1:] {
			g.unionCandidates(p)
		}
		for _, p := range partials[1:] {
			p.copyCandidates(g)
		}
		vc := q.Table.Schema().MustIndex(q.AggCol)
		// The exact pass is pruner-free, so it runs the same whatever the
		// pass's dataplane, and no switch can die under it.
		err = forEachShard(len(passes), func(s int) error {
			tr := &passes[s].traffic
			tr.SecondPassSent = partials[s].sumCandidates(vc)
			tr.EntriesSent += tr.SecondPassSent
			tr.MasterProcessed = tr.SecondPassSent
			return nil
		})
		if err != nil {
			return nil, "", err
		}
	}
	if len(g.cols) == 1 {
		built := 0
		for _, p := range partials {
			built += p.idsBuilt
		}
		note = idsNote(built)
	}
	if ranked(partials) {
		res, err = completeRanked(q, partials)
		return res, note, err
	}
	for _, p := range partials[1:] {
		g.merge(p)
	}
	return g.render(q), note, nil
}

// execPasses runs every shard's pass and completes q from their parts.
// Each pass runs under its shard's failover loop (shardExec.run), which
// redoes it through a replacement switch when it crossed its switch's
// death, so an attempt (re)initializes everything it accumulates and reads
// its program and dataplane at call time. This is also where a traced run
// draws the switch/master line: the shard spans are the passes, and the
// merge span opens when the last pass returns and closes when the
// completion does.
func execPasses(q *Query, execs []*shardExec, opts ShardedOptions) (res *Result, err error) {
	passes := make([]*pass, len(execs))
	for s, se := range execs {
		passes[s] = &se.pass
	}
	var merge obs.Timer
	var mergeNote string
	scatter := func(attempt func(s int) error) error {
		failed := forEachShard(len(execs), func(s int) error { return execs[s].run(opts, attempt) })
		merge = opts.Trace.Begin(obs.StageMerge, -1)
		return failed
	}
	switch q.Kind {
	case KindFilter, KindSkyline:
		// A FILTER whose every pass runs the query's own filter on a
		// dataplane that forwards exactly its verdicts (grants) is exact:
		// the completion takes the forwards for the answer, and a count
		// collects no rows at all.
		exact := q.Kind == KindFilter
		planned := make([]prune.Pruner, len(passes))
		for s, ps := range passes {
			planned[s] = ps.pruner
			exact = exact && filterExact(ps.q, ps.pruner) && ps.grants()
		}
		parts := make([][]int, len(passes))
		err = scatter(func(s int) (err error) {
			// A failover hands the pass a new program, and the completion
			// is already planned around exact ones. (Its dataplane is a
			// lease, whose forwards are its program's verdicts even when a
			// fault injector makes it decline the probe.)
			ps := passes[s]
			if exact && ps.pruner != planned[s] && !filterExact(ps.q, ps.pruner) {
				return fmt.Errorf("engine: shard %d: failover replaced the query's exact filter with a different program", s)
			}
			parts[s], err = ps.survivors(exact && q.CountOnly)
			return err
		})
		if err == nil {
			res, err = completeSurvivors(q, passes, parts, exact)
		}
	case KindTopN:
		heaps := make([]int64Heap, len(passes))
		err = scatter(func(s int) error {
			heaps[s] = passes[s].topN()
			return nil
		})
		if err == nil {
			res = completeTopN(q, heaps)
		}
	case KindJoin:
		// Matching keys are co-located in one pass's key shards, so the
		// passes write disjoint entries of the pair counts. The query's id
		// space and key shards are loaded once, before the passes stream,
		// like keyPartials: under the shards' spans and shard 0's panic
		// containment.
		scs := make([]*joinScratch, len(passes))
		for s := range scs {
			scs[s] = joinScratchPool.Get().(*joinScratch)
			defer scs[s].release()
		}
		jp := joinPairsPool.Get().(*joinPairs)
		defer jp.release()
		err = runShard(0, func(int) error { return jp.load(q, opts.Seed, len(passes)) })
		if err == nil {
			jp.dirty = true
			err = scatter(func(s int) error { return passes[s].join(scs[s], jp, s) })
		}
		if err == nil {
			res, err = completeJoin(q, jp, scs)
		}
	default: // DISTINCT, GROUP BY MAX, GROUP BY SUM, HAVING
		partials := make([]*partial, len(passes))
		for s, ps := range passes {
			partials[s] = newPartial(ps.q)
			defer partials[s].release()
		}
		// The key column is resolved once, before the passes stream: under
		// the shards' spans, which opened before the split, and under
		// shard 0's panic containment.
		err = runShard(0, func(int) error {
			keyPartials(q.Table, partials, opts.Seed)
			return nil
		})
		if err == nil {
			err = scatter(func(s int) error { return passes[s].agg(partials[s]) })
		}
		if err == nil {
			res, mergeNote, err = completeAgg(q, passes, partials)
		}
	}
	if err != nil {
		return nil, err
	}
	touched := 0
	for _, ps := range passes {
		touched += ps.traffic.MasterProcessed
	}
	merge.Counts(int64(touched), 0).EndNote(mergeNote)
	return res, nil
}
