package engine

// Sharded-path bindings of the fused compiler (fuse.go) for FILTER,
// SKYLINE, TOP N and JOIN — the aggregation kinds need none: aggPass
// (agg.go) is their shard pass. Each helper runs one shard's whole
// pruning pass as fused loops when the shard's dataplane grants direct
// program access and the pruner is a shipped concrete type, returning
// ok=false to keep the shard on the chunked batch pipeline. Traffic,
// Stats and the shard partials handed to the global combine are
// bit-identical to the batched shard pass (with the
// same single sanctioned deviation as the single-switch path: the
// randomized TOP N RNG stream). Failover composes unchanged — these run
// inside shardExec.run, so a pass that crossed its switch's death is
// discarded and redone exactly like a batched one.

import (
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
)

// fusable reports whether the shard may drive its program's state
// directly for a whole pass — the sharded counterpart of fuseGate.
func (se *shardExec) fusable(opts ShardedOptions) bool {
	if opts.NoFuse {
		return false
	}
	fp, ok := se.dp.(interface{ FusedProgram() switchsim.Program })
	return ok && fp.FusedProgram() == switchsim.Program(se.pruner)
}

// fusedGatherPass runs one FILTER or SKYLINE shard stream (including
// SKYLINE's control-plane drain) and returns the shard's surviving row
// ids in shard-local coordinates — or, with countOnly (an exact FILTER
// count), no rows at all: the shard's forward count is its answer.
func (se *shardExec) fusedGatherPass(opts ShardedOptions, countOnly bool) ([]int, bool) {
	if !se.fusable(opts) {
		return nil, false
	}
	q := se.q
	switch q.Kind {
	case KindFilter:
		f, isF := se.pruner.(*prune.Filter)
		if !isF {
			return nil, false
		}
		cols := make([]int, len(q.Predicates))
		for i, p := range q.Predicates {
			cols[i] = q.Table.Schema().MustIndex(p.Col)
		}
		spans := fullSpans(q.Table)
		if opts.Skip {
			spans, se.skipped = filterSpans(q, q.Table, cols)
		}
		var rows []int
		rowsPtr := &rows
		if countOnly {
			rowsPtr = nil
		}
		sent, fwd, ok := fusedFilterScan(q.Table, q.Predicates, cols, f, spans, rowsPtr)
		if !ok {
			return nil, false
		}
		f.AddStats(uint64(sent), uint64(sent-fwd))
		se.traffic.EntriesSent = sent
		se.traffic.Forwarded = fwd
		se.traffic.MasterProcessed = fwd
		return rows, true
	case KindSkyline:
		sk, isS := se.pruner.(*prune.Skyline)
		if !isS {
			return nil, false
		}
		cols := make([]int, len(q.SkylineCols))
		for i, c := range q.SkylineCols {
			cols[i] = q.Table.Schema().MustIndex(c)
		}
		var rows []int
		sent, fwd := fusedSkylineScan(q.Table, cols, sk, opts.Workers, &rows)
		se.traffic.EntriesSent = sent
		se.traffic.Forwarded = fwd
		for _, e := range sk.Drain() {
			se.traffic.Forwarded++
			rows = append(rows, int(e[len(cols)]))
		}
		se.traffic.MasterProcessed = len(rows)
		return rows, true
	}
	return nil, false
}

// fusedTopNPass runs one TOP N shard stream into the shard-local N-heap.
func (se *shardExec) fusedTopNPass(opts ShardedOptions, col int) (int64Heap, bool) {
	if !se.fusable(opts) {
		return nil, false
	}
	var rnd *prune.RandTopN
	var det *prune.DetTopN
	switch p := se.pruner.(type) {
	case *prune.RandTopN:
		rnd = p
	case *prune.DetTopN:
		det = p
	default:
		return nil, false
	}
	q := se.q
	ints := q.Table.Int64Col(col)
	h := make(int64Heap, 0, q.N)
	sent, fwd := 0, 0
	scan := func(lo, hi int) {
		var s, f int
		if rnd != nil {
			s, f = fusedTopNRandSpan(ints, lo, hi, rnd, &h, q.N)
		} else {
			s, f = fusedTopNDetSpan(ints, lo, hi, opts.Workers, det, &h, q.N)
		}
		sent += s
		fwd += f
	}
	if opts.Skip && q.Table.SkipIndex() != nil {
		topNSpanScan(q.Table, col, q.N, &h, &se.skipped, scan)
	} else {
		scan(0, q.Table.NumRows())
	}
	if rnd != nil {
		rnd.AddStats(uint64(sent), uint64(sent-fwd))
	} else {
		det.AddStats(uint64(sent), uint64(sent-fwd))
	}
	se.traffic.EntriesSent = sent
	se.traffic.Forwarded = fwd
	se.traffic.MasterProcessed = len(h)
	return h, true
}

// fusedJoinPass runs one shard's whole Bloom join (build and probe
// passes over the co-located shard pair), leaving the surviving rows of
// both sides in sc.
func (se *shardExec) fusedJoinPass(opts ShardedOptions, sc *joinScratch) bool {
	if !se.fusable(opts) {
		return false
	}
	j, isJ := se.pruner.(*prune.Join)
	if !isJ || j.Phase() != prune.PhaseBuild {
		return false
	}
	se.traffic, se.skipped = fusedJoinPasses(se.q, j, opts.Seed, opts.Skip, sc)
	return true
}
