package engine

import (
	"fmt"

	"cheetah/internal/prune"
)

// This file exposes the CWorker-side entry encoding and master-side
// completion used by the engine's in-process Cheetah path, so the
// cluster layer can run the same queries over the real transport.

// EncodeEntries serializes the query's relevant columns into per-worker
// entry streams, one []uint64 per row with the global row id appended as
// the final value (the late-materialization handle). Only kinds whose
// one stream a switch answers by forwarding or dropping each packet are
// supported here: JOIN and HAVING stream two passes, and GROUP BY SUM's
// program answers by rewriting the packet (the evicted aggregate; agg.go),
// which a forward-or-drop consumer such as the §7.2 switch would lose.
func EncodeEntries(q *Query, workers int, seed uint64) ([][][]uint64, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = 1
	}
	n := q.Table.NumRows()
	out := make([][][]uint64, workers)
	starts := make([]int, workers+1)
	for i := 0; i <= workers; i++ {
		starts[i] = i * n / workers
	}
	encodeRow, width, err := rowEncoder(q, seed)
	if err != nil {
		return nil, err
	}
	for w := 0; w < workers; w++ {
		part := make([][]uint64, 0, starts[w+1]-starts[w])
		for r := starts[w]; r < starts[w+1]; r++ {
			vals := make([]uint64, width+1)
			encodeRow(r, vals)
			vals[width] = uint64(r)
			part = append(part, vals)
		}
		out[w] = part
	}
	return out, nil
}

// rowEncoder returns a function filling vals[0:width] for a row.
func rowEncoder(q *Query, seed uint64) (func(r int, vals []uint64), int, error) {
	switch q.Kind {
	case KindFilter:
		cols := make([]int, len(q.Predicates))
		for i, p := range q.Predicates {
			cols[i] = q.Table.Schema().MustIndex(p.Col)
		}
		preds := q.Predicates
		return func(r int, vals []uint64) {
			for i := range preds {
				if preds[i].SwitchSupported() {
					vals[i] = uint64(q.Table.Int64At(cols[i], r))
				} else if preds[i].Eval(q.Table, cols[i], r) {
					vals[i] = 1
				} else {
					vals[i] = 0
				}
			}
		}, len(preds), nil
	case KindDistinct:
		cols := make([]int, len(q.DistinctCols))
		for i, c := range q.DistinctCols {
			cols[i] = q.Table.Schema().MustIndex(c)
		}
		return func(r int, vals []uint64) {
			vals[0] = fingerprintRow(q.Table, cols, r, seed)
		}, 1, nil
	case KindTopN:
		col := q.Table.Schema().MustIndex(q.OrderCol)
		return func(r int, vals []uint64) {
			vals[0] = uint64(q.Table.Int64At(col, r))
		}, 1, nil
	case KindGroupByMax:
		kc := q.Table.Schema().MustIndex(q.KeyCol)
		vc := q.Table.Schema().MustIndex(q.AggCol)
		return func(r int, vals []uint64) {
			vals[0] = fingerprintRow(q.Table, []int{kc}, r, seed)
			vals[1] = uint64(q.Table.Int64At(vc, r))
		}, 2, nil
	case KindSkyline:
		cols := make([]int, len(q.SkylineCols))
		for i, c := range q.SkylineCols {
			cols[i] = q.Table.Schema().MustIndex(c)
		}
		return func(r int, vals []uint64) {
			for i, c := range cols {
				vals[i] = uint64(q.Table.Int64At(c, r))
			}
		}, len(cols), nil
	case KindGroupBySum:
		return nil, 0, fmt.Errorf("engine: EncodeEntries does not support %v (its program rewrites packets; the entry stream is forwarded unmodified)", q.Kind)
	default:
		return nil, 0, fmt.Errorf("engine: EncodeEntries does not support %v (two passes)", q.Kind)
	}
}

// DefaultPruner builds the default switch program for a kind
// EncodeEntries supports, matching ExecCheetah's defaults.
func DefaultPruner(q *Query, seed uint64) (prune.Pruner, error) {
	switch q.Kind {
	case KindGroupBySum, KindHaving, KindJoin:
		return nil, fmt.Errorf("engine: no default forward-or-drop pruner for %v", q.Kind)
	}
	return defaultShardPruner(q, 1, seed)
}

// defaultShardPruner builds the default program of one of shards switches
// (1 for the single-switch execution) — the one place a kind's default is
// configured, tightened per shard where the merge needs it.
func defaultShardPruner(q *Query, shards int, seed uint64) (prune.Pruner, error) {
	switch q.Kind {
	case KindFilter:
		// Supported predicates run on the switch; LIKE predicates are
		// precomputed by the CWorker and shipped as bits (§4.1), so the
		// full formula is evaluable in the dataplane.
		sPreds := make([]prune.Predicate, len(q.Predicates))
		for i, p := range q.Predicates {
			if p.SwitchSupported() {
				sPreds[i] = prune.Predicate{ValIdx: i, Op: p.Op, Const: p.Const}
			} else {
				sPreds[i] = prune.Predicate{ValIdx: i, Precomputed: true}
			}
		}
		return prune.NewFilter(prune.FilterConfig{Predicates: sPreds, Formula: q.Formula})
	case KindDistinct:
		return prune.NewDistinct(prune.DefaultDistinctConfig(seed))
	case KindTopN:
		// The randomized matrix with the theorem configuration for δ = 1e-4
		// at d = 4096 rows. Each shard's program gets δ/k: a global top-N
		// value lives in exactly one shard, so the union bound over k
		// independent programs keeps the fabric-wide miss probability at
		// the single-switch δ.
		return prune.NewRandTopN(prune.LegacyRandTopNConfig(q.N, 1e-4/float64(shards), seed))
	case KindGroupByMax:
		return prune.NewGroupBy(prune.DefaultGroupByConfig(seed))
	case KindGroupBySum:
		return prune.NewGroupBySum(prune.DefaultGroupBySumConfig(seed))
	case KindHaving:
		// Each shard's sketch is thresholded at ⌊T/k⌋: a key whose global
		// sum exceeds T has a local sum above that on some shard (shard.go).
		return prune.NewHaving(prune.DefaultHavingConfig(q.Threshold/int64(shards), seed))
	case KindJoin:
		return prune.NewJoin(prune.DefaultJoinConfig(seed))
	case KindSkyline:
		return prune.NewSkyline(prune.DefaultSkylineConfig(len(q.SkylineCols)))
	default:
		return nil, fmt.Errorf("engine: no default pruner for %v", q.Kind)
	}
}

// CompleteOnRows finishes a single-pass query at the master given the
// surviving global row indices (duplicates allowed — the reliability
// protocol may deliver retransmissions of pruned packets, §7.2).
func CompleteOnRows(q *Query, rows []int) (*Result, error) {
	return completeOnRows(q, rows)
}
