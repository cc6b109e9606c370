package engine

import (
	"fmt"

	"cheetah/internal/prune"
)

// DefaultPruner builds a kind's default single-switch program: the one
// ExecCheetah runs, on the scalar reference as on the pruned executor,
// unless CheetahOptions.Pruner pins another.
func DefaultPruner(q *Query, seed uint64) (prune.Pruner, error) {
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
