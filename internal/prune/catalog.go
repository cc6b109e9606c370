package prune

import (
	"math/bits"

	"cheetah/internal/cache"
)

// This file is the algorithm catalog: the paper-default configuration of
// every pruner (Table 2's rows plus §5's worked examples), the
// configurations the engine's kind table (engine/kinds.go) lists as each
// kind's programs.

// DefaultDistinctConfig is Table 2's DISTINCT row: a 4096×2 LRU cache
// matrix over 64-bit CWorker fingerprints (Example #8).
func DefaultDistinctConfig(seed uint64) DistinctConfig {
	return DistinctConfig{
		Rows: 4096, Cols: 2, Policy: cache.LRU,
		FingerprintBits: 64, Seed: seed,
	}
}

// DefaultGroupByConfig is Table 2's GROUP BY row: a 4096×8 per-key
// rolling-max matrix.
func DefaultGroupByConfig(seed uint64) GroupByConfig {
	return GroupByConfig{Rows: 4096, Cols: 8, Seed: seed}
}

// DefaultGroupBySumConfig sizes the in-switch SUM aggregation matrix
// (§6) like the GROUP BY matrix: 4096×8 (key, partial sum) slots.
func DefaultGroupBySumConfig(seed uint64) GroupBySumConfig {
	return GroupBySumConfig{Rows: 4096, Cols: 8, Seed: seed}
}

// DefaultHavingConfig is Table 2's HAVING row: a 3×1024 Count-Min
// sketch.
func DefaultHavingConfig(threshold int64, seed uint64) HavingConfig {
	return HavingConfig{
		Agg: HavingSum, Threshold: threshold,
		Rows: 3, CountersPerRow: 1024, Seed: seed,
	}
}

// DefaultJoinConfig is Table 2's JOIN BF row: two 4 MB Bloom filters
// with 3 hashes.
func DefaultJoinConfig(seed uint64) JoinConfig {
	return JoinConfig{FilterBits: 4 << 23, Hashes: 3, Seed: seed}
}

// JoinFilterBitsFor sizes one join Bloom filter for an expected key
// count: ~10 bits per key (under 1% false positives at 3 hashes),
// rounded up to a power of two and clamped to [64 KB, 4 MB] — the
// largest filter Table 2 deploys.
func JoinFilterBitsFor(keys int) int {
	const (
		minBits = 64 << 13 // 64 KB
		maxBits = 4 << 23  // 4 MB
	)
	if keys <= 0 {
		return minBits
	}
	want := 10 * keys
	if want >= maxBits {
		return maxBits
	}
	b := 1 << bits.Len(uint(want-1))
	if b < minBits {
		return minBits
	}
	return b
}

// DefaultSkylineConfig is §4.4's deployment: w=10 stored points under
// the APH projection (Appendix D).
func DefaultSkylineConfig(dims int) SkylineConfig {
	return SkylineConfig{Dims: dims, Points: 10, Heuristic: SkylineAPH}
}

// DefaultDetTopNConfig is Table 2's TOP N Det row: w=4 exponential
// thresholds above the warm-up minimum.
func DefaultDetTopNConfig(n int) DetTopNConfig {
	return DetTopNConfig{N: n, Thresholds: 4}
}
