// Package prune implements Cheetah's query pruning algorithms (§4–§5):
// Filtering, DISTINCT, TOP N (deterministic and randomized), GROUP BY,
// JOIN, HAVING and SKYLINE. Each pruner is a switchsim.Program — it
// declares its Table 2 resource profile and makes a per-entry
// prune/forward decision using only operations the PISA datapath
// supports: hashing, comparisons, register reads/writes, table lookups.
// That decision is stated once, in Process, which the chunked stream
// (switchsim.ProcessBatchOf) calls per entry; fused.go exposes the same
// state transition to the engine's fused loops. Every program keeps its
// traffic counters in one embedded tally.
//
// The package also provides the paper's configuration formulas
// (Theorem 2's matrix-column count, the Lambert-W-guided optimal row
// count, Theorem 1/3's pruning-rate bounds) and the unconstrained "OPT"
// reference streams used as upper bounds in Figures 10 and 11.
package prune

import (
	"fmt"

	"cheetah/internal/switchsim"
)

// Guarantee classifies a pruner's correctness guarantee (Appendix A).
type Guarantee uint8

const (
	// Deterministic pruners always satisfy Q(A(D)) = Q(D).
	Deterministic Guarantee = iota
	// Randomized pruners satisfy Pr[Q(A(D)) ≠ Q(D)] ≤ δ.
	Randomized
)

// String renders the guarantee.
func (g Guarantee) String() string {
	if g == Randomized {
		return "randomized"
	}
	return "deterministic"
}

// Stats counts a pruner's traffic.
type Stats struct {
	Processed uint64 // entries seen
	Pruned    uint64 // entries dropped
}

// Forwarded returns Processed - Pruned.
func (s Stats) Forwarded() uint64 { return s.Processed - s.Pruned }

// PruneRate returns the fraction of processed entries that were pruned.
func (s Stats) PruneRate() float64 {
	if s.Processed == 0 {
		return 0
	}
	return float64(s.Pruned) / float64(s.Processed)
}

// UnprunedRate returns 1 - PruneRate (the y-axis of Figures 10 and 11).
func (s Stats) UnprunedRate() float64 {
	if s.Processed == 0 {
		return 0
	}
	return float64(s.Forwarded()) / float64(s.Processed)
}

// tally is the traffic counter every program embeds: Process counts
// into p.stats, Reset zeroes it, and the engine's fused loops deposit a
// pass's loop-local counts through AddStats (fused.go).
type tally struct{ stats Stats }

// Stats implements Pruner.
func (t *tally) Stats() Stats { return t.stats }

// AddStats deposits a fused pass's locally accumulated counters.
func (t *tally) AddStats(processed, pruned uint64) {
	t.stats.Processed += processed
	t.stats.Pruned += pruned
}

// Pruner is a switch pruning program with traffic statistics.
type Pruner interface {
	switchsim.Program
	Name() string
	Guarantee() Guarantee
	Stats() Stats
}

// DefaultALUsPerStage is the per-stage stateful ALU count assumed when a
// profile formula divides work across stages (the "A" of Table 2).
const DefaultALUsPerStage = 10

// ceilDiv returns ⌈a/b⌉ for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// validateDims rejects non-positive matrix dimensions with a uniform
// error shape shared by the matrix-based pruners.
func validateDims(what string, d, w int) error {
	if d <= 0 || w <= 0 {
		return fmt.Errorf("prune: %s dimensions d=%d w=%d must be positive", what, d, w)
	}
	return nil
}
