package prune

// This file is the pruner side of the engine's fused execution loops
// (engine/fuse.go). Every pruner states its verdict once: the chunked
// stream (switchsim.ProcessBatchOf) calls Process per entry, and the fused
// path compiles one monomorphic loop per query kind that reads table
// columns directly and needs, per entry, only the pruner's core state
// transition — no interface call, no stats update, no Decision
// materialization. The Fused* entry points expose that transition: either
// the state itself (Filter's truth table, the cache matrices, JOIN's
// filters), whose operations are what Process applies, or the transition
// as a method that Process wraps with its stats update (DetTopN and
// Having's FusedOffer here, Skyline's FusedOffer, GroupBySum's FusedAdd).
//
// The engine accumulates the statistics in loop-local counters and
// deposits them once per pass through the program's tally (AddStats), so
// its Stats() after a fused pass equal those after the equivalent
// Process sequence.
// The one sanctioned deviation is RandTopN's RNG (see FusedRandState): the
// fused path draws row choices from a counter-indexed stream rather than
// Process's serial chain, so its prune decisions differ from the scalar
// oracle while final query Results stay bit-identical (master-side
// completion is exact for TOP N regardless of which entries were pruned).

import (
	"cheetah/internal/boolexpr"
	"cheetah/internal/cache"
	"cheetah/internal/sketch"
)

// FusedSpec exposes the compiled predicate list and truth table so the
// fused FILTER loop can evaluate the formula straight off the table
// columns (bit i of the lookup index is Predicates[i]'s verdict, as in
// Process).
func (p *Filter) FusedSpec() ([]Predicate, *boolexpr.TruthTable) {
	return p.cfg.Predicates, p.tt
}

// FusedMatrix exposes the cache matrix: Insert's hit verdict is the
// prune decision of Process.
func (p *Distinct) FusedMatrix() *cache.Matrix { return p.matrix }

// FusedMatrix exposes the keyed-max matrix and the MIN negation flag:
// Offer(key, v) — with v negated when min is set — is the prune
// decision of Process.
func (p *GroupBy) FusedMatrix() (m *cache.KeyedMax, min bool) {
	return p.matrix, p.cfg.Min
}

// FusedOffer is DetTopN's state machine — Process is it plus the stats
// update — and returns true when the entry is pruned. The switch learns
// t0, the minimum of the first N entries (everything below it is then
// prunable), counts each later entry against every threshold it clears,
// and advances the pruning point when a higher threshold has N entries.
func (p *DetTopN) FusedOffer(v int64) bool {
	if p.warmSeen < int64(p.cfg.N) {
		p.warmSeen++
		if v < p.t0 {
			p.t0 = v
		}
		if p.warmSeen == int64(p.cfg.N) {
			p.cur = 0
		}
		return false
	}
	for i := 0; i < p.cfg.Thresholds; i++ {
		if v >= p.threshold(i) {
			p.counts[i]++
			if i > p.cur && p.counts[i] >= int64(p.cfg.N) {
				p.cur = i
			}
		} else {
			break // thresholds are increasing
		}
	}
	return p.cur >= 0 && v < p.threshold(p.cur)
}

// FusedRandGolden is the counter increment of the fused TOP N RNG
// stream; entry i draws from Mix64(base + i·FusedRandGolden). Exported
// so the engine's fused loop can advance the stream inline.
const FusedRandGolden = 0x9e3779b97f4a7c15

// FusedRandState hands the fused TOP N loop everything its inner loop
// needs and reserves n positions of the counter-indexed RNG stream.
//
// The scalar/batched paths advance a serial chain (rng = SplitMix64(rng))
// whose loop-carried dependency caps the batch speedup; the fused path
// instead derives entry i's row as
//
//	row_i = ReduceFull(Mix64(base + i·golden), d)
//
// — the same SplitMix64 output function over an independently computable
// counter, so the row choice stays uniform, value-independent and
// deterministic per seed (the 1-δ analysis of Theorem 2 needs nothing
// more), with no serial dependency. The position counter persists
// across calls (standing programs see one stream across deltas) and
// Reset rewinds it with the rest of the state. Prune decisions
// therefore differ from the scalar oracle; final TOP N Results do not,
// because the master's completion is exact on whatever survives.
func (p *RandTopN) FusedRandState(n int) (m *cache.RollingMin, d uint64, base, pos0 uint64) {
	pos0 = p.fusedPos
	p.fusedPos += uint64(n)
	return p.matrix, uint64(p.cfg.Rows), p.cfg.Seed ^ 0x6d6f746f726f6c61, pos0
}

// FusedOffer is Having's verdict — Process is it plus the stats update —
// and returns true when the entry is pruned. Negative SUM summands would
// break Count-Min's one-sided guarantee, so they forward untouched (not
// pruned, and the sketch is not updated): correctness is preserved and
// only the pruning rate suffers.
func (p *Having) FusedOffer(key uint64, v int64) bool {
	inc := int64(1)
	if p.cfg.Agg == HavingSum {
		if v < 0 {
			return false
		}
		inc = v
	}
	return p.cms.Add(key, inc) <= p.cfg.Threshold
}

// FusedFilters exposes the two membership filters so the fused JOIN
// passes can hoist phase and side out of the loop entirely: each pass
// streams one side in one phase, so the engine picks the filter to Add
// to or Contains against once per pass.
func (p *Join) FusedFilters() (fa, fb sketch.Membership) { return p.fa, p.fb }
