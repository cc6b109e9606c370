// Package aph implements the Approximate Product Heuristic of Appendix D:
// the SKYLINE projection h(x) = Π xᵢ, evaluated on the switch as a sum of
// fixed-point logarithms. A 2¹⁶-entry match-action lookup table maps each
// 16-bit value a to [β·log₂(a)], and for wider values the switch first
// finds the most-significant set bit with 64 TCAM prefix rules, then
// applies the table to the 16 bits below it and adds β·(ℓ-15).
//
// The heuristic only needs to be monotonically increasing in every
// dimension (§4.4); [β·log₂(·)] is non-decreasing, so the monotonicity
// required for SKYLINE safety is preserved.
package aph

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"cheetah/internal/cacheline"
)

// DefaultBeta is the default fixed-point scale for the fractional part of
// the logarithm. With 16-bit table inputs the maximum table value is
// β·log₂(65535) < β·16, so β = 2²⁰ keeps per-dimension scores under 2²⁴
// and sums over ≤ 64 dimensions comfortably inside 32 bits, matching the
// paper's "can thus be efficiently encoded using just 32-bits".
const DefaultBeta = 1 << 20

// TableEntries is the size of the log lookup table (16-bit input domain).
const TableEntries = 1 << 16

// MSBTCAMRules is the number of TCAM prefix rules needed to locate the
// most-significant set bit of a 64-bit value in one lookup (Appendix D).
const MSBTCAMRules = 64

// Projector computes APH scores. It is immutable after construction and
// safe for concurrent use.
type Projector struct {
	beta  uint64
	table []uint64 // table[a] = round(beta*log2(a)) for a in [1, 65535]; table[0] = 0
}

// shared remembers the most recent projectors. A projector is a pure
// function of β and immutable, and building its table is most of the
// cost of a SKYLINE plan, so pruners of one β share one; β is caller
// input, so the memo is a fixed-size ring, not a map that grows.
var shared struct {
	sync.Mutex
	next int
	ring [4]*Projector
}

// New returns an APH projector with the given β, shared with other
// callers of the same β. β must be positive and at most 2³² so that
// table values fit the switch's 64-bit metadata slots with headroom for
// summation.
func New(beta uint64) (*Projector, error) {
	if beta == 0 || beta > 1<<32 {
		return nil, fmt.Errorf("aph: beta %d out of range [1, 2^32]", beta)
	}
	shared.Lock()
	defer shared.Unlock()
	for _, p := range shared.ring {
		if p != nil && p.beta == beta {
			return p, nil
		}
	}
	// Every SKYLINE program of this β reads the projector on every entry,
	// each shard's on its own core: it must not share a line with what
	// any of them writes.
	p := cacheline.New[Projector]()
	*p = Projector{beta: beta, table: cacheline.Make[uint64](TableEntries)}
	for a := 1; a < TableEntries; a++ {
		p.table[a] = uint64(math.Round(float64(beta) * math.Log2(float64(a))))
	}
	// table[0] stays 0: a zero coordinate contributes nothing. This keeps
	// the projection total and monotone (0 ≤ any positive score).
	shared.ring[shared.next] = p
	shared.next = (shared.next + 1) % len(shared.ring)
	return p, nil
}

// MustNew is New with a panic on error, for static configurations.
func MustNew(beta uint64) *Projector {
	p, err := New(beta)
	if err != nil {
		panic(err)
	}
	return p
}

// Beta returns the fixed-point scale.
func (p *Projector) Beta() uint64 { return p.beta }

// ApproxLog2 returns [β·log₂(v)] using only the operations available in
// the datapath: an MSB TCAM lookup plus one table lookup plus one add.
func (p *Projector) ApproxLog2(v uint64) uint64 {
	if v < TableEntries {
		return p.table[v]
	}
	// ℓ is the index of the most significant set bit (the TCAM lookup).
	l := uint(bits.Len64(v)) - 1
	// Apply the table to bits ℓ..ℓ-15 — i.e. v' = v >> (ℓ-15) — and add
	// β·(ℓ-15) since v ≈ v'·2^(ℓ-15).
	shift := l - 15
	return p.table[v>>shift] + p.beta*uint64(shift)
}

// Score projects a multi-dimensional point to its APH scalar: the sum of
// per-dimension approximate logs, approximating β·log₂(Π xᵢ).
func (p *Projector) Score(point []uint64) uint64 {
	var s uint64
	for _, v := range point {
		s += p.ApproxLog2(v)
	}
	return s
}

// SumScore is the simpler sum heuristic hS(x) = Σ xᵢ the paper compares
// against (biased toward large-range dimensions).
func SumScore(point []uint64) uint64 {
	var s uint64
	for _, v := range point {
		s += v
	}
	return s
}

// ExactProductLog returns log₂(Π xᵢ) in floating point — the reference the
// heuristic approximates; zero coordinates contribute log 1 = 0 to match
// ApproxLog2's convention.
func ExactProductLog(point []uint64) float64 {
	s := 0.0
	for _, v := range point {
		if v > 1 {
			s += math.Log2(float64(v))
		}
	}
	return s
}

// MaxRelError returns an upper bound on the relative error of ApproxLog2
// versus β·log₂(v) for v ≥ 2, combining table rounding (±0.5) and the
// truncation of low bits for wide values (< log₂(1 + 2⁻¹⁵) per value).
func (p *Projector) MaxRelError() float64 {
	rounding := 0.5 / float64(p.beta)        // absolute, in log2 units
	truncation := math.Log2(1 + 1.0/(1<<15)) // absolute, in log2 units
	return rounding + truncation             // relative to 1 unit of log2
}
