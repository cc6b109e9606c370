package sketch

import (
	"fmt"
	"math"

	"cheetah/internal/cacheline"
	"cheetah/internal/hashutil"
)

// CountMin is a Count-Min sketch over 64-bit keys. Cheetah uses it for
// HAVING SUM(...)/COUNT(...) > c pruning (§4.3): the sketch estimate g(z)
// always satisfies g(z) ≥ f(z) (one-sided error), so pruning entries whose
// current estimate is ≤ c can never drop a key whose true aggregate
// exceeds c.
//
// The layout matches the switch implementation: depth rows (one per
// pipeline stage holding one register array and one ALU) of width counters
// each.
type CountMin struct {
	depth, width int
	counters     []int64 // row-major: depth rows of width counters
	family       *hashutil.Family
}

// NewCountMin creates a sketch with the given depth (number of rows /
// hash functions) and width (counters per row).
func NewCountMin(depth, width int, seed uint64) (*CountMin, error) {
	if depth <= 0 || width <= 0 {
		return nil, fmt.Errorf("sketch: count-min dimensions %dx%d must be positive", depth, width)
	}
	cm := cacheline.New[CountMin]()
	*cm = CountMin{
		depth:    depth,
		width:    width,
		counters: cacheline.Make[int64](depth * width),
		family:   hashutil.NewFamily(depth, seed),
	}
	return cm, nil
}

// DimensionsForError returns the textbook (ε, δ) sizing: width = ⌈e/ε⌉,
// depth = ⌈ln(1/δ)⌉, guaranteeing estimate ≤ true + ε·N with probability
// 1-δ, where N is the total added mass.
func DimensionsForError(epsilon, delta float64) (depth, width int, err error) {
	if epsilon <= 0 || delta <= 0 || delta >= 1 {
		return 0, 0, fmt.Errorf("sketch: invalid (epsilon=%v, delta=%v)", epsilon, delta)
	}
	width = int(math.Ceil(math.E / epsilon))
	depth = int(math.Ceil(math.Log(1 / delta)))
	if depth < 1 {
		depth = 1
	}
	return depth, width, nil
}

// Add increases key's aggregate by v (v must be non-negative for the
// one-sided guarantee to hold) and returns the updated estimate.
func (cm *CountMin) Add(key uint64, v int64) int64 {
	est := int64(math.MaxInt64)
	counters, w := cm.counters, uint64(uint32(cm.width))
	base := uint64(0)
	for _, m := range cm.family.Mixed() {
		// hashutil.Reduce(family.Uint64(i, key), width), inlined.
		idx := base + uint64(uint32(hashutil.Mix64(key^m)))*w>>32
		c := counters[idx] + v
		counters[idx] = c
		if c < est {
			est = c
		}
		base += w
	}
	return est
}

// Estimate returns the current estimate for key (≥ the true aggregate for
// non-negative updates).
func (cm *CountMin) Estimate(key uint64) int64 {
	est := int64(math.MaxInt64)
	for i := 0; i < cm.depth; i++ {
		idx := i*cm.width + hashutil.Reduce(cm.family.Uint64(i, key), cm.width)
		if cm.counters[idx] < est {
			est = cm.counters[idx]
		}
	}
	return est
}

// Reset zeroes all counters.
func (cm *CountMin) Reset() {
	for i := range cm.counters {
		cm.counters[i] = 0
	}
}
