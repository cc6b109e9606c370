// Package sketch implements the probabilistic data structures Cheetah
// stores in switch SRAM: Bloom filters (JOIN, §4.3), the register-based
// "blocked" Bloom filter variant (Table 2's RBF row), the Count-Min sketch
// (HAVING, §4.3), and key fingerprinting with the Theorem 4/6 length
// bounds (§5, Appendix C).
//
// All structures are deterministic given a seed and allocate nothing on
// their per-entry hot paths, matching the switch model where the memory is
// laid out once at rule-installation time. The switch programs' filters
// and sketches are allocated alone on their cache lines (package
// cacheline), so those of concurrently running shards never write to one
// line.
package sketch

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"cheetah/internal/cacheline"
	"cheetah/internal/hashutil"
)

// Bloom is a standard Bloom filter over 64-bit keys with H independent
// hash functions, as used by the JOIN pruner's first pass. Keys wider than
// 64 bits (multi-column joins) are first fingerprinted.
type Bloom struct {
	bits   []uint64
	mBits  uint64
	family *hashutil.Family
	count  int
}

// NewBloom creates a Bloom filter with sizeBits bits (rounded up to a
// multiple of 64) and h hash functions.
func NewBloom(sizeBits int, h int, seed uint64) (*Bloom, error) {
	if h <= 0 {
		return nil, fmt.Errorf("sketch: bloom hash count %d must be positive", h)
	}
	return NewBloomOf(sizeBits, hashutil.NewFamily(h, seed))
}

// NewBloomOf creates a Bloom filter with sizeBits bits (rounded up to a
// multiple of 64) hashing through family, which it shares rather than
// copies: filters of one size built from one family set the same bits for
// the same keys, and a caller that keeps many of them pays for the family
// once.
func NewBloomOf(sizeBits int, family *hashutil.Family) (*Bloom, error) {
	if sizeBits <= 0 {
		return nil, fmt.Errorf("sketch: bloom size %d must be positive", sizeBits)
	}
	words := (sizeBits + 63) / 64
	b := cacheline.New[Bloom]()
	*b = Bloom{
		bits:   cacheline.Make[uint64](words),
		mBits:  uint64(words) * 64,
		family: family,
	}
	return b, nil
}

// Clone returns a copy of b that owns a copy of its bits and shares its
// hash family, which nothing writes after construction: adding to the
// clone leaves b as it was.
func (b *Bloom) Clone() *Bloom {
	c := cacheline.New[Bloom]()
	*c = Bloom{
		bits:   cacheline.Make[uint64](len(b.bits)),
		mBits:  b.mBits,
		family: b.family,
		count:  b.count,
	}
	copy(c.bits, b.bits)
	return c
}

// Equal reports whether b and o are the same filter: equal size, hash
// functions, Add count and bits.
func (b *Bloom) Equal(o *Bloom) bool {
	return b.mBits == o.mBits && b.count == o.count &&
		slices.Equal(b.family.Mixed(), o.family.Mixed()) && slices.Equal(b.bits, o.bits)
}

// Add inserts key into the filter.
func (b *Bloom) Add(key uint64) {
	b.set(key)
	b.count++
}

// set sets key's bits.
func (b *Bloom) set(key uint64) {
	for _, m := range b.family.Mixed() {
		p := hashutil.ReduceFull(hashutil.Mix64(key^m), b.mBits)
		b.bits[p>>6] |= 1 << (p & 63)
	}
}

// Contains reports whether key may have been added. False means the key
// was definitely never added (no false negatives).
func (b *Bloom) Contains(key uint64) bool {
	for _, m := range b.family.Mixed() {
		p := hashutil.ReduceFull(hashutil.Mix64(key^m), b.mBits)
		if b.bits[p>>6]&(1<<(p&63)) == 0 {
			return false
		}
	}
	return true
}

// AddMany implements Membership.
func (b *Bloom) AddMany(keys []uint64, entries int) {
	for _, k := range keys {
		b.set(k)
	}
	b.count += entries
}

// ContainsMany implements Membership.
func (b *Bloom) ContainsMany(keys []uint64, in []bool) {
	in = in[:len(keys)]
	for i, k := range keys {
		in[i] = b.Contains(k)
	}
}

// Count returns the number of entries added: one per Add, and entries
// per AddMany.
func (b *Bloom) Count() int { return b.count }

// SizeBits returns the filter capacity in bits.
func (b *Bloom) SizeBits() int { return int(b.mBits) }

// FillRatio returns the fraction of set bits, a direct predictor of the
// false-positive rate (fp ≈ fill^H).
func (b *Bloom) FillRatio() float64 {
	set := 0
	for _, w := range b.bits {
		set += bits.OnesCount64(w)
	}
	return float64(set) / float64(b.mBits)
}

// Reset clears the filter for reuse between query runs.
func (b *Bloom) Reset() {
	for i := range b.bits {
		b.bits[i] = 0
	}
	b.count = 0
}

// EstimateFalsePositiveRate returns the classic (1 - e^{-hn/m})^h estimate
// for n inserted keys.
func (b *Bloom) EstimateFalsePositiveRate(n int) float64 {
	h := float64(b.family.Size())
	m := float64(b.mBits)
	return math.Pow(1-math.Exp(-h*float64(n)/m), h)
}

// RegisterBloom is the "RBF" variant from Table 2: a blocked Bloom filter
// whose blocks are single 64-bit registers. One hash selects the register
// and the remaining hash bits select H bit positions inside it, so the
// whole membership test costs a single stage and a single ALU on the
// switch (one register read plus a mask compare), at the price of a
// slightly higher false-positive rate than an unblocked filter of equal
// size.
type RegisterBloom struct {
	words []uint64
	h     int
	seed  uint64
	count int
}

// NewRegisterBloom creates a register Bloom filter with sizeBits bits
// (rounded up to whole 64-bit registers) and h bits set per key.
func NewRegisterBloom(sizeBits int, h int, seed uint64) (*RegisterBloom, error) {
	if sizeBits <= 0 {
		return nil, fmt.Errorf("sketch: register bloom size %d must be positive", sizeBits)
	}
	if h <= 0 || h > 16 {
		return nil, fmt.Errorf("sketch: register bloom needs 1..16 bits per key, got %d", h)
	}
	words := (sizeBits + 63) / 64
	rb := cacheline.New[RegisterBloom]()
	*rb = RegisterBloom{words: cacheline.Make[uint64](words), h: h, seed: seed}
	return rb, nil
}

// mask derives the word index and the h-bit in-word mask for key in one
// 64-bit hash, mirroring the single-ALU datapath implementation.
func (rb *RegisterBloom) mask(key uint64) (int, uint64) {
	hv := hashutil.HashUint64(key, rb.seed)
	word := int(hashutil.ReduceFull(hv, uint64(len(rb.words))))
	// Derive h bit positions from successive 6-bit nibbles of a second mix.
	bitsrc := hashutil.Mix64(hv)
	var m uint64
	for i := 0; i < rb.h; i++ {
		m |= 1 << (bitsrc & 63)
		bitsrc >>= 6
		if bitsrc == 0 { // extremely unlikely; re-mix to keep h bits flowing
			bitsrc = hashutil.Mix64(hv + uint64(i) + 1)
		}
	}
	return word, m
}

// Add inserts key.
func (rb *RegisterBloom) Add(key uint64) {
	w, m := rb.mask(key)
	rb.words[w] |= m
	rb.count++
}

// Contains reports whether key may have been added (no false negatives).
func (rb *RegisterBloom) Contains(key uint64) bool {
	w, m := rb.mask(key)
	return rb.words[w]&m == m
}

// AddMany implements Membership.
func (rb *RegisterBloom) AddMany(keys []uint64, entries int) {
	for _, k := range keys {
		w, m := rb.mask(k)
		rb.words[w] |= m
	}
	rb.count += entries
}

// ContainsMany implements Membership.
func (rb *RegisterBloom) ContainsMany(keys []uint64, in []bool) {
	in = in[:len(keys)]
	for i, k := range keys {
		in[i] = rb.Contains(k)
	}
}

// Count returns the number of entries added: one per Add, and entries
// per AddMany.
func (rb *RegisterBloom) Count() int { return rb.count }

// SizeBits returns the capacity in bits.
func (rb *RegisterBloom) SizeBits() int { return len(rb.words) * 64 }

// Reset clears the filter.
func (rb *RegisterBloom) Reset() {
	for i := range rb.words {
		rb.words[i] = 0
	}
	rb.count = 0
}

// Membership is the interface shared by both Bloom variants; the JOIN
// pruner is generic over it so the BF-vs-RBF ablation (Fig. 10e) swaps
// implementations without touching the pruning logic.
type Membership interface {
	Add(key uint64)
	Contains(key uint64) bool
	// AddMany inserts keys, which stand for entries entries: the bits
	// are those of an Add per key, and Count grows by entries. Adding a
	// key again sets no bit, so a caller that has deduplicated its
	// entries' keys passes their number; AddMany(keys, len(keys)) is a
	// loop of Add.
	AddMany(keys []uint64, entries int)
	// ContainsMany sets in[i] to Contains(keys[i]) for every key; in is
	// at least as long as keys.
	ContainsMany(keys []uint64, in []bool)
	Count() int
	SizeBits() int
	Reset()
}

var (
	_ Membership = (*Bloom)(nil)
	_ Membership = (*RegisterBloom)(nil)
)
