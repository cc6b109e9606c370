// Package hashutil provides fast, deterministic, seedable hash functions
// used throughout Cheetah for row partitioning, fingerprinting, Bloom
// filters and sketches.
//
// The switch hardware that Cheetah targets exposes a small set of hash
// primitives (CRC-style polynomial hashes over header fields). This package
// plays the same role in the simulator: every data structure that needs a
// hash family draws seeded 64-bit hashes from here, so results are
// reproducible across runs and platforms. Only the standard library is used.
package hashutil

import (
	"math/bits"

	"cheetah/internal/cacheline"
)

// SplitMix64 advances the SplitMix64 sequence from state x and returns the
// next pseudo-random value. It is the standard finalizer-quality mixer used
// to derive independent seeds from a single seed.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix64 applies a strong 64-bit finalizer to x (Murmur3-style fmix64).
// It is a bijection, which several callers rely on (distinct fixed inputs
// map to distinct outputs).
func Mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

const (
	prime1 = 0x9e3779b185ebca87
	prime2 = 0xc2b2ae3d27d4eb4f
	prime3 = 0x165667b19e3779f9
	prime4 = 0x85ebca77c2b2ae63
	prime5 = 0x27d4eb2f165667c5
)

// Hash64 computes a 64-bit XXH64-style hash of b with the given seed.
// The implementation follows the xxHash64 specification; it allocates
// nothing and is safe for concurrent use.
func Hash64(b []byte, seed uint64) uint64 {
	n := len(b)
	var h uint64
	if n >= 32 {
		v1 := seed + prime1 + prime2
		v2 := seed + prime2
		v3 := seed
		v4 := seed - prime1
		for len(b) >= 32 {
			v1 = round(v1, le64(b[0:8]))
			v2 = round(v2, le64(b[8:16]))
			v3 = round(v3, le64(b[16:24]))
			v4 = round(v4, le64(b[24:32]))
			b = b[32:]
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = mergeRound(h, v1)
		h = mergeRound(h, v2)
		h = mergeRound(h, v3)
		h = mergeRound(h, v4)
	} else {
		h = seed + prime5
	}
	h += uint64(n)
	for len(b) >= 8 {
		h ^= round(0, le64(b[0:8]))
		h = bits.RotateLeft64(h, 27)*prime1 + prime4
		b = b[8:]
	}
	if len(b) >= 4 {
		h ^= uint64(le32(b[0:4])) * prime1
		h = bits.RotateLeft64(h, 23)*prime2 + prime3
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c) * prime5
		h = bits.RotateLeft64(h, 11) * prime1
	}
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// HashString64 is Hash64 for strings without forcing a []byte conversion
// allocation at call sites that only have a string.
func HashString64(s string, seed uint64) uint64 {
	// The compiler does not always elide the copy for []byte(s); keep a
	// small dedicated loop-based path for short strings (the common case:
	// keys are usually short), falling back to Hash64 for long ones.
	if len(s) < 32 {
		h := seed + prime5 + uint64(len(s))
		i := 0
		for ; i+8 <= len(s); i += 8 {
			h ^= round(0, le64String(s[i:i+8]))
			h = bits.RotateLeft64(h, 27)*prime1 + prime4
		}
		if i+4 <= len(s) {
			h ^= uint64(le32String(s[i:i+4])) * prime1
			h = bits.RotateLeft64(h, 23)*prime2 + prime3
			i += 4
		}
		for ; i < len(s); i++ {
			h ^= uint64(s[i]) * prime5
			h = bits.RotateLeft64(h, 11) * prime1
		}
		h ^= h >> 33
		h *= prime2
		h ^= h >> 29
		h *= prime3
		h ^= h >> 32
		return h
	}
	return Hash64([]byte(s), seed)
}

// HashUint64 hashes a fixed 64-bit value with a seed. It is the hot-path
// hash for integer column values: one multiply-xor chain, zero allocations.
func HashUint64(x, seed uint64) uint64 {
	return Mix64(x ^ SplitMix64(seed))
}

func round(acc, input uint64) uint64 {
	acc += input * prime2
	acc = bits.RotateLeft64(acc, 31)
	return acc * prime1
}

func mergeRound(acc, val uint64) uint64 {
	val = round(0, val)
	acc ^= val
	return acc*prime1 + prime4
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func le32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64String(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

func le32String(s string) uint32 {
	_ = s[3]
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

// Family is a family of H independent hash functions derived from one seed,
// as used by Bloom filters and the Count-Min sketch. The switch derives its
// hash functions from distinct CRC polynomials; here each member uses an
// independently mixed seed.
type Family struct {
	seeds []uint64
	// mixed[i] is SplitMix64(seeds[i]), the seed half of HashUint64:
	// computed once here instead of once per Uint64 call.
	mixed []uint64
}

// NewFamily returns a family of h hash functions derived from seed.
// h must be positive.
func NewFamily(h int, seed uint64) *Family {
	if h <= 0 {
		panic("hashutil: family size must be positive")
	}
	// A family is read on every entry a sketch hashes: it must not share a
	// line with what another shard's program writes.
	f := cacheline.New[Family]()
	*f = Family{seeds: cacheline.Make[uint64](h), mixed: cacheline.Make[uint64](h)}
	s := seed
	for i := range f.seeds {
		s = SplitMix64(s)
		f.seeds[i] = s
		f.mixed[i] = SplitMix64(s)
	}
	return f
}

// Size returns the number of functions in the family.
func (f *Family) Size() int { return len(f.seeds) }

// Uint64 returns the i-th hash of value x: HashUint64(x, seed i).
func (f *Family) Uint64(i int, x uint64) uint64 {
	return Mix64(x ^ f.mixed[i])
}

// Mixed returns the family's pre-mixed seeds: Uint64(i, x) is
// Mix64(x ^ Mixed()[i]). Hot loops range over it to hash without a call
// or an index check per function.
func (f *Family) Mixed() []uint64 { return f.mixed }

// Bytes returns the i-th hash of b.
func (f *Family) Bytes(i int, b []byte) uint64 {
	return Hash64(b, f.seeds[i])
}

// Reduce maps a 64-bit hash onto [0,n) without modulo bias using the
// multiply-shift trick (Lemire). n must be positive.
func Reduce(h uint64, n int) int {
	return int((uint64(uint32(h)) * uint64(uint32(n))) >> 32)
}

// ReduceFull maps h onto [0,n) using full 64-bit multiply-high, which keeps
// all 64 bits of entropy. n must be positive.
func ReduceFull(h uint64, n uint64) uint64 {
	hi, _ := bits.Mul64(h, n)
	return hi
}
