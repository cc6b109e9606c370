package sketch

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// newMembership builds a Bloom or, with rbf, a RegisterBloom.
func newMembership(t testing.TB, rbf bool, sizeBits, h int, seed uint64) Membership {
	t.Helper()
	var m Membership
	var err error
	if rbf {
		m, err = NewRegisterBloom(sizeBits, h, seed)
	} else {
		m, err = NewBloom(sizeBits, h, seed)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameMembership reports whether a and b, of one type, hold equal bits
// and an equal Count.
func sameMembership(a, b Membership) bool {
	switch a := a.(type) {
	case *Bloom:
		return a.Equal(b.(*Bloom))
	case *RegisterBloom:
		o := b.(*RegisterBloom)
		return a.count == o.count && slices.Equal(a.words, o.words)
	}
	return false
}

// distinctKeys returns keys' distinct values in first-seen order.
func distinctKeys(keys []uint64) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// checkBatch requires AddMany to set what a loop of Add sets — over keys
// as given and over their distinct values standing for len(keys) entries —
// with an equal Count, and ContainsMany to answer Contains per probe.
func checkBatch(t testing.TB, rbf bool, sizeBits, h int, seed uint64, keys, probes []uint64) {
	t.Helper()
	label := fmt.Sprintf("rbf=%v bits=%d h=%d keys=%d", rbf, sizeBits, h, len(keys))
	loop := newMembership(t, rbf, sizeBits, h, seed)
	for _, k := range keys {
		loop.Add(k)
	}
	many := newMembership(t, rbf, sizeBits, h, seed)
	many.AddMany(keys, len(keys))
	deduped := newMembership(t, rbf, sizeBits, h, seed)
	deduped.AddMany(distinctKeys(keys), len(keys))
	if !sameMembership(many, loop) || !sameMembership(deduped, loop) {
		t.Fatalf("%s: AddMany differs from a loop of Add (counts %d, %d, want %d)",
			label, many.Count(), deduped.Count(), loop.Count())
	}
	probes = slices.Concat(probes, keys)
	// in is longer than the probes: ContainsMany writes only its head.
	in := make([]bool, len(probes)+3)
	in[len(probes)] = true
	many.ContainsMany(probes, in)
	for i, k := range probes {
		if in[i] != loop.Contains(k) {
			t.Fatalf("%s: ContainsMany(%#x) = %v, Contains says %v", label, k, in[i], !in[i])
		}
	}
	if !in[len(probes)] || in[len(probes)+1] {
		t.Fatalf("%s: ContainsMany wrote past its keys", label)
	}
	if !sameMembership(many, loop) {
		t.Fatalf("%s: ContainsMany wrote the filter", label)
	}
}

// TestMembershipBatch: for both filters, at H ∈ {1, 3, 4} (the planner's
// three and one either side), AddMany ≡ a loop of Add and ContainsMany ≡
// Contains per key, over empty, duplicate-heavy and all-unique keys, at
// filter sizes and key counts that are not multiples of 64.
func TestMembershipBatch(t *testing.T) {
	spread := func(n, distinct int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i%distinct) * 0x9e3779b97f4a7c15
		}
		return keys
	}
	cases := map[string][]uint64{
		"empty":           nil,
		"one":             {42},
		"duplicate-heavy": spread(1000, 7),
		"all-unique":      spread(777, 777),
		"dense":           spread(3000, 3000),
	}
	probes := spread(500, 500)
	for i := range probes {
		probes[i] ^= 0x5bd1e995
	}
	for _, rbf := range []bool{false, true} {
		for _, h := range []int{1, 3, 4} {
			for _, sizeBits := range []int{65, 1000, 4096} {
				for name, keys := range cases {
					t.Run(fmt.Sprintf("%s/rbf=%v/h=%d/bits=%d", name, rbf, h, sizeBits), func(t *testing.T) {
						checkBatch(t, rbf, sizeBits, h, 17, keys, probes)
					})
				}
			}
		}
	}
}

// FuzzMembershipBatch drives checkBatch with generated keys: two bytes a
// key, so duplicates are common, spread over 64 bits by a multiplier the
// input picks, at fuzzed filter sizes, hash counts and seeds on both
// filters.
func FuzzMembershipBatch(f *testing.F) {
	f.Add(uint16(1000), uint8(3), uint64(1), false, []byte("abcdabcdxyzxyz012345"))
	f.Add(uint16(65), uint8(1), uint64(9), true, []byte{0, 0, 0, 0, 1, 1, 255, 255})
	f.Add(uint16(4096), uint8(4), uint64(3), false, []byte{})
	f.Fuzz(func(t *testing.T, sizeBits uint16, h uint8, seed uint64, rbf bool, data []byte) {
		hashes := 1 + int(h)%5
		keys := make([]uint64, len(data)/2)
		mul := seed | 1
		for i := range keys {
			keys[i] = uint64(binary.LittleEndian.Uint16(data[2*i:])) * mul
		}
		probes := make([]uint64, 0, len(keys))
		for _, k := range keys {
			probes = append(probes, k+mul)
		}
		checkBatch(t, rbf, 1+int(sizeBits), hashes, seed, keys, probes)
	})
}
