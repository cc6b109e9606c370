package sketch

import (
	"math"
	"testing"
	"testing/quick"

	"cheetah/internal/hashutil"
)

func TestBloomNoFalseNegatives(t *testing.T) {
	b, err := NewBloom(1<<14, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		b.Add(i)
	}
	for i := uint64(0); i < 1000; i++ {
		if !b.Contains(i) {
			t.Fatalf("false negative for %d", i)
		}
	}
	if b.Count() != 1000 {
		t.Fatalf("Count = %d", b.Count())
	}
}

func TestBloomFalsePositiveRateNearEstimate(t *testing.T) {
	b, _ := NewBloom(1<<16, 3, 7)
	const n = 5000
	for i := uint64(0); i < n; i++ {
		b.Add(i)
	}
	est := b.EstimateFalsePositiveRate(n)
	fp := 0
	const probes = 100000
	for i := uint64(0); i < probes; i++ {
		if b.Contains(1e9 + i) {
			fp++
		}
	}
	got := float64(fp) / probes
	if got > est*3+0.01 {
		t.Fatalf("fp rate %v far above estimate %v", got, est)
	}
}

func TestBloomReset(t *testing.T) {
	b, _ := NewBloom(1024, 2, 3)
	b.Add(42)
	if !b.Contains(42) {
		t.Fatal("add failed")
	}
	b.Reset()
	if b.Contains(42) || b.Count() != 0 || b.FillRatio() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestBloomConstructorValidation(t *testing.T) {
	if _, err := NewBloom(0, 3, 1); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := NewBloom(64, 0, 1); err == nil {
		t.Fatal("h 0 accepted")
	}
}

func TestBloomNoFalseNegativesProperty(t *testing.T) {
	b, _ := NewBloom(1<<12, 4, 11)
	f := func(keys []uint64) bool {
		b.Reset()
		for _, k := range keys {
			b.Add(k)
		}
		for _, k := range keys {
			if !b.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterBloomNoFalseNegatives(t *testing.T) {
	rb, err := NewRegisterBloom(1<<14, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		rb.Add(i)
	}
	for i := uint64(0); i < 1000; i++ {
		if !rb.Contains(i) {
			t.Fatalf("false negative for %d", i)
		}
	}
}

func TestRegisterBloomValidation(t *testing.T) {
	if _, err := NewRegisterBloom(-1, 3, 1); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := NewRegisterBloom(64, 0, 1); err == nil {
		t.Fatal("h=0 accepted")
	}
	if _, err := NewRegisterBloom(64, 17, 1); err == nil {
		t.Fatal("h=17 accepted")
	}
}

func TestRegisterBloomFalsePositivesBounded(t *testing.T) {
	// The blocked variant should still reject the vast majority of absent
	// keys at a reasonable load.
	rb, _ := NewRegisterBloom(1<<16, 3, 9)
	const n = 4000
	for i := uint64(0); i < n; i++ {
		rb.Add(i)
	}
	fp := 0
	const probes = 50000
	for i := uint64(0); i < probes; i++ {
		if rb.Contains(1e9 + i) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Fatalf("register bloom fp rate too high: %v", rate)
	}
}

func TestRegisterBloomReset(t *testing.T) {
	rb, _ := NewRegisterBloom(256, 2, 1)
	rb.Add(7)
	rb.Reset()
	if rb.Contains(7) || rb.Count() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestMembershipInterfaceParity(t *testing.T) {
	// Both variants must satisfy the same no-false-negative contract via
	// the shared interface.
	impls := []Membership{}
	b, _ := NewBloom(1<<12, 3, 2)
	rb, _ := NewRegisterBloom(1<<12, 3, 2)
	impls = append(impls, b, rb)
	for _, m := range impls {
		for i := uint64(0); i < 500; i++ {
			m.Add(i * 31)
		}
		for i := uint64(0); i < 500; i++ {
			if !m.Contains(i * 31) {
				t.Fatalf("%T: false negative", m)
			}
		}
		if m.SizeBits() < 1<<12 {
			t.Fatalf("%T: size shrank", m)
		}
	}
}

func TestCountMinOneSidedError(t *testing.T) {
	cm, err := NewCountMin(3, 128, 13)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[uint64]int64{}
	// Heavily skewed updates across 1000 keys.
	for i := 0; i < 20000; i++ {
		k := uint64(i % 1000)
		v := int64(i%7 + 1)
		truth[k] += v
		cm.Add(k, v)
	}
	for k, want := range truth {
		if got := cm.Estimate(k); got < want {
			t.Fatalf("Count-Min underestimated key %d: got %d want >= %d", k, got, want)
		}
	}
}

func TestCountMinExactWhenSparse(t *testing.T) {
	// With few keys and a wide sketch, estimates should be exact.
	cm, _ := NewCountMin(4, 1<<12, 3)
	for k := uint64(0); k < 10; k++ {
		cm.Add(k, int64(k)*10)
	}
	for k := uint64(1); k < 10; k++ {
		if got := cm.Estimate(k); got != int64(k)*10 {
			t.Fatalf("Estimate(%d) = %d, want %d", k, got, k*10)
		}
	}
	if cm.Estimate(999999) != 0 {
		t.Fatal("absent key should estimate 0 in sparse sketch")
	}
}

func TestCountMinAddReturnsEstimate(t *testing.T) {
	cm, _ := NewCountMin(2, 64, 1)
	if got := cm.Add(5, 3); got < 3 {
		t.Fatalf("Add returned %d < 3", got)
	}
	if got := cm.Add(5, 4); got < 7 {
		t.Fatalf("Add returned %d < 7", got)
	}
}

func TestCountMinReset(t *testing.T) {
	cm, _ := NewCountMin(2, 64, 1)
	cm.Add(1, 100)
	cm.Reset()
	if cm.Estimate(1) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestCountMinValidation(t *testing.T) {
	if _, err := NewCountMin(0, 10, 1); err == nil {
		t.Fatal("depth 0 accepted")
	}
	if _, err := NewCountMin(3, 0, 1); err == nil {
		t.Fatal("width 0 accepted")
	}
}

func TestDimensionsForError(t *testing.T) {
	d, w, err := DimensionsForError(0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if w != int(math.Ceil(math.E/0.01)) {
		t.Fatalf("width = %d", w)
	}
	if d != 5 { // ceil(ln 100) = 5
		t.Fatalf("depth = %d", d)
	}
	if _, _, err := DimensionsForError(0, 0.1); err == nil {
		t.Fatal("epsilon 0 accepted")
	}
	if _, _, err := DimensionsForError(0.1, 1); err == nil {
		t.Fatal("delta 1 accepted")
	}
}

func TestCountMinOneSidedProperty(t *testing.T) {
	cm, _ := NewCountMin(3, 64, 99)
	f := func(updates []uint16) bool {
		cm.Reset()
		truth := map[uint64]int64{}
		for _, u := range updates {
			k := uint64(u % 50)
			truth[k]++
			cm.Add(k, 1)
		}
		for k, want := range truth {
			if cm.Estimate(k) < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprinterBasics(t *testing.T) {
	fp, err := NewFingerprinter(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Bits() != 16 {
		t.Fatalf("Bits = %d", fp.Bits())
	}
	if v := fp.Uint64(12345); v >= 1<<16 {
		t.Fatalf("fingerprint %d exceeds 16 bits", v)
	}
	if fp.String("abc") != fp.Bytes([]byte("abc")) {
		t.Fatal("string and byte fingerprints disagree")
	}
	if _, err := NewFingerprinter(0, 1); err == nil {
		t.Fatal("0 bits accepted")
	}
	if _, err := NewFingerprinter(65, 1); err == nil {
		t.Fatal("65 bits accepted")
	}
	full, _ := NewFingerprinter(64, 1)
	if full.Uint64(1) == full.Uint64(2) {
		t.Fatal("64-bit fingerprints collide on trivial input")
	}
}

func TestFingerprinterColumnsOrderSensitive(t *testing.T) {
	fp, _ := NewFingerprinter(64, 7)
	a := fp.Columns(1, 2)
	b := fp.Columns(2, 1)
	if a == b {
		t.Fatal("column order should matter")
	}
	if fp.Columns(1, 2) != a {
		t.Fatal("not deterministic")
	}
}

func TestMaxRowLoadRegimes(t *testing.T) {
	// Heavy regime: D much larger than d ln(2d/δ) → M = eD/d.
	m, err := MaxRowLoad(1_000_000, 1000, 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	want := math.E * 1_000_000 / 1000
	if math.Abs(m-want) > 1e-9 {
		t.Fatalf("heavy regime M = %v, want %v", m, want)
	}
	// Middle regime.
	d := 1000
	delta := 0.0001
	l2d := math.Log(2 * float64(d) / delta)
	Dmid := int(float64(d) * l2d / 2) // between d ln(1/δ)/e and d ln(2d/δ)
	m, err = MaxRowLoad(Dmid, d, delta)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-math.E*l2d) > 1e-9 {
		t.Fatalf("middle regime M = %v, want %v", m, math.E*l2d)
	}
	// Light regime must return something positive and finite.
	m, err = MaxRowLoad(10, d, delta)
	if err != nil {
		t.Fatal(err)
	}
	if m <= 0 || math.IsInf(m, 0) || math.IsNaN(m) {
		t.Fatalf("light regime M = %v", m)
	}
	if _, err := MaxRowLoad(0, 10, 0.5); err == nil {
		t.Fatal("D=0 accepted")
	}
}

func TestFingerprintBitsPaperExample(t *testing.T) {
	// Paper: d=1000, δ=0.01% supports up to 500M distinct elements with
	// 64-bit fingerprints.
	bits, err := FingerprintBits(500_000_000, 1000, 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	if bits > 64 {
		t.Fatalf("bits = %d, want <= 64", bits)
	}
	if bits < 50 {
		t.Fatalf("bits = %d suspiciously small for 500M distinct", bits)
	}
	// Fewer distinct elements need fewer bits.
	small, _ := FingerprintBits(1000, 1000, 0.0001)
	if small >= bits {
		t.Fatalf("1000 distinct needs %d bits, >= %d for 500M", small, bits)
	}
}

func TestFingerprintBitsMonotoneInDistinct(t *testing.T) {
	prev := uint(0)
	for _, D := range []int{100, 10_000, 1_000_000, 100_000_000} {
		b, err := FingerprintBits(D, 1000, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		if b < prev {
			t.Fatalf("bits not monotone: %d then %d", prev, b)
		}
		prev = b
	}
}

func TestFingerprintBitsSimple(t *testing.T) {
	// Theorem 5: f = ceil(log2(w·m/δ)).
	bits, err := FingerprintBitsSimple(1_000_000, 2, 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	want := uint(math.Ceil(math.Log2(2 * 1e6 / 0.0001)))
	if bits != want {
		t.Fatalf("bits = %d, want %d", bits, want)
	}
	if _, err := FingerprintBitsSimple(0, 2, 0.1); err == nil {
		t.Fatal("m=0 accepted")
	}
}

func TestFingerprintCollisionRateMatchesTheorem(t *testing.T) {
	// Simulate the Theorem 4 setup: hash D distinct keys into d rows, give
	// each a fingerprint of the prescribed size, and check that same-row
	// collisions are rare across trials.
	const d = 256
	const D = 4096
	const delta = 0.05
	bits, err := FingerprintBits(D, d, delta)
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		fp, _ := NewFingerprinter(bits, uint64(trial)*7+1)
		rows := make(map[int]map[uint64]uint64) // row -> fingerprint -> key
		collided := false
		for k := uint64(0); k < D; k++ {
			key := k*2654435761 + uint64(trial)<<32
			row := hashutil.Reduce(hashutil.HashUint64(key, 42), d)
			f := fp.Uint64(key)
			if rows[row] == nil {
				rows[row] = map[uint64]uint64{}
			}
			if prev, ok := rows[row][f]; ok && prev != key {
				collided = true
				break
			}
			rows[row][f] = key
		}
		if collided {
			failures++
		}
	}
	// delta = 5%; allow generous slack over 20 trials (expected 1).
	if failures > 5 {
		t.Fatalf("fingerprint collisions in %d/%d trials, far above delta=%v", failures, trials, delta)
	}
}

func BenchmarkBloomAdd(b *testing.B) {
	bf, _ := NewBloom(1<<20, 3, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bf.Add(uint64(i))
	}
}

func BenchmarkBloomContains(b *testing.B) {
	bf, _ := NewBloom(1<<20, 3, 1)
	for i := uint64(0); i < 1<<16; i++ {
		bf.Add(i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = bf.Contains(uint64(i))
	}
	_ = sink
}

// BenchmarkBloomAddMany is BenchmarkBloomAdd through AddMany, 4 096 keys
// a call: ns/op is per key.
func BenchmarkBloomAddMany(b *testing.B) {
	bf, _ := NewBloom(1<<20, 3, 1)
	keys := make([]uint64, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i += len(keys) {
		n := min(len(keys), b.N-i)
		for j := range keys[:n] {
			keys[j] = uint64(i + j)
		}
		bf.AddMany(keys[:n], n)
	}
}

// BenchmarkBloomContainsMany is BenchmarkBloomContains through
// ContainsMany, 4 096 keys a call: ns/op is per key.
func BenchmarkBloomContainsMany(b *testing.B) {
	bf, _ := NewBloom(1<<20, 3, 1)
	for i := uint64(0); i < 1<<16; i++ {
		bf.Add(i)
	}
	keys := make([]uint64, 4096)
	in := make([]bool, len(keys))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i += len(keys) {
		n := min(len(keys), b.N-i)
		for j := range keys[:n] {
			keys[j] = uint64(i + j)
		}
		bf.ContainsMany(keys[:n], in)
	}
}

func BenchmarkRegisterBloomContains(b *testing.B) {
	rb, _ := NewRegisterBloom(1<<20, 3, 1)
	for i := uint64(0); i < 1<<16; i++ {
		rb.Add(i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = rb.Contains(uint64(i))
	}
	_ = sink
}

func BenchmarkCountMinAdd(b *testing.B) {
	cm, _ := NewCountMin(3, 1024, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cm.Add(uint64(i%4096), 1)
	}
}

// TestBloomClone: a clone starts equal to its source, shares its hash
// family, and grows apart from it without writing it.
func TestBloomClone(t *testing.T) {
	b, _ := NewBloom(1024, 3, 5)
	for k := uint64(0); k < 40; k++ {
		b.Add(k)
	}
	c := b.Clone()
	if !c.Equal(b) || c.family != b.family {
		t.Fatal("clone differs from its source or copied the family")
	}
	frozen := b.Clone()
	for k := uint64(1000); k < 1040; k++ {
		c.Add(k)
	}
	if !b.Equal(frozen) {
		t.Fatal("adding to a clone wrote its source")
	}
	// The clone holds what a filter fed every key in another order holds.
	want, _ := NewBloomOf(1024, b.family)
	for k := uint64(1039); k >= 1000; k-- {
		want.Add(k)
	}
	for k := uint64(0); k < 40; k++ {
		want.Add(k)
	}
	if !c.Equal(want) {
		t.Fatal("clone + adds differs from one build over the same keys")
	}
	other, _ := NewBloom(1024, 3, 6)
	for k := uint64(0); k < 40; k++ {
		other.Add(k)
	}
	if other.Equal(frozen) || frozen.Equal(c) {
		t.Fatal("Equal ignores the seed or the bits")
	}
}
