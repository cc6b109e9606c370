package cache

import (
	"testing"
	"testing/quick"

	"cheetah/internal/hashutil"
)

func TestMatrixBasicHitMiss(t *testing.T) {
	m, err := NewMatrix(16, 4, FIFO, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Insert(42) {
		t.Fatal("first insert reported hit")
	}
	if !m.Insert(42) {
		t.Fatal("second insert reported miss")
	}
	if !m.Contains(42) {
		t.Fatal("Contains lost the value")
	}
	if m.Contains(43) {
		t.Fatal("Contains invented a value")
	}
}

func TestMatrixZeroValueCacheable(t *testing.T) {
	m, _ := NewMatrix(4, 2, FIFO, 1)
	if m.Insert(0) {
		t.Fatal("0 hit on first insert")
	}
	if !m.Insert(0) {
		t.Fatal("0 missed on second insert")
	}
}

func TestMatrixFIFOEviction(t *testing.T) {
	// Single row, w=2: inserting a third distinct value evicts the oldest.
	m, _ := NewMatrix(1, 2, FIFO, 1)
	m.Insert(1)
	m.Insert(2)
	m.Insert(3) // evicts 1
	if m.Contains(1) {
		t.Fatal("FIFO failed to evict oldest")
	}
	if !m.Contains(2) || !m.Contains(3) {
		t.Fatal("FIFO evicted wrong value")
	}
	// A hit must NOT refresh recency under FIFO: hit 2, insert 4 → 2 (the
	// older insertion) is evicted even though it was just seen.
	m.Insert(2) // hit
	m.Insert(4) // evicts 2 under FIFO
	if m.Contains(2) {
		t.Fatal("FIFO refreshed recency on hit")
	}
	if !m.Contains(3) || !m.Contains(4) {
		t.Fatal("FIFO row contents wrong after eviction")
	}
}

func TestMatrixLRUMoveToFront(t *testing.T) {
	m, _ := NewMatrix(1, 2, LRU, 1)
	m.Insert(1)
	m.Insert(2)
	m.Insert(1) // hit: 1 becomes most recent
	m.Insert(3) // evicts 2, not 1
	if !m.Contains(1) {
		t.Fatal("LRU evicted the recently used value")
	}
	if m.Contains(2) {
		t.Fatal("LRU kept the least recently used value")
	}
	if !m.Contains(3) {
		t.Fatal("LRU lost the new value")
	}
}

func TestMatrixRowIsolation(t *testing.T) {
	// Same value always maps to the same row; different rows do not
	// interfere. Fill one row far beyond w and confirm another row's
	// values survive.
	m, _ := NewMatrix(64, 2, FIFO, 7)
	probe := uint64(999)
	m.Insert(probe)
	row := m.RowOf(probe)
	inserted := 0
	for v := uint64(0); inserted < 100; v++ {
		if v != probe && m.RowOf(v) != row {
			m.Insert(v)
			inserted++
		}
	}
	if !m.Contains(probe) {
		t.Fatal("other rows evicted this row's value")
	}
}

func TestMatrixValidation(t *testing.T) {
	if _, err := NewMatrix(0, 2, FIFO, 1); err == nil {
		t.Fatal("d=0 accepted")
	}
	if _, err := NewMatrix(2, 0, FIFO, 1); err == nil {
		t.Fatal("w=0 accepted")
	}
	if _, err := NewMatrix(2, 2, Policy(99), 1); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestMatrixReset(t *testing.T) {
	m, _ := NewMatrix(8, 2, LRU, 1)
	m.Insert(5)
	m.Reset()
	if m.Contains(5) {
		t.Fatal("reset incomplete")
	}
	if m.Insert(5) {
		t.Fatal("hit after reset")
	}
}

func TestMatrixMemoryBits(t *testing.T) {
	m, _ := NewMatrix(4096, 2, FIFO, 1)
	if got := m.MemoryBits(); got != 4096*2*64 {
		t.Fatalf("MemoryBits = %d", got)
	}
}

func TestMatrixNoFalseHitsProperty(t *testing.T) {
	// Property: Insert never reports a hit for a value that was not
	// previously inserted (the no-false-positives requirement that makes
	// the cache safe for DISTINCT).
	m, _ := NewMatrix(32, 3, FIFO, 3)
	f := func(vals []uint64) bool {
		m.Reset()
		seen := map[uint64]bool{}
		for _, v := range vals {
			hit := m.Insert(v)
			if hit && !seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixLRUNoFalseHitsProperty(t *testing.T) {
	m, _ := NewMatrix(16, 2, LRU, 5)
	f := func(vals []uint64) bool {
		m.Reset()
		seen := map[uint64]bool{}
		for _, v := range vals {
			if m.Insert(v) && !seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRollingMinOrderingInvariant(t *testing.T) {
	r, err := NewRollingMin(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	vals := []int64{5, 1, 9, 3, 7, 2, 8}
	for _, v := range vals {
		r.Offer(0, v)
	}
	// Row must hold the 4 largest: 9,8,7,5 in descending order.
	want := []int64{9, 8, 7, 5}
	for i, w := range want {
		if got := r.vals[i]; got != w {
			t.Fatalf("slot %d = %d, want %d (row=%v)", i, got, w, r.vals[:4])
		}
	}
	min, ok := r.RowMin(0)
	if !ok || min != 5 {
		t.Fatalf("RowMin = %d, %v", min, ok)
	}
}

func TestRollingMinPruneDecision(t *testing.T) {
	r, _ := NewRollingMin(1, 2)
	if r.Offer(0, 10) {
		t.Fatal("pruned while filling")
	}
	if r.Offer(0, 20) {
		t.Fatal("pruned while filling")
	}
	if !r.Offer(0, 5) {
		t.Fatal("value below full row's min not pruned")
	}
	if r.Offer(0, 15) {
		t.Fatal("value above min wrongly pruned")
	}
	// After 15 displaced 10, min is 15.
	if min, _ := r.RowMin(0); min != 15 {
		t.Fatalf("min = %d, want 15", min)
	}
}

func TestRollingMinNeverPrunesTopW(t *testing.T) {
	// Property: for a single row, the w largest values offered are never
	// pruned (they are exactly what the row retains). A value that only
	// ties the smallest of them adds nothing to the top w and may go.
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		r, _ := NewRollingMin(1, 3)
		maxSeen := []int64{}
		for _, x := range raw {
			v := int64(x)
			pruned := r.Offer(0, v)
			// v must survive while it beats the third largest before it.
			if pruned && (len(maxSeen) < 3 || v > maxSeen[2]) {
				return false
			}
			// Track the top-3 so far.
			maxSeen = append(maxSeen, v)
			for i := len(maxSeen) - 1; i > 0 && maxSeen[i] > maxSeen[i-1]; i-- {
				maxSeen[i], maxSeen[i-1] = maxSeen[i-1], maxSeen[i]
			}
			if len(maxSeen) > 3 {
				maxSeen = maxSeen[:3]
			}
		}
		return true
	}
	if !f([]int16{30555, 18361, 17948, 17948}) {
		t.Fatal("a value tying the third largest counted as one of the top 3")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRollingMinRowIsolation(t *testing.T) {
	r, _ := NewRollingMin(2, 2)
	r.Offer(0, 100)
	r.Offer(0, 200)
	r.Offer(1, 1)
	r.Offer(1, 2)
	if r.Offer(1, 3) {
		t.Fatal("row 1 pruned a value above its own min")
	}
	if min, _ := r.RowMin(0); min != 100 {
		t.Fatalf("row 0 min = %d", min)
	}
}

func TestRollingMinValidationAndReset(t *testing.T) {
	if _, err := NewRollingMin(0, 1); err == nil {
		t.Fatal("d=0 accepted")
	}
	if _, err := NewRollingMin(1, 0); err == nil {
		t.Fatal("w=0 accepted")
	}
	r, _ := NewRollingMin(1, 1)
	r.Offer(0, 5)
	r.Reset()
	if _, ok := r.RowMin(0); ok {
		t.Fatal("reset incomplete")
	}
	if r.MemoryBits() != 64 {
		t.Fatalf("MemoryBits = %d", r.MemoryBits())
	}
}

func TestKeyedMaxBasic(t *testing.T) {
	k, err := NewKeyedMax(16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k.Offer(1, 10) {
		t.Fatal("first value pruned")
	}
	if !k.Offer(1, 10) {
		t.Fatal("equal value not pruned")
	}
	if !k.Offer(1, 5) {
		t.Fatal("smaller value not pruned")
	}
	if k.Offer(1, 20) {
		t.Fatal("larger value pruned")
	}
	if !k.Offer(1, 15) {
		t.Fatal("value below updated max not pruned")
	}
}

func TestKeyedMaxCorrectnessInvariant(t *testing.T) {
	// Invariant: for any stream, max over forwarded entries per key equals
	// the true per-key max (the pruned set is sufficient for MAX GROUP BY).
	f := func(raw []uint16) bool {
		k, _ := NewKeyedMax(8, 2, 9)
		truth := map[uint64]int64{}
		forwarded := map[uint64]int64{}
		for _, x := range raw {
			key := uint64(x % 37)
			val := int64(x / 37)
			if cur, ok := truth[key]; !ok || val > cur {
				truth[key] = val
			}
			if !k.Offer(key, val) {
				if cur, ok := forwarded[key]; !ok || val > cur {
					forwarded[key] = val
				}
			}
		}
		for key, want := range truth {
			if forwarded[key] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyedMaxEvictionStillCorrect(t *testing.T) {
	// Force evictions with a tiny matrix and many keys; correctness must
	// hold (eviction only reduces pruning).
	k, _ := NewKeyedMax(1, 1, 3)
	truth := map[uint64]int64{}
	forwarded := map[uint64]int64{}
	s := uint64(77)
	for i := 0; i < 5000; i++ {
		s = hashutil.SplitMix64(s)
		key := s % 17
		val := int64(s >> 32 % 1000)
		if cur, ok := truth[key]; !ok || val > cur {
			truth[key] = val
		}
		if !k.Offer(key, val) {
			if cur, ok := forwarded[key]; !ok || val > cur {
				forwarded[key] = val
			}
		}
	}
	for key, want := range truth {
		if forwarded[key] != want {
			t.Fatalf("key %d: forwarded max %d != true max %d", key, forwarded[key], want)
		}
	}
}

func TestKeyedMaxValidationAndReset(t *testing.T) {
	if _, err := NewKeyedMax(0, 1, 1); err == nil {
		t.Fatal("d=0 accepted")
	}
	if _, err := NewKeyedMax(1, 0, 1); err == nil {
		t.Fatal("w=0 accepted")
	}
	k, _ := NewKeyedMax(2, 2, 1)
	k.Offer(1, 1)
	k.Reset()
	if !k.Offer(1, 0) == false {
		t.Fatal("reset incomplete: stale max survived")
	}
	if k.MemoryBits() != 2*2*64 {
		t.Fatalf("MemoryBits = %d", k.MemoryBits())
	}
}

func BenchmarkMatrixInsert(b *testing.B) {
	m, _ := NewMatrix(4096, 2, FIFO, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Insert(uint64(i % 100000))
	}
}

func BenchmarkRollingMinOffer(b *testing.B) {
	r, _ := NewRollingMin(4096, 4)
	s := uint64(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s = hashutil.SplitMix64(s)
		r.Offer(int(s%4096), int64(s>>32))
	}
}

func BenchmarkKeyedMaxOffer(b *testing.B) {
	k, _ := NewKeyedMax(4096, 8, 1)
	s := uint64(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s = hashutil.SplitMix64(s)
		k.Offer(s%5000, int64(s>>32%1000))
	}
}

// TestRollingMinMinsCache checks the per-row minimum cache against the
// ground truth after every Offer, including the not-full sentinel and
// the FullMin accessor.
func TestRollingMinMinsCache(t *testing.T) {
	const d, w = 8, 4
	r, err := NewRollingMin(d, w)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(99)
	next := func(mod int64) int64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		v := int64(seed >> 33)
		return v % mod
	}
	for i := 0; i < 2000; i++ {
		row := int(next(d))
		if row < 0 {
			row = -row
		}
		r.Offer(row%d, next(1<<20))
		for q := 0; q < d; q++ {
			min, full := r.FullMin(q)
			if !full {
				if r.Mins()[q] != MinSentinel {
					t.Fatalf("row %d not full but mins=%d", q, r.Mins()[q])
				}
				continue
			}
			if got := r.Mins()[q]; got != min {
				t.Fatalf("row %d: mins cache %d, true min %d", q, got, min)
			}
			if rm, ok := r.RowMin(q); !ok || rm != min {
				t.Fatalf("row %d: RowMin %v/%v vs FullMin %d", q, rm, ok, min)
			}
		}
	}
	r.Reset()
	for q := 0; q < d; q++ {
		if r.Mins()[q] != MinSentinel {
			t.Fatalf("after reset, row %d mins=%d", q, r.Mins()[q])
		}
	}
}

// TestRollingMinOfferOrder checks that Offer keeps rows in descending
// order with exact rolling-replacement semantics (the hardware's swap
// walk), including ties.
func TestRollingMinOfferOrder(t *testing.T) {
	r, err := NewRollingMin(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		v     int64
		prune bool
		want  []int64
	}{
		{5, false, []int64{5}},
		{7, false, []int64{7, 5}},
		{5, false, []int64{7, 5, 5}}, // tie inserts after equal values
		{4, true, []int64{7, 5, 5}},  // full row, below min: pruned
		{5, true, []int64{7, 5, 5}},  // equal to min, never displaces
		{6, false, []int64{7, 6, 5}}, // splices mid-row, min falls out
		{9, false, []int64{9, 7, 6}},
	}
	for i, s := range steps {
		if got := r.Offer(0, s.v); got != s.prune {
			t.Fatalf("step %d: Offer(%d) prune=%v, want %v", i, s.v, got, s.prune)
		}
		for j, want := range s.want {
			if r.vals[j] != want {
				t.Fatalf("step %d: slot %d = %d, want %d (row %v)", i, j, r.vals[j], want, r.vals[:3])
			}
		}
	}
}
