// Package cache implements the d×w register matrices Cheetah lays out in
// switch SRAM (§4.2, §5): per-row caches with rolling replacement used by
// DISTINCT, rolling-minimum rows used by the randomized TOP N, and keyed
// running-max rows used by GROUP BY.
//
// Layout mirrors the hardware: each of the w columns is one pipeline stage
// holding a d-entry register array; a packet visits the columns of its row
// in stage order. All structures use flat backing arrays and allocate
// nothing per entry; each structure and each backing array is allocated
// alone on its cache lines (package cacheline), so the matrices of
// concurrently running shards never write to one line.
package cache

import (
	"fmt"
	"math"

	"cheetah/internal/cacheline"
	"cheetah/internal/hashutil"
)

// Policy selects the replacement behaviour of a matrix-cache row.
type Policy uint8

const (
	// FIFO does rolling replacement on every miss: the new value enters
	// column 0 and every cached value shifts one column right, the last
	// falling out. A hit leaves the row unchanged. This is the cheaper
	// policy (Table 2's "FIFO*" row shares same-stage ALU memory).
	FIFO Policy = iota
	// LRU additionally moves a hit value back to column 0, so the row
	// evicts the least recently *seen* value rather than the oldest
	// insertion.
	LRU
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "FIFO"
	case LRU:
		return "LRU"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Matrix is the d×w value cache used by the DISTINCT pruner: row i caches
// the last w values hashed to it. Values must already be fingerprints or
// raw 64-bit column values; the matrix itself stores opaque uint64s.
//
// Empty slots are tracked explicitly (occupancy bitmap per row is replaced
// by a fill counter, because rolling replacement always fills columns left
// to right), so the value 0 is a legal cacheable value.
type Matrix struct {
	d, w   int
	policy Policy
	vals   []uint64 // row-major d rows × w cols
	fill   []int    // number of occupied columns in each row
	mixed  uint64   // SplitMix64(seed): the seed half of the row hash
}

// NewMatrix creates a d-row, w-column cache with the given replacement
// policy. The seed drives the row-selection hash.
func NewMatrix(d, w int, policy Policy, seed uint64) (*Matrix, error) {
	if d <= 0 || w <= 0 {
		return nil, fmt.Errorf("cache: matrix dimensions %dx%d must be positive", d, w)
	}
	if policy != FIFO && policy != LRU {
		return nil, fmt.Errorf("cache: unknown policy %v", policy)
	}
	m := cacheline.New[Matrix]()
	*m = Matrix{
		d:      d,
		w:      w,
		policy: policy,
		vals:   cacheline.Make[uint64](d * w),
		fill:   cacheline.Make[int](d),
		mixed:  hashutil.SplitMix64(seed),
	}
	return m, nil
}

// Rows returns d. Cols returns w.
func (m *Matrix) Rows() int { return m.d }

// Cols returns the number of columns (stages) per row.
func (m *Matrix) Cols() int { return m.w }

// RowOf returns the row index value maps to: HashUint64(value, seed)
// reduced to d, with the seed's mixing done once at construction.
func (m *Matrix) RowOf(value uint64) int {
	return hashutil.Reduce(hashutil.Mix64(value^m.mixed), m.d)
}

// Insert looks value up in its row and inserts it on a miss.
// It returns true when the value was already cached (the caller prunes
// the entry) and false when it was new (the caller forwards it).
func (m *Matrix) Insert(value uint64) (hit bool) {
	row := m.RowOf(value)
	base := row * m.w
	n := m.fill[row]
	slots := m.vals[base : base+n]
	for i, v := range slots {
		if v == value {
			if m.policy == LRU && i > 0 {
				copy(slots[1:i+1], slots[:i])
				slots[0] = value
			}
			return true
		}
	}
	// Miss: rolling replacement, new value enters column 0.
	if n < m.w {
		m.fill[row] = n + 1
		n++
	}
	full := m.vals[base : base+n]
	copy(full[1:], full[:n-1])
	full[0] = value
	return false
}

// Contains reports whether value is currently cached, without mutating
// the matrix.
func (m *Matrix) Contains(value uint64) bool {
	row := m.RowOf(value)
	base := row * m.w
	for _, v := range m.vals[base : base+m.fill[row]] {
		if v == value {
			return true
		}
	}
	return false
}

// Reset clears all rows.
func (m *Matrix) Reset() {
	for i := range m.fill {
		m.fill[i] = 0
	}
}

// MemoryBits returns the SRAM footprint in bits (d·w 64-bit registers),
// matching Table 2's "(d·w)×64b" accounting.
func (m *Matrix) MemoryBits() int { return m.d * m.w * 64 }

// RollingMin is the d×w matrix of §5's randomized TOP N: each row keeps
// the w largest values routed to it, in descending column order, using the
// single-comparison-per-stage rolling-minimum update the switch supports.
//
// Empty slots hold MinSentinel rather than a fill counter: the sentinel is
// the smallest int64, so it sorts to the tail of a descending row and the
// filling splice and the full-row displacement are the same operation. A
// row is full exactly when its last column is not the sentinel. The one
// representable casualty is a genuine MinSentinel value: it is
// indistinguishable from an empty slot, so such values are never cached
// and never pruned — forwarding them is always sound, the master just
// sees a few more entries.
type RollingMin struct {
	d, w int
	vals []int64
	// mins caches each row's last column (MinSentinel while the row is
	// filling), giving scan loops a single compact-array prune test that
	// avoids touching the row matrix for pruned entries. Maintained by
	// Offer/InsertFull.
	mins []int64
}

// MinSentinel marks an empty slot (and a not-yet-full row in the Mins
// cache): a value ≤ mins[row] may be pruned exactly when mins[row] is not
// the sentinel.
const MinSentinel = math.MinInt64

// NewRollingMin creates the matrix.
func NewRollingMin(d, w int) (*RollingMin, error) {
	if d <= 0 || w <= 0 {
		return nil, fmt.Errorf("cache: rolling-min dimensions %dx%d must be positive", d, w)
	}
	r := cacheline.New[RollingMin]()
	*r = RollingMin{d: d, w: w, vals: cacheline.Make[int64](d * w), mins: cacheline.Make[int64](d)}
	fillSentinel(r.vals)
	fillSentinel(r.mins)
	return r, nil
}

// fillSentinel sets every element to MinSentinel at memmove speed
// (doubling copies beat a scalar store loop on the 128KB value matrices
// the TOP N pruners allocate per query).
func fillSentinel(s []int64) {
	if len(s) == 0 {
		return
	}
	s[0] = MinSentinel
	for i := 1; i < len(s); i *= 2 {
		copy(s[i:], s[:i])
	}
}

// Mins exposes the per-row minimum cache for batch prune tests. The
// caller must not modify it; see MinSentinel for the not-full marker.
func (r *RollingMin) Mins() []int64 { return r.mins }

// Rows returns d. Cols returns w.
func (r *RollingMin) Rows() int { return r.d }

// Cols returns w.
func (r *RollingMin) Cols() int { return r.w }

// Offer presents value to the given row (chosen uniformly at random by the
// caller). It returns true when the value was smaller than every cached
// value in a full row — i.e. the entry can be pruned. Otherwise the value
// is spliced into its ordered position and the row's minimum (an empty
// sentinel while filling) falls out.
func (r *RollingMin) Offer(row int, value int64) (prune bool) {
	last := r.mins[row]
	if value <= last && last != MinSentinel {
		return true
	}
	r.InsertFull(row, value)
	return false
}

// InsertFull splices value into its row: Offer without the prune verdict.
// The splice is a no-op when value is not larger than the row minimum, so
// callers that already proved value > mins[row] (the fused loops' compact
// prune test) lose nothing by skipping the verdict; sentinel-valued empty
// slots make the filling phase the same displacement.
func (r *RollingMin) InsertFull(row int, value int64) {
	if r.w == 4 {
		// The literal hardware rolling swap, branch-free: each stage keeps
		// the larger of (register, carried value) and passes the smaller
		// on; min/max compile to conditional moves, so the randomly placed
		// insertions never mispredict. w=4 is Table 2's TOP N column
		// count, making this the steady-state TOP N path — and
		// keeping it straight-line keeps InsertFull inlinable into the
		// fused scan loops.
		base := row * 4
		s := r.vals[base : base+4 : base+4]
		v0, v1, v2, v3 := s[0], s[1], s[2], s[3]
		c := value
		s[0] = max(v0, c)
		c = min(v0, c)
		s[1] = max(v1, c)
		c = min(v1, c)
		s[2] = max(v2, c)
		c = min(v2, c)
		m := max(v3, c)
		s[3] = m
		r.mins[row] = m
		return
	}
	r.insertSplice(row, value)
}

// insertSplice is InsertFull's generic-width path: a position count over
// the descending row followed by a shift (a no-op when value misses the
// row's top w).
func (r *RollingMin) insertSplice(row int, value int64) {
	base := row * r.w
	slots := r.vals[base : base+r.w]
	pos := 0
	for _, s := range slots {
		if s >= value {
			pos++
		}
	}
	if pos == r.w {
		return
	}
	for i := r.w - 1; i > pos; i-- {
		slots[i] = slots[i-1]
	}
	slots[pos] = value
	r.mins[row] = slots[r.w-1]
}

// FullMin returns the minimum cached value of row and whether the row is
// full. It is the branch-light prune test hoisted into batch loops: for a
// full row the minimum sits in the last column (splicing keeps columns in
// descending order), so a value ≤ it can be pruned without running the
// splice, and a not-full row can never prune. The method is small enough
// to inline into callers' inner loops.
func (r *RollingMin) FullMin(row int) (int64, bool) {
	m := r.mins[row]
	if m == MinSentinel {
		return 0, false
	}
	return m, true
}

// RowMin returns the minimum cached value of a full row, or false when the
// row is not yet full.
func (r *RollingMin) RowMin(row int) (int64, bool) {
	return r.FullMin(row)
}

// Reset clears all rows.
func (r *RollingMin) Reset() {
	fillSentinel(r.vals)
	fillSentinel(r.mins)
}

// MemoryBits returns the SRAM footprint in bits.
func (r *RollingMin) MemoryBits() int { return r.d * r.w * 64 }

// KeyedMax is the GROUP BY matrix (§4.3, Table 2): each row holds w
// (key fingerprint, running max) pairs. An entry whose value does not
// exceed the cached max for its key is pruned; larger values update the
// max and are forwarded so the master always holds the true per-key max.
type KeyedMax struct {
	d, w int
	keys []uint64
	vals []int64
	fill []int
	// mixed is SplitMix64(seed), the seed half of the row hash.
	mixed uint64
}

// NewKeyedMax creates the matrix.
func NewKeyedMax(d, w int, seed uint64) (*KeyedMax, error) {
	if d <= 0 || w <= 0 {
		return nil, fmt.Errorf("cache: keyed-max dimensions %dx%d must be positive", d, w)
	}
	k := cacheline.New[KeyedMax]()
	*k = KeyedMax{
		d: d, w: w,
		keys:  cacheline.Make[uint64](d * w),
		vals:  cacheline.Make[int64](d * w),
		fill:  cacheline.Make[int](d),
		mixed: hashutil.SplitMix64(seed),
	}
	return k, nil
}

// Rows returns d. Cols returns w.
func (k *KeyedMax) Rows() int { return k.d }

// Cols returns w.
func (k *KeyedMax) Cols() int { return k.w }

// Offer presents (key, value). It returns true when the entry is provably
// redundant (a same-key entry with value ≥ this one was already
// forwarded) and false when the entry must be forwarded.
func (k *KeyedMax) Offer(key uint64, value int64) (prune bool) {
	// HashUint64(key, seed) reduced to d.
	row := hashutil.Reduce(hashutil.Mix64(key^k.mixed), k.d)
	base := row * k.w
	n := k.fill[row]
	for i := 0; i < n; i++ {
		if k.keys[base+i] == key {
			if value <= k.vals[base+i] {
				return true
			}
			k.vals[base+i] = value
			return false
		}
	}
	// Unknown key: cache it (rolling replacement) and forward.
	if n < k.w {
		k.keys[base+n] = key
		k.vals[base+n] = value
		k.fill[row] = n + 1
		return false
	}
	copy(k.keys[base+1:base+k.w], k.keys[base:base+k.w-1])
	copy(k.vals[base+1:base+k.w], k.vals[base:base+k.w-1])
	k.keys[base] = key
	k.vals[base] = value
	return false
}

// Reset clears all rows.
func (k *KeyedMax) Reset() {
	for i := range k.fill {
		k.fill[i] = 0
	}
}

// MemoryBits returns the SRAM footprint in bits (key + value registers).
func (k *KeyedMax) MemoryBits() int { return k.d * k.w * 64 }
