// Package cacheline allocates memory that shares no cache line with any
// other allocation.
//
// A sharded query runs one switch program per shard, each on its own
// goroutine, and every program reads and writes its registers and counters
// once per entry. The programs of one query are built one after another,
// so the Go allocator places their small objects side by side; two cores
// writing to one line then take turns owning it, and k switches run slower
// than one (false sharing). Every program and register array is therefore
// allocated here, with a line of slack on each side: whatever the
// allocator puts next to it lies on other lines.
package cacheline

import "unsafe"

// Size is the cache line size the slack is for. x86's adjacent-line
// prefetcher pulls lines in aligned pairs, so 128 bytes would also keep a
// neighbour one line away out; on a 2-vCPU Xeon, GROUP BY SUM and SKYLINE
// scaled the same from one shard to two either way, so the slack is one
// line.
const Size = 64

// padded is T with Size bytes on each side. T sits at offset Size, so the
// first line T touches starts after the allocation does and the last one
// ends before the allocation does.
type padded[T any] struct {
	_ [Size]byte
	v T
	_ [Size]byte
}

// New returns a pointer to a zero T that shares no cache line with any
// other allocation.
func New[T any]() *T {
	return &new(padded[T]).v
}

// Make returns a zeroed slice of n Ts, of capacity n, whose elements share
// no cache line with any other allocation. Appending past n reallocates
// without the slack, as append always does.
func Make[T any](n int) []T {
	size := int(unsafe.Sizeof(*new(T)))
	if size == 0 {
		return make([]T, n)
	}
	pad := (Size + size - 1) / size
	s := make([]T, pad+n+pad)
	return s[pad : pad+n : pad+n]
}
