package cacheline

import (
	"testing"
	"unsafe"
)

// lines returns the cache lines [p, p+size) touches.
func lines(p unsafe.Pointer, size uintptr) (first, last uintptr) {
	return uintptr(p) / Size, (uintptr(p) + size - 1) / Size
}

// checkDisjoint fails when two of the ranges touch one line.
func checkDisjoint(t *testing.T, what string, ptrs []unsafe.Pointer, size uintptr) {
	t.Helper()
	seen := map[uintptr]int{}
	for i, p := range ptrs {
		first, last := lines(p, size)
		for l := first; l <= last; l++ {
			if j, dup := seen[l]; dup {
				t.Fatalf("%s: allocations %d and %d share line %#x", what, j, i, l*Size)
			}
			seen[l] = i
		}
	}
}

func TestNewSharesNoLine(t *testing.T) {
	// Small objects made one after another are what the allocator packs
	// side by side: 16 of them fit one line without the slack.
	type counters struct{ a, b uint32 }
	ptrs := make([]unsafe.Pointer, 64)
	for i := range ptrs {
		c := New[counters]()
		if *c != (counters{}) {
			t.Fatalf("New returned a non-zero value %+v", *c)
		}
		c.a = uint32(i)
		ptrs[i] = unsafe.Pointer(c)
	}
	checkDisjoint(t, "New[counters]", ptrs, unsafe.Sizeof(counters{}))

	type wide struct{ v [100]byte }
	for i := range ptrs {
		ptrs[i] = unsafe.Pointer(New[wide]())
	}
	checkDisjoint(t, "New[wide]", ptrs, unsafe.Sizeof(wide{}))
}

// checkMake makes 64 slices of n Ts one after another and fails when two
// share a line or one has the wrong length or capacity.
func checkMake[T any](t *testing.T, name string, n int) {
	t.Helper()
	ptrs := make([]unsafe.Pointer, 64)
	for i := range ptrs {
		s := Make[T](n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("Make[%s](%d) has len %d cap %d", name, n, len(s), cap(s))
		}
		ptrs[i] = unsafe.Pointer(unsafe.SliceData(s))
	}
	var zero T
	checkDisjoint(t, "Make["+name+"]", ptrs, uintptr(n)*unsafe.Sizeof(zero))
}

func TestMakeSharesNoLine(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10} {
		checkMake[bool](t, "bool", n)
		checkMake[uint64](t, "uint64", n)
		checkMake[[]uint64](t, "[]uint64", n)
		checkMake[[100]byte](t, "[100]byte", n)
	}
	for _, v := range Make[int64](7) {
		if v != 0 {
			t.Fatalf("Make returned a non-zero element %d", v)
		}
	}
	if s := Make[struct{}](5); len(s) != 5 || cap(s) != 5 {
		t.Fatalf("Make[struct{}](5) has len %d cap %d", len(s), cap(s))
	}
}
