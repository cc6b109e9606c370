package radix

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func checkSorted(t *testing.T, name string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: index %d: %q vs %q", name, i, got[i], want[i])
		}
	}
}

// TestSortMatchesSortStrings: Strings, and Sort with a payload moved in
// lock-step, order every input shape like sort.Strings — random bytes,
// shared prefixes, numerals, duplicates, strings that are prefixes of one
// another — at sizes on both sides of MinSize.
func TestSortMatchesSortStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string]func(n int) []string{
		"random": func(n int) []string {
			out := make([]string, n)
			for i := range out {
				b := make([]byte, rng.Intn(20))
				for j := range b {
					b[j] = byte(rng.Intn(256))
				}
				out[i] = string(b)
			}
			return out
		},
		"shared-prefix": func(n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = fmt.Sprintf("agent/%06d (Cheetah; rv:%d)", rng.Intn(n), i%7)
			}
			return out
		},
		"numeric": func(n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = fmt.Sprintf("%d", rng.Int63n(1<<40))
			}
			return out
		},
		"duplicates": func(n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = fmt.Sprintf("key-%02d", rng.Intn(10))
			}
			return out
		},
		"prefix-of-each-other": func(n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = "aaaaaaaaaa"[:rng.Intn(11)]
			}
			return out
		},
	}
	for name, gen := range cases {
		for _, n := range []int{0, 1, 5, 47, 48, 500, 5000} {
			in := gen(n)
			want := append([]string(nil), in...)
			sort.Strings(want)
			got := append([]string(nil), in...)
			Strings(got)
			checkSorted(t, fmt.Sprintf("%s/%d", name, n), got, want)
			// With a payload: the same order, every index still beside
			// its string.
			keyed := append([]string(nil), in...)
			idx := make([]int32, n)
			for i := range idx {
				idx[i] = int32(i)
			}
			new(Sorter).Sort(keyed, idx)
			checkSorted(t, fmt.Sprintf("%s/%d keyed", name, n), keyed, want)
			for i, j := range idx {
				if in[j] != keyed[i] {
					t.Fatalf("%s/%d: payload %d sits beside %q, belongs to %q", name, n, j, keyed[i], in[j])
				}
			}
		}
	}
}
