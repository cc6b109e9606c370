package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
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

func TestRadixSortStringsMatchesSortStrings(t *testing.T) {
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
			radixSortStrings(got)
			checkSorted(t, fmt.Sprintf("%s/%d", name, n), got, want)
			// With a payload: the same order, every index still beside
			// its string.
			keyed := append([]string(nil), in...)
			idx := make([]int32, n)
			for i := range idx {
				idx[i] = int32(i)
			}
			new(radixSorter).sort(keyed, idx)
			checkSorted(t, fmt.Sprintf("%s/%d keyed", name, n), keyed, want)
			for i, j := range idx {
				if in[j] != keyed[i] {
					t.Fatalf("%s/%d: payload %d sits beside %q, belongs to %q", name, n, j, keyed[i], in[j])
				}
			}
		}
	}
}

// legacySortKeys is the canonical order's definition: the row keys —
// cells joined with "\x00" — in ascending order. Rows with equal keys
// (possible only with a NUL inside a cell, or between an empty row and
// a row of one empty cell) may come out in either order, so two sorts
// agree when their key sequences do.
func legacySortKeys(rows [][]string) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = strings.Join(r, "\x00")
	}
	sort.Strings(keys)
	return keys
}

// checkCanonicalSort sorts a copy of rows with Result.Sort and checks
// the outcome against the legacy definition.
func checkCanonicalSort(t *testing.T, rows [][]string) {
	t.Helper()
	res := &Result{Rows: append([][]string(nil), rows...)}
	res.Sort()
	checkCanonicalOrder(t, "Result.Sort", res.Rows, rows)
}

// checkCanonicalOrder checks that got is rows in the legacy definition's
// order: same key sequence, same multiset of rows.
func checkCanonicalOrder(t *testing.T, how string, got, rows [][]string) {
	t.Helper()
	if len(got) != len(rows) {
		t.Fatalf("%s: %d rows became %d", how, len(rows), len(got))
	}
	want := legacySortKeys(rows)
	left := map[string]int{}
	for _, r := range rows {
		left[fmt.Sprintf("%q", r)]++
	}
	for i, r := range got {
		if key := strings.Join(r, "\x00"); key != want[i] {
			t.Fatalf("%s: row %d: key %q, legacy order has %q", how, i, key, want[i])
		}
		left[fmt.Sprintf("%q", r)]--
	}
	for r, n := range left {
		if n != 0 {
			t.Fatalf("%s: row %s: count off by %d", how, r, n)
		}
	}
}

func TestLexRowsMatchesResultSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, width := range []int{1, 2, 3} {
		for _, n := range []int{0, 1, 2, 47, 48, 300} {
			rows := make([][]string, n)
			for i := range rows {
				row := make([]string, width)
				for c := range row {
					row[c] = fmt.Sprintf("v%02d", rng.Intn(12))
				}
				rows[i] = row
			}
			checkCanonicalSort(t, rows)
		}
	}
}

// fuzzRows decodes fuzz input into result rows: ';' ends a row and ','
// a cell; every cell gets prefix prepended (a long shared prefix makes
// every comparison reach the cells' tails). Unless ragged, the cells are
// re-dealt into rows of width cells.
func fuzzRows(data []byte, width uint8, ragged bool, prefix string) [][]string {
	var rows [][]string
	var flat []string
	for _, line := range strings.Split(string(data), ";") {
		var row []string
		for _, cell := range strings.Split(line, ",") {
			row = append(row, prefix+cell)
		}
		rows = append(rows, row)
		flat = append(flat, row...)
	}
	if ragged {
		return rows
	}
	w := int(width%3) + 1
	rows = rows[:0]
	for ; len(flat) >= w; flat = flat[w:] {
		rows = append(rows, flat[:w:w])
	}
	return rows
}

// checkRunsMerge deals rows into k runs, sorts each the way a JOIN pass
// sorts its part and merges them the way joinResult does — cell-wise k-way
// merge, the whole-result sort when a run met a NUL cell — and checks the
// outcome against the legacy definition like checkCanonicalSort: the merge
// of sorted runs is Result.Sort of their concatenation.
func checkRunsMerge(t *testing.T, rows [][]string, k int) {
	t.Helper()
	runs := make([][][]string, k)
	for i, r := range rows {
		runs[i%k] = append(runs[i%k], r)
	}
	parts := make([]joinPart, k)
	for i, run := range runs {
		parts[i] = sortedJoinPart(run)
	}
	checkCanonicalOrder(t, fmt.Sprintf("merge of %d runs", k), joinResult(&Query{LeftKey: "k"}, parts).Rows, rows)
}

// sortOrderSeeds are FuzzResultSortOrder's corpus shapes: plain cells, NUL
// cells against their prefixes, empty and ragged rows, numeric cells of
// unequal length behind a long shared prefix, rows one cell short.
var sortOrderSeeds = []struct {
	data   []byte
	width  uint8
	ragged bool
	prefix uint8
}{
	{[]byte("b,a;a,b;a,a"), 1, false, 0},
	{[]byte("a\x00,b;a,\x00b;a;a\x00"), 1, true, 0},
	{[]byte(",;;,a;a,;"), 0, true, 0},
	{[]byte("3,1,2,10,1,,02"), 0, false, 40},
	{[]byte("k1,7;k0,9;k1,3;k0"), 2, true, 17},
	{[]byte("a,1;a\x00,1;a\x00b,1;ab,1;,1;b,1;\x00,1"), 1, false, 0},
}

// TestSortedRunsMergeMatchesResultSort: over the fuzz corpus's shapes and
// over JOIN-shaped rows (unique key, count), the k-way merge of sorted
// runs is Result.Sort of the concatenation, at every run count — one run
// and more runs than rows included.
func TestSortedRunsMergeMatchesResultSort(t *testing.T) {
	shapes := make([][][]string, 0, len(sortOrderSeeds)+1)
	for _, s := range sortOrderSeeds {
		shapes = append(shapes, fuzzRows(s.data, s.width, s.ragged, strings.Repeat("p", int(s.prefix%64))))
	}
	rng := rand.New(rand.NewSource(21))
	joined := make([][]string, 500)
	for i := range joined {
		joined[i] = []string{fmt.Sprintf("user%04d", rng.Intn(1<<20)), fmt.Sprint(rng.Intn(300))}
	}
	shapes = append(shapes, joined, nil)
	for _, rows := range shapes {
		for _, k := range []int{1, 2, 3, 4, 7, 16} {
			checkRunsMerge(t, rows, k)
		}
	}
}

// FuzzResultSortOrder pins Result.Sort — cell-wise comparison and the
// NUL-cell fallback — to the legacy definition of the canonical order
// on generated rows: NUL cells, empty cells, ragged rows, long shared
// prefixes, one to three columns. The same rows, dealt into sorted runs
// and merged (checkRunsMerge), must land in that order too.
func FuzzResultSortOrder(f *testing.F) {
	for _, s := range sortOrderSeeds {
		f.Add(s.data, s.width, s.ragged, s.prefix)
	}
	f.Fuzz(func(t *testing.T, data []byte, width uint8, ragged bool, prefix uint8) {
		if len(data) > 1<<12 {
			return
		}
		rows := fuzzRows(data, width, ragged, strings.Repeat("p", int(prefix%64)))
		checkCanonicalSort(t, rows)
		checkRunsMerge(t, rows, 2+int(width>>2)%6)
	})
}

// FuzzKeySortOrder pins the key-only order GROUP BY results are built
// in (partial.renderKeyed: radix sort of the unique keys with their row
// indices, keyOrderExact, Result.Sort when that says no) to Result.Sort
// on generated rows of a unique key and one or two value cells: NUL in
// keys and values, the empty key, keys that are prefixes of one another,
// long shared prefixes.
func FuzzKeySortOrder(f *testing.F) {
	f.Add([]byte("b,1;a,2;ab,3;,4"), uint8(0), uint8(0))
	f.Add([]byte("a,z;a\x00,y;a\x00b,x;\x00,w"), uint8(0), uint8(0))
	f.Add([]byte("a,\x00b,c;a\x00,b,c;ab,,\x00"), uint8(1), uint8(0))
	f.Add([]byte("0007,4;0003,1;0010,1;0001,1;00,5;000,6"), uint8(0), uint8(47))
	f.Fuzz(func(t *testing.T, data []byte, values uint8, prefix uint8) {
		if len(data) > 1<<12 {
			return
		}
		// fuzzRows deals rows of width%3+1 cells: two or three here.
		var rows [][]string
		seen := map[string]bool{}
		for _, row := range fuzzRows(data, 1+values%2, false, strings.Repeat("p", int(prefix%64))) {
			if !seen[row[0]] {
				seen[row[0]] = true
				rows = append(rows, row)
			}
		}
		keys := make([]string, len(rows))
		idx := make([]int32, len(rows))
		for i, row := range rows {
			keys[i], idx[i] = row[0], int32(i)
		}
		new(radixSorter).sort(keys, idx)
		got := &Result{Rows: make([][]string, len(rows))}
		for i, j := range idx {
			if rows[j][0] != keys[i] {
				t.Fatalf("index %d sits beside key %q, belongs to %q", j, keys[i], rows[j][0])
			}
			got.Rows[i] = rows[j]
		}
		if !keyOrderExact(keys) {
			got.Sort()
		}
		for i, want := range legacySortKeys(rows) {
			if key := strings.Join(got.Rows[i], "\x00"); key != want {
				t.Fatalf("row %d: key %q, legacy order has %q", i, key, want)
			}
		}
	})
}
