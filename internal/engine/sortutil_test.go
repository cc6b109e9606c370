package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cheetah/internal/radix"
	"cheetah/internal/table"
)

// legacySortKeys is the canonical order's definition: rows compared cell
// by cell, each cell byte-wise, a prefix first (slices.Compare), in
// ascending order. Only equal rows compare equal, so the sorted rows are
// one sequence.
func legacySortKeys(rows [][]string) [][]string {
	sorted := slices.Clone(rows)
	slices.SortFunc(sorted, slices.Compare[[]string])
	return sorted
}

// checkCanonicalSort sorts a copy of rows with Result.Sort and checks
// the outcome against the definition.
func checkCanonicalSort(t *testing.T, rows [][]string) {
	t.Helper()
	res := &Result{Rows: append([][]string(nil), rows...)}
	res.Sort()
	checkCanonicalOrder(t, "Result.Sort", res.Rows, rows)
}

// checkCanonicalOrder checks that got is rows in the definition's order.
func checkCanonicalOrder(t *testing.T, how string, got, rows [][]string) {
	t.Helper()
	if len(got) != len(rows) {
		t.Fatalf("%s: %d rows became %d", how, len(rows), len(got))
	}
	for i, want := range legacySortKeys(rows) {
		if !slices.Equal(got[i], want) {
			t.Fatalf("%s: row %d: %q, the canonical order has %q", how, i, got[i], want)
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

// FuzzResultSortOrder pins the canonical order on generated rows — NUL
// cells, empty cells, ragged rows, long shared prefixes, one to three
// columns: Result.Sort against slices.Compare's order (and one
// arrangement of the rows against another).
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
		rev := slices.Clone(rows)
		slices.Reverse(rev)
		sortRows(rev)
		sorted := slices.Clone(rows)
		sortRows(sorted)
		if !slices.EqualFunc(sorted, rev, slices.Equal[[]string]) {
			t.Fatalf("one multiset sorts two ways:\n%q\n%q", sorted, rev)
		}
	})
}

// checkChangeSet diffs a against b, both in canonical order, and merges
// the change back into a: both change lists must be canonical, their
// sizes must add up, and the merge must give b exactly.
func checkChangeSet(t *testing.T, a, b [][]string) {
	t.Helper()
	removed, added := DiffRows(a, b)
	if !slices.IsSortedFunc(removed, CompareRows) || !slices.IsSortedFunc(added, CompareRows) {
		t.Fatalf("the diff of %q into %q is out of order: -%q +%q", a, b, removed, added)
	}
	if len(a)-len(removed)+len(added) != len(b) {
		t.Fatalf("the diff of %q into %q: -%d +%d rows", a, b, len(removed), len(added))
	}
	got, err := MergeRows(a, removed, added)
	if err != nil {
		t.Fatalf("merging the diff of %q into %q: %v", a, b, err)
	}
	if !slices.EqualFunc(got, b, slices.Equal[[]string]) {
		t.Fatalf("%q merged with its diff to %q gives %q", a, b, got)
	}
}

// FuzzRowsChangeSet pins the change sets a subscription's updates carry
// and its standing mergers apply: for a and b in canonical order — NUL
// and empty cells, duplicates, rows shared by both as the same []string,
// which the diff passes over by identity — merging a with DiffRows(a, b)
// gives b, and the other way round.
func FuzzRowsChangeSet(f *testing.F) {
	f.Add([]byte("b,a;a,b;a,a"), []byte("a,a;c,d"), uint8(2), uint8(0), uint8(3))
	f.Add([]byte("a\x00,b;a,\x00b;a;a\x00"), []byte("a\x00b;a;;"), uint8(0), uint8(0), uint8(5))
	f.Add([]byte("x;x;x;y"), []byte("x;y;y"), uint8(0), uint8(20), uint8(1))
	f.Add([]byte(""), []byte("k,1;k,1;k\x00,1"), uint8(1), uint8(0), uint8(7))
	f.Fuzz(func(t *testing.T, da, db []byte, width, prefix, keep uint8) {
		if len(da)+len(db) > 1<<12 {
			return
		}
		p := strings.Repeat("p", int(prefix%64))
		a := fuzzRows(da, width, false, p)
		sortRows(a)
		// b keeps some of a's rows and adds its own.
		var b [][]string
		for i, row := range a {
			if (i+int(keep))%3 != 0 {
				b = append(b, row)
			}
		}
		b = append(b, fuzzRows(db, width, false, p)...)
		sortRows(b)
		checkChangeSet(t, a, b)
		checkChangeSet(t, b, a)
	})
}

// TestMergeRowsRejects: a change set that removes a row its base lacks,
// removes more rows than the base holds, or lists rows out of canonical
// order does not apply.
func TestMergeRowsRejects(t *testing.T) {
	base := [][]string{{"a"}, {"b"}, {"c"}}
	for _, c := range []struct {
		name           string
		removed, added [][]string
	}{
		{"absent", [][]string{{"bb"}}, nil},
		{"twice", [][]string{{"b"}, {"b"}}, nil},
		{"more than the base", [][]string{{"a"}, {"b"}, {"c"}, {"d"}}, nil},
		{"removed out of order", [][]string{{"c"}, {"a"}}, nil},
		{"added out of order", nil, [][]string{{"d"}, {"0"}}},
	} {
		if _, err := MergeRows(base, c.removed, c.added); !errors.Is(err, ErrChangeSet) {
			t.Errorf("%s: MergeRows answered %v, want ErrChangeSet", c.name, err)
		}
	}
}

// checkRankedOrder puts the keys of a one-key-column table holding cells
// (unique, all of one type) in order the ways a partial does — the key
// dictionary's order, and the GROUP BY completions that walk it
// (completeRanked) or radix-sort the cells (render), neither sorting rows
// — and checks each against the canonical order, on the rendered cells.
func checkRankedOrder(t *testing.T, typ table.Type, cells []any) {
	t.Helper()
	tb := table.MustNew(table.Schema{{Name: "key", Type: typ}, {Name: "val", Type: table.Int64}})
	rows := make([][]string, len(cells))
	for i, c := range cells {
		v := int64(i*7 - 3)
		if err := tb.AppendRow(c, v); err != nil {
			t.Fatal(err)
		}
		rows[i] = []string{cellString(tb, 0, i), strconv.FormatInt(v, 10)}
	}
	q := &Query{Kind: KindGroupByMax, Table: tb, KeyCol: "key", AggCol: "val"}
	p := newPartial(q)
	defer p.release()
	absorbAll(q, p, 5)
	want := make([]string, len(rows))
	for i, r := range rows {
		want[i] = r[0]
	}
	sort.Strings(want)
	order := p.dict.Order()
	if len(order) != len(want) {
		t.Fatalf("%v keys: the dictionary orders %d ids, the table holds %d keys", typ, len(order), len(want))
	}
	for i, id := range order {
		if got := p.dict.Cell(id); got != want[i] {
			t.Fatalf("%v keys: rank %d is %q, the rendered order has %q", typ, i, got, want[i])
		}
	}
	ranked, err := completeRanked(q, []*partial{p})
	if err != nil {
		t.Fatal(err)
	}
	checkCanonicalOrder(t, fmt.Sprintf("%v ranked GROUP BY completion", typ), ranked.Rows, rows)
	checkCanonicalOrder(t, fmt.Sprintf("%v GROUP BY render", typ), p.render(q).Rows, rows)
}

// FuzzKeySortOrder pins the key-only order GROUP BY results are built
// in to the canonical order on generated rows of a unique key and one or
// two value cells: NUL in keys and values, the empty key, keys that are
// prefixes of one another, long shared prefixes. Both ways a partial
// orders keys are driven, and neither may need a sort of its rows: the
// radix sort of the keys with their row indices, and the key dictionary's
// ranks (checkRankedOrder) — over the keys as strings, and over integers
// derived from them, whose rendered order is not their numeric one,
// math.MinInt64 included.
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
		new(radix.Sorter).Sort(keys, idx)
		got := make([][]string, len(rows))
		for i, j := range idx {
			if rows[j][0] != keys[i] {
				t.Fatalf("index %d sits beside key %q, belongs to %q", j, keys[i], rows[j][0])
			}
			got[i] = rows[j]
		}
		checkCanonicalOrder(t, "radix-sorted keys", got, rows)
		strs := make([]any, len(rows))
		ints := []any{}
		seenInt := map[int64]bool{}
		for i, row := range rows {
			strs[i] = row[0]
			// An integer per key: the bytes folded in, signed, every
			// digit count reached; the empty key stands for the extreme.
			v := int64(math.MinInt64)
			if row[0] != "" {
				v = 0
				for _, b := range []byte(row[0]) {
					v = v*131 + int64(b) - 96
				}
			}
			if !seenInt[v] {
				seenInt[v] = true
				ints = append(ints, v)
			}
		}
		checkRankedOrder(t, table.String, strs)
		checkRankedOrder(t, table.Int64, ints)
	})
}
