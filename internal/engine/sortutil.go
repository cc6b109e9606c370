package engine

import (
	"slices"
	"sort"
	"strings"
)

// compareRows orders rows cell by cell, a shorter row first when one is
// a prefix of the other. While no cell contains NUL that is exactly the
// order of the "\x00"-joined row keys (a cell that is a proper prefix of
// its counterpart meets the separator or the key's end, and both sort
// below any cell byte), so Result.Sort uses it without building a key
// per comparison.
func compareRows(a, b []string) int {
	for k := 0; k < len(a) && k < len(b); k++ {
		if c := strings.Compare(a[k], b[k]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// keyedRows sorts rows by their precomputed "\x00"-joined keys — the
// canonical order spelled out, for results where a cell contains the
// separator and cell-wise comparison can disagree with it.
type keyedRows struct {
	keys []string
	rows [][]string
}

func (k keyedRows) Len() int           { return len(k.rows) }
func (k keyedRows) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k keyedRows) Swap(i, j int) {
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
	k.rows[i], k.rows[j] = k.rows[j], k.rows[i]
}

// sortRows puts rows into the canonical result order (see Result.Sort),
// in place and without allocating unless a cell contains NUL.
func sortRows(rows [][]string) {
	for _, row := range rows {
		for _, cell := range row {
			if strings.IndexByte(cell, 0) >= 0 {
				keys := make([]string, len(rows))
				for i, r := range rows {
					keys[i] = strings.Join(r, "\x00")
				}
				sort.Sort(keyedRows{keys, rows})
				return
			}
		}
	}
	slices.SortFunc(rows, compareRows)
}

// singleCellRows wraps already-sorted cell values as single-column
// result rows backed by one allocation.
func singleCellRows(cells []string) [][]string {
	rows := make([][]string, len(cells))
	for i := range cells {
		rows[i] = cells[i : i+1 : i+1]
	}
	return rows
}

// radixSortStrings sorts cells byte-wise lexicographically — the exact
// order of sort.Strings, and Result.Sort's for single-column rows — using
// MSD radix bucketing. Result sets routinely share long prefixes
// (generated keys, formatted integers), where comparison sorts pay
// O(prefix) per comparison; the radix pass walks each prefix byte once
// per level instead.
func radixSortStrings(cells []string) {
	if len(cells) < radixMinSize {
		sort.Strings(cells)
		return
	}
	scratch := make([]string, len(cells))
	radixSortRange(cells, scratch, 0)
}

// radixMinSize is the bucket size below which comparison sort wins.
const radixMinSize = 48

type radixFrame struct {
	lo, hi, depth int
}

// insertionSortSuffix sorts a small segment whose strings agree on the
// first depth bytes, comparing only the suffixes so the shared prefix is
// not re-scanned on every compare. Allocation-free.
func insertionSortSuffix(seg []string, depth int) {
	for i := 1; i < len(seg); i++ {
		s := seg[i]
		suf := s[depth:]
		j := i - 1
		for j >= 0 && seg[j][depth:] > suf {
			seg[j+1] = seg[j]
			j--
		}
		seg[j+1] = s
	}
}

func radixSortRange(cells, scratch []string, depth int) {
	stack := []radixFrame{{0, len(cells), depth}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		seg := cells[f.lo:f.hi]
		if len(seg) < radixMinSize {
			insertionSortSuffix(seg, f.depth)
			continue
		}
		// Bucket 0 holds strings that end at this depth; bucket b+1
		// holds byte value b.
		var counts [257]int
		for _, s := range seg {
			if len(s) <= f.depth {
				counts[0]++
			} else {
				counts[int(s[f.depth])+1]++
			}
		}
		if counts[0] == len(seg) {
			continue // all strings end here: segment is all-equal
		}
		// Single-bucket level (a shared prefix byte): descend one byte
		// without scattering.
		single := -1
		for b, c := range counts {
			if c == 0 {
				continue
			}
			if c == len(seg) {
				single = b
			}
			break
		}
		if single > 0 {
			stack = append(stack, radixFrame{f.lo, f.hi, f.depth + 1})
			continue
		}
		var offsets [257]int
		sum := 0
		for b := 0; b < 257; b++ {
			offsets[b] = sum
			sum += counts[b]
		}
		sub := scratch[:len(seg)]
		for _, s := range seg {
			b := 0
			if len(s) > f.depth {
				b = int(s[f.depth]) + 1
			}
			sub[offsets[b]] = s
			offsets[b]++
		}
		copy(seg, sub)
		// Recurse into buckets with ≥ 2 strings (bucket 0 is all-equal).
		pos := f.lo + counts[0]
		for b := 1; b < 257; b++ {
			if counts[b] > 1 {
				stack = append(stack, radixFrame{pos, pos + counts[b], f.depth + 1})
			}
			pos += counts[b]
		}
	}
}
