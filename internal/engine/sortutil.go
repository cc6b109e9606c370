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
// in place and without allocating unless a cell contains NUL. It reports
// whether one did, i.e. whether the order is the joined-key one.
func sortRows(rows [][]string) (keyed bool) {
	for _, row := range rows {
		for _, cell := range row {
			if strings.IndexByte(cell, 0) >= 0 {
				keys := make([]string, len(rows))
				for i, r := range rows {
					keys[i] = strings.Join(r, "\x00")
				}
				sort.Sort(keyedRows{keys, rows})
				return true
			}
		}
	}
	slices.SortFunc(rows, compareRows)
	return false
}

// mergeSortedRows k-way merges runs that are each in compareRows order
// into one slice in that order, consuming runs; rows that compare equal
// keep their runs' order. One run merges to itself. The head scan is
// linear in the number of runs — a switch count, so a handful.
func mergeSortedRows(runs [][][]string) [][]string {
	if len(runs) == 1 {
		return runs[0]
	}
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	out := make([][]string, 0, total)
	for len(out) < total {
		best := -1
		for i, run := range runs {
			if len(run) > 0 && (best < 0 || compareRows(run[0], runs[best][0]) < 0) {
				best = i
			}
		}
		out = append(out, runs[best][0])
		runs[best] = runs[best][1:]
	}
	return out
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
// order of sort.Strings, and Result.Sort's for single-column rows.
func radixSortStrings(cells []string) { new(radixSorter).sort(cells, nil) }

// radixMinSize is the segment size below which comparison sort wins.
const radixMinSize = 48

// radixSorter sorts strings byte-wise lexicographically by MSD radix
// bucketing; it is the sort's scratch memory, reusable across calls.
// Result sets routinely share long prefixes (generated keys, formatted
// integers), where comparison sorts pay O(prefix) per comparison; here a
// level whose strings all continue with the same byte measures the
// segment's whole common prefix once and skips it in one step, instead
// of re-counting the segment once per shared byte.
type radixSorter struct {
	keys []string
	idx  []int32
}

// sort sorts keys. A non-nil idx is a payload moved in lock-step with
// them: rows whose first cell is a unique key are sorted by sorting (key,
// row index) pairs on the key alone.
func (rs *radixSorter) sort(keys []string, idx []int32) {
	n := len(keys)
	if n < radixMinSize {
		insertionSortSuffix(keys, idx, 0)
		return
	}
	if cap(rs.keys) < n {
		rs.keys, rs.idx = make([]string, n), make([]int32, n)
	}
	type frame struct{ lo, hi, depth int }
	var buf [64]frame
	stack := append(buf[:0], frame{0, n, 0})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		seg := keys[f.lo:f.hi]
		var iseg []int32
		if idx != nil {
			iseg = idx[f.lo:f.hi]
		}
		if len(seg) < radixMinSize {
			insertionSortSuffix(seg, iseg, f.depth)
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
		if s0 := seg[0]; len(s0) > f.depth && counts[int(s0[f.depth])+1] == len(seg) {
			// One bucket: every string continues with the same byte.
			d := f.depth + 1
			stack = append(stack, frame{f.lo, f.hi, d + commonPrefix(seg, d)})
			continue
		}
		var offsets [257]int
		sum := 0
		for b := 0; b < 257; b++ {
			offsets[b] = sum
			sum += counts[b]
		}
		for j, s := range seg {
			b := 0
			if len(s) > f.depth {
				b = int(s[f.depth]) + 1
			}
			rs.keys[offsets[b]] = s
			if iseg != nil {
				rs.idx[offsets[b]] = iseg[j]
			}
			offsets[b]++
		}
		copy(seg, rs.keys)
		copy(iseg, rs.idx)
		// Recurse into buckets with ≥ 2 strings (bucket 0 is all-equal).
		pos := f.lo + counts[0]
		for b := 1; b < 257; b++ {
			if counts[b] > 1 {
				stack = append(stack, frame{pos, pos + counts[b], f.depth + 1})
			}
			pos += counts[b]
		}
	}
	clear(rs.keys[:n]) // pooled scratch must not pin the caller's strings
}

// commonPrefix returns how many bytes from depth on every string of seg
// shares; all of them are at least depth long.
func commonPrefix(seg []string, depth int) int {
	first := seg[0][depth:]
	n := len(first)
	for _, s := range seg[1:] {
		s = s[depth:]
		if len(s) < n {
			n = len(s)
		}
		for i := 0; i < n; i++ {
			if s[i] != first[i] {
				n = i
				break
			}
		}
		if n == 0 {
			break
		}
	}
	return n
}

// insertionSortSuffix sorts a small segment whose strings agree on the
// first depth bytes, comparing only the suffixes so the shared prefix is
// not re-scanned on every compare; iseg, when non-nil, moves with it.
// Allocation-free.
func insertionSortSuffix(seg []string, iseg []int32, depth int) {
	for i := 1; i < len(seg); i++ {
		s := seg[i]
		suf := s[depth:]
		j := i - 1
		for j >= 0 && seg[j][depth:] > suf {
			seg[j+1] = seg[j]
			j--
		}
		seg[j+1] = s
		if iseg != nil {
			v := iseg[i]
			copy(iseg[j+2:i+1], iseg[j+1:i])
			iseg[j+1] = v
		}
	}
}
