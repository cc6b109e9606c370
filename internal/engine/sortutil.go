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
