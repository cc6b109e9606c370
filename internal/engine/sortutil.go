package engine

import (
	"errors"
	"slices"
	"strings"
)

// CompareRows orders rows canonically: cell by cell, each cell byte-wise,
// a row that is a prefix of another first: slices.Compare's order, with
// one strings.Compare a cell where slices.Compare's cmp.Compare may make two.
// Only equal rows compare equal, so every arrangement of one multiset
// sorts to the same slice. A keyed completion's rows — one unique key
// cell, then values — are in this order when their key cells are sorted
// byte-wise, so a completion that walks its dictionary's rank order needs
// no sort.
func CompareRows(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if c := strings.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// sortRows puts rows into the canonical result order (see Result.Sort),
// in place and without allocating.
func sortRows(rows [][]string) { slices.SortFunc(rows, CompareRows) }

// sameRow reports whether a and b are the same []string — one backing
// array, one length — which a standing result's rows stay while their
// values do.
func sameRow(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// DiffRows returns the change set that turns from into to, both in
// canonical order: the rows from loses and the rows to gains, in canonical
// order, duplicates counted. The walk is linear; a row that is the same
// []string on both sides is passed over without a comparison.
func DiffRows(from, to [][]string) (removed, added [][]string) {
	i, j := 0, 0
	for i < len(from) && j < len(to) {
		if sameRow(from[i], to[j]) {
			i, j = i+1, j+1
			continue
		}
		switch c := CompareRows(from[i], to[j]); {
		case c == 0:
			i, j = i+1, j+1
		case c < 0:
			removed = append(removed, from[i])
			i++
		default:
			added = append(added, to[j])
			j++
		}
	}
	removed = append(removed, from[i:]...)
	added = append(added, to[j:]...)
	return removed, added
}

// ErrChangeSet rejects a change set that does not apply to its base.
var ErrChangeSet = errors.New("engine: change set does not apply to its base")

// MergeRows applies a change set to base, all three in canonical order:
// the result is base without removed (each must be in base) and with
// added, in canonical order, in a new slice that shares base's rows. The
// change is searched for, not walked to, so a small change to a large base
// costs its own rows' binary searches and one copy of the base's row
// pointers.
func MergeRows(base, removed, added [][]string) ([][]string, error) {
	if len(removed) > len(base) {
		return nil, ErrChangeSet
	}
	out := make([][]string, 0, len(base)-len(removed)+len(added))
	pos, i, j := 0, 0, 0
	var last []string
	for i < len(removed) || j < len(added) {
		// The next change in canonical order, a removal first on a tie.
		remove := j == len(added) || i < len(removed) && CompareRows(removed[i], added[j]) <= 0
		var row []string
		if remove {
			row = removed[i]
		} else {
			row = added[j]
		}
		if (i > 0 || j > 0) && CompareRows(last, row) > 0 {
			return nil, ErrChangeSet
		}
		last = row
		rest := base[pos:]
		if remove {
			at, found := slices.BinarySearchFunc(rest, row, CompareRows)
			if !found {
				return nil, ErrChangeSet
			}
			out = append(out, rest[:at]...)
			pos += at + 1
			i++
			continue
		}
		at, _ := slices.BinarySearchFunc(rest, row, after)
		out = append(append(out, rest[:at]...), row)
		pos += at
		j++
	}
	return append(out, base[pos:]...), nil
}

// after compares a row with a target as if the target sorted after its
// equals, so that a binary search for the target lands past their run.
func after(row, target []string) int {
	if CompareRows(row, target) <= 0 {
		return -1
	}
	return 1
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
