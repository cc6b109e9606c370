package engine

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"cheetah/internal/radix"
	"cheetah/internal/table"
)

// ExecDirect runs the query exactly on a single node — the ground truth
// both execution paths must reproduce.
func ExecDirect(q *Query) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	var right []int
	if q.Kind == KindJoin {
		right = allRows(q.Right)
	}
	return execRows(q, allRows(q.Table), right)
}

// execRows is the direct executor restricted to rows of q.Table (and, for
// a JOIN, right of q.Right): ExecDirect over every row, and the master's
// completion over the rows the switch forwarded (completeSurvivors, and
// the tests' scalar reference).
func execRows(q *Query, rows, right []int) (*Result, error) {
	switch q.Kind {
	case KindFilter:
		return execFilter(q, q.Table, rows)
	case KindDistinct:
		return execDistinct(q, q.Table, rows)
	case KindTopN:
		return execTopN(q, q.Table, rows)
	case KindGroupByMax:
		return execGroupByMax(q, q.Table, rows)
	case KindGroupBySum:
		return execGroupBySum(q, q.Table, rows)
	case KindHaving:
		return execHaving(q, q.Table, rows)
	case KindJoin:
		return execJoin(q, rows, right)
	case KindSkyline:
		return execSkyline(q, q.Table, rows)
	default:
		return nil, fmt.Errorf("engine: unknown kind %v", q.Kind)
	}
}

// allRows returns the identity row-index list for t.
func allRows(t *table.Table) []int {
	rows := make([]int, t.NumRows())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// cellString renders one cell canonically.
func cellString(t *table.Table, col, row int) string {
	if t.Schema()[col].Type == table.Int64 {
		return strconv.FormatInt(t.Int64At(col, row), 10)
	}
	return t.StringAt(col, row)
}

// execFilter returns the rows of t (restricted to rows) matching the
// formula, projected to all columns — or the match count for CountOnly.
func execFilter(q *Query, t *table.Table, rows []int) (*Result, error) {
	cols := make([]int, len(q.Predicates))
	for i, p := range q.Predicates {
		cols[i] = t.Schema().MustIndex(p.Col)
	}
	count := 0
	var matched []int
	for _, r := range rows {
		ok := q.Formula.Eval(func(v int) bool {
			return q.Predicates[v].Eval(t, cols[v], r)
		})
		if !ok {
			continue
		}
		count++
		if !q.CountOnly {
			matched = append(matched, r)
		}
	}
	return filterResult(q, count, appendFilterRows(nil, t, matched)), nil
}

// appendFilterRows renders rows of t, every column, onto out — FILTER's
// result rows for rows known to match — backed by one allocation.
func appendFilterRows(out [][]string, t *table.Table, rows []int) [][]string {
	nc := t.NumCols()
	backing := make([]string, len(rows)*nc)
	for i, r := range rows {
		row := backing[i*nc : (i+1)*nc : (i+1)*nc]
		for c := range row {
			row[c] = cellString(t, c, r)
		}
		out = append(out, row)
	}
	return out
}

// filterResult wraps FILTER's exact output as the query's result: the
// match count for CountOnly, the sorted rows otherwise.
func filterResult(q *Query, count int, rows [][]string) *Result {
	if q.CountOnly {
		return &Result{Columns: []string{"count"}, Rows: [][]string{{strconv.Itoa(count)}}}
	}
	names := make([]string, q.Table.NumCols())
	for i, d := range q.Table.Schema() {
		names[i] = d.Name
	}
	res := &Result{Columns: names, Rows: rows}
	res.Sort()
	return res
}

// execDistinct returns the distinct value tuples of the requested columns.
// A repeated tuple costs one map lookup: a single column is keyed on the
// cell itself, several on their AppendKeyCell encoding built in a reused
// buffer, and a row is allocated only the first time its key is seen.
func execDistinct(q *Query, t *table.Table, rows []int) (*Result, error) {
	cols := make([]int, len(q.DistinctCols))
	for i, c := range q.DistinctCols {
		cols[i] = t.Schema().MustIndex(c)
	}
	res := &Result{Columns: append([]string(nil), q.DistinctCols...)}
	seen := map[string]struct{}{}
	var key []byte
	for _, r := range rows {
		if len(cols) == 1 {
			cell := cellString(t, cols[0], r)
			if _, dup := seen[cell]; !dup {
				seen[cell] = struct{}{}
				res.Rows = append(res.Rows, []string{cell})
			}
			continue
		}
		key = key[:0]
		for _, c := range cols {
			key = AppendKeyCell(key, cellString(t, c, r))
		}
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		row := make([]string, len(cols))
		for i, c := range cols {
			row[i] = cellString(t, c, r)
		}
		res.Rows = append(res.Rows, row)
	}
	res.Sort()
	return res, nil
}

// AppendKeyCell appends one cell of a multi-column tuple key: its length,
// then its bytes. Two tuples share a key only when their cells are equal,
// which a separator byte cannot promise once a cell may hold that byte
// (["a\x00b", "c"] and ["a", "b\x00c"] join to the same string).
func AppendKeyCell(key []byte, cell string) []byte {
	return append(binary.AppendUvarint(key, uint64(len(cell))), cell...)
}

// int64Heap is a min-heap used by execTopN.
type int64Heap []int64

func (h int64Heap) Len() int           { return len(h) }
func (h int64Heap) Less(i, j int) bool { return h[i] < h[j] }
func (h int64Heap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *int64Heap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *int64Heap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// execTopN returns the N largest ORDER BY values (the paper's TOP N is
// served by the master with an N-sized heap, §8.3).
func execTopN(q *Query, t *table.Table, rows []int) (*Result, error) {
	col := t.Schema().MustIndex(q.OrderCol)
	h := &int64Heap{}
	heap.Init(h)
	for _, r := range rows {
		v := t.Int64At(col, r)
		if h.Len() < q.N {
			heap.Push(h, v)
		} else if v > (*h)[0] {
			(*h)[0] = v
			heap.Fix(h, 0)
		}
	}
	return TopNResult(q, *h), nil
}

// TopNResult renders the master heap's values as the sorted TOP N
// result. Only the canonical (textual) order is observable, so the
// values are formatted straight from the heap and sorted once.
func TopNResult(q *Query, vals []int64) *Result {
	cells := make([]string, len(vals))
	for i, v := range vals {
		cells[i] = strconv.FormatInt(v, 10)
	}
	radix.Strings(cells)
	return &Result{Columns: []string{q.OrderCol}, Rows: singleCellRows(cells)}
}

// execGroupByMax returns (key, MAX(val)) per key.
func execGroupByMax(q *Query, t *table.Table, rows []int) (*Result, error) {
	kc := t.Schema().MustIndex(q.KeyCol)
	vc := t.Schema().MustIndex(q.AggCol)
	best := map[string]int64{}
	for _, r := range rows {
		k := cellString(t, kc, r)
		v := t.Int64At(vc, r)
		if cur, ok := best[k]; !ok || v > cur {
			best[k] = v
		}
	}
	res := &Result{Columns: []string{q.KeyCol, "max(" + q.AggCol + ")"}}
	for k, v := range best {
		res.Rows = append(res.Rows, []string{k, strconv.FormatInt(v, 10)})
	}
	res.Sort()
	return res, nil
}

// execGroupBySum returns (key, SUM(val)) per key.
func execGroupBySum(q *Query, t *table.Table, rows []int) (*Result, error) {
	kc := t.Schema().MustIndex(q.KeyCol)
	vc := t.Schema().MustIndex(q.AggCol)
	sums := map[string]int64{}
	for _, r := range rows {
		sums[cellString(t, kc, r)] += t.Int64At(vc, r)
	}
	res := &Result{Columns: []string{q.KeyCol, "sum(" + q.AggCol + ")"}}
	for k, v := range sums {
		res.Rows = append(res.Rows, []string{k, strconv.FormatInt(v, 10)})
	}
	res.Sort()
	return res, nil
}

// execHaving returns the keys whose SUM(val) exceeds the threshold.
func execHaving(q *Query, t *table.Table, rows []int) (*Result, error) {
	kc := t.Schema().MustIndex(q.KeyCol)
	vc := t.Schema().MustIndex(q.AggCol)
	sums := map[string]int64{}
	for _, r := range rows {
		sums[cellString(t, kc, r)] += t.Int64At(vc, r)
	}
	res := &Result{Columns: []string{q.KeyCol}}
	for k, v := range sums {
		if v > q.Threshold {
			res.Rows = append(res.Rows, []string{k})
		}
	}
	res.Sort()
	return res, nil
}

// execJoin returns, per joined key, the key and the number of row pairs —
// a canonical summary of the inner-join output that stays comparable at
// benchmark scale.
func execJoin(q *Query, leftRows, rightRows []int) (*Result, error) {
	lc := q.Table.Schema().MustIndex(q.LeftKey)
	rc := q.Right.Schema().MustIndex(q.RightKey)
	leftCount := map[string]int{}
	for _, r := range leftRows {
		leftCount[cellString(q.Table, lc, r)]++
	}
	pairs := map[string]int{}
	for _, r := range rightRows {
		k := cellString(q.Right, rc, r)
		if n := leftCount[k]; n > 0 {
			pairs[k] += n
		}
	}
	res := &Result{Columns: []string{q.LeftKey, "pairs"}}
	for k, n := range pairs {
		res.Rows = append(res.Rows, []string{k, strconv.Itoa(n)})
	}
	res.Sort()
	return res, nil
}

// execSkyline returns the distinct coordinate tuples on the Pareto curve
// (all dimensions maximized).
func execSkyline(q *Query, t *table.Table, rows []int) (*Result, error) {
	cols := make([]int, len(q.SkylineCols))
	for i, c := range q.SkylineCols {
		cols[i] = t.Schema().MustIndex(c)
	}
	// Collect distinct points first: the skyline is a set of points.
	type pt struct {
		coords []int64
		sum    float64
	}
	seen := map[string]pt{}
	for _, r := range rows {
		coords := make([]int64, len(cols))
		key := ""
		sum := 0.0
		for i, c := range cols {
			coords[i] = t.Int64At(c, r)
			key += strconv.FormatInt(coords[i], 10) + "\x00"
			sum += float64(coords[i])
		}
		seen[key] = pt{coords: coords, sum: sum}
	}
	points := make([]pt, 0, len(seen))
	for _, p := range seen {
		points = append(points, p)
	}
	// Sort by descending coordinate sum so dominators come early; then an
	// O(n·s) sweep against the accepted skyline keeps it near-linear for
	// realistic data. The sums are float64, which cannot overflow at the
	// int64 extremes and still never rank a point above its dominator
	// (conversion and rounded addition are monotone); a dominator that
	// ties on the sum is first in descending lexicographic order.
	sort.Slice(points, func(i, j int) bool {
		if points[i].sum != points[j].sum {
			return points[i].sum > points[j].sum
		}
		return slices.Compare(points[i].coords, points[j].coords) > 0
	})
	var sky []pt
	for _, p := range points {
		dominated := false
		for _, s := range sky {
			if dominatesInt64(s.coords, p.coords) {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, p)
		}
	}
	res := &Result{Columns: append([]string(nil), q.SkylineCols...)}
	for _, p := range sky {
		row := make([]string, len(p.coords))
		for i, v := range p.coords {
			row[i] = strconv.FormatInt(v, 10)
		}
		res.Rows = append(res.Rows, row)
	}
	res.Sort()
	return res, nil
}

// dominatesInt64 reports a ≥ b in every dimension with a ≠ b allowed —
// standard skyline dominance for maximization.
func dominatesInt64(a, b []int64) bool {
	for i := range a {
		if b[i] > a[i] {
			return false
		}
	}
	return true
}
