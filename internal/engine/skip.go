package engine

// This file is the engine side of storage-side data skipping: deciding,
// from a table's block skip metadata (table.SkipIndex), which blocks a
// pass can prove irrelevant and never encode. Skipping composes with
// switch pruning multiplicatively — the switch prunes entries in
// flight, the skip index keeps whole blocks from entering the stream at
// all — and it is exact by construction, never best-effort like the
// pruners:
//
//   - FILTER: the query formula is monotone (boolexpr has And/Or/Leaf/
//     Const and no negation), so evaluating it with every leaf replaced
//     by "can this predicate hold for ANY row of the block" (from the
//     zone map, plus the block Bloom for equality) yields an upper
//     bound: formula false ⇒ no row in the block can match.
//   - TOP N: the master heap only ever replaces its root when v > h[0]
//     (see execTopN), so once the heap holds N values, a block whose
//     max ≤ h[0] cannot change the final top-N multiset. The threshold
//     tightens as blocks stream, so later blocks skip more.
//   - JOIN: the build side's distinct keys (capped; skipping disables
//     beyond the cap) probe each probe-side block's key Bloom. Blooms
//     have no false negatives, so a block where every build key tests
//     negative contains no joinable row — and, symmetrically, any
//     probe-side block holding a key that exists on the build side can
//     never be skipped, which is what keeps the switch Bloom join's
//     training passes exact under skipping.
//
// DISTINCT, GROUP BY, HAVING and SKYLINE scan everything: every row can
// change their result, so there is no sound block-level bound. They
// report zero skip stats.
//
// Rows past the index's coverage (appended since the last refresh) and
// blocks whose metadata does not cover the whole span (a snapshot taken
// mid-tail-block sees the reverse: metadata over MORE rows than the
// view, which only weakens the bound) are scanned unconditionally —
// staleness costs skips, never correctness.

import (
	"strings"

	"cheetah/internal/prune"
	"cheetah/internal/table"
)

// SkipStats reports the block-skipping work of one execution. Zero when
// skipping was disabled, the table has no skip index, or the query kind
// admits no sound block bound.
type SkipStats struct {
	// BlocksSeen counts blocks whose metadata covered a scanned span
	// (the denominator of the skip rate).
	BlocksSeen int
	// BlocksSkipped counts blocks proven irrelevant and never encoded.
	BlocksSkipped int
	// RowsSkipped counts the rows inside skipped blocks.
	RowsSkipped int
}

// Add accumulates o into s (per-shard and per-delta roll-ups).
func (s *SkipStats) Add(o SkipStats) {
	s.BlocksSeen += o.BlocksSeen
	s.BlocksSkipped += o.BlocksSkipped
	s.RowsSkipped += o.RowsSkipped
}

// span is a contiguous row range [lo, hi) in a table's local (view)
// coordinates.
type span struct{ lo, hi int }

// fullSpans is the no-skipping span list: one span covering the table.
func fullSpans(t *table.Table) []span { return []span{{0, t.NumRows()}} }

// forEachBlockSpan cuts the view t into spans aligned to its root skip
// index's blocks and calls fn for each, with the block's metadata when
// it covers the whole span (meta == nil otherwise: no index, rows past
// the index's coverage — those spans must be scanned). Without an index
// fn is called once for the full table.
func forEachBlockSpan(t *table.Table, fn func(lo, hi int, meta *table.BlockMeta)) {
	n := t.NumRows()
	ix := t.SkipIndex()
	if ix == nil {
		if n > 0 {
			fn(0, n, nil)
		}
		return
	}
	off := t.RootOffset()
	bs := ix.BlockRows()
	for lo := 0; lo < n; {
		b := (off + lo) / bs
		hi := min(n, (b+1)*bs-off)
		var meta *table.BlockMeta
		if b < ix.NumBlocks() {
			if m := ix.Block(b); off+hi <= b*bs+m.Rows() {
				meta = m
			}
		}
		fn(lo, hi, meta)
		lo = hi
	}
}

// appendSpan appends [lo, hi), merging with the previous span when
// adjacent so an unskippable run streams as one segment (batchPass).
func appendSpan(spans []span, lo, hi int) []span {
	if k := len(spans); k > 0 && spans[k-1].hi == lo {
		spans[k-1].hi = hi
		return spans
	}
	return append(spans, span{lo, hi})
}

// spanRows materializes the row-index list of a span set (the direct
// path's restricted scan).
func spanRows(spans []span) []int {
	n := 0
	for _, sp := range spans {
		n += sp.hi - sp.lo
	}
	rows := make([]int, 0, n)
	for _, sp := range spans {
		for r := sp.lo; r < sp.hi; r++ {
			rows = append(rows, r)
		}
	}
	return rows
}

// predMayMatch reports whether predicate p (over column col) may hold
// for some row of the block. False is exact: combined with the formula's
// monotonicity, it licenses skipping. The comparisons mirror
// FilterPred.Eval exactly, including the unknown-op case (Eval returns
// false for every row, so the block cannot match through that leaf).
func predMayMatch(p *FilterPred, col int, m *table.BlockMeta) bool {
	if p.Like != "" {
		// A wildcard pattern has no single probe value; only an exact
		// pattern can consult the Bloom.
		if strings.ContainsAny(p.Like, "%_") {
			return true
		}
		return m.MayContainString(col, p.Like)
	}
	lo, hi := m.Int64Range(col)
	switch p.Op {
	case prune.OpGT:
		return hi > p.Const
	case prune.OpGE:
		return hi >= p.Const
	case prune.OpLT:
		return lo < p.Const
	case prune.OpLE:
		return lo <= p.Const
	case prune.OpEQ:
		return m.MayContainInt64(col, p.Const)
	case prune.OpNE:
		return lo != p.Const || hi != p.Const
	default:
		return false
	}
}

// filterMayMatch evaluates the query formula with each leaf replaced by
// its block-level upper bound. False ⇒ no row of the block satisfies
// the formula (monotone formula, leafwise upper bounds).
func filterMayMatch(q *Query, cols []int, m *table.BlockMeta) bool {
	return q.Formula.Eval(func(v int) bool {
		return predMayMatch(&q.Predicates[v], cols[v], m)
	})
}

// filterSpans derives the scan spans of a FILTER over t: block-aligned
// spans whose metadata cannot rule the formula out, merged when
// adjacent. Without an index it returns the full table and zero stats.
func filterSpans(q *Query, t *table.Table, cols []int) ([]span, SkipStats) {
	var st SkipStats
	var spans []span
	forEachBlockSpan(t, func(lo, hi int, m *table.BlockMeta) {
		if m != nil {
			st.BlocksSeen++
			if !filterMayMatch(q, cols, m) {
				st.BlocksSkipped++
				st.RowsSkipped += hi - lo
				return
			}
		}
		spans = appendSpan(spans, lo, hi)
	})
	return spans, st
}

// joinSkipMaxKeys caps the build-side distinct-key collection; past it
// the per-block probe cost stops paying and skipping is disabled.
const joinSkipMaxKeys = 4096

// joinSkipProbeKeys is how many leading build-side keys are tried on
// every probe block before the distinct-key set is built at all.
const joinSkipProbeKeys = 256

// joinRightSpans derives the probe-side (right) scan spans of JOIN q:
// a right block is skipped when every distinct build-side (left) key
// tests negative in the block's key Bloom — no joinable row can be
// there. Returns the full table when the right table has no index, the
// key types differ, or the build side has too many distinct keys — and,
// before paying for the distinct-key set, when a sample of leading
// build keys already hits every block (the common join: nothing can be
// skipped, and on an 8 k-row table building that set costs half as much
// as the join itself).
func joinRightSpans(q *Query) ([]span, SkipStats) {
	left, right := q.Table, q.Right
	lc, rc := left.Schema().MustIndex(q.LeftKey), right.Schema().MustIndex(q.RightKey)
	if right.SkipIndex() == nil || left.ColumnType(lc) != right.ColumnType(rc) {
		return fullSpans(right), SkipStats{}
	}
	var ints []int64
	var strs []string
	if left.ColumnType(lc) == table.Int64 {
		ints = left.Int64Col(lc)
	} else {
		strs = left.StringCol(lc)
	}
	probe := min(left.NumRows(), joinSkipProbeKeys)
	blocks, allHit := 0, true
	forEachBlockSpan(right, func(_, _ int, m *table.BlockMeta) {
		if m == nil {
			return
		}
		blocks++
		for i := 0; i < probe && allHit; i++ {
			if ints != nil && m.MayContainInt64(rc, ints[i]) || strs != nil && m.MayContainString(rc, strs[i]) {
				return
			}
		}
		allHit = false
	})
	if allHit {
		return fullSpans(right), SkipStats{BlocksSeen: blocks}
	}
	var intKeys []int64
	var strKeys []string
	if ints != nil {
		seen := make(map[int64]struct{}, 1024)
		for _, v := range ints {
			if _, ok := seen[v]; ok {
				continue
			}
			if len(seen) >= joinSkipMaxKeys {
				return fullSpans(right), SkipStats{}
			}
			seen[v] = struct{}{}
			intKeys = append(intKeys, v)
		}
	} else {
		seen := make(map[string]struct{}, 1024)
		for _, s := range strs {
			if _, ok := seen[s]; ok {
				continue
			}
			if len(seen) >= joinSkipMaxKeys {
				return fullSpans(right), SkipStats{}
			}
			seen[s] = struct{}{}
			strKeys = append(strKeys, s)
		}
	}
	var st SkipStats
	var spans []span
	forEachBlockSpan(right, func(lo, hi int, m *table.BlockMeta) {
		if m != nil {
			st.BlocksSeen++
			may := false
			for _, k := range intKeys {
				if m.MayContainInt64(rc, k) {
					may = true
					break
				}
			}
			if !may {
				for _, k := range strKeys {
					if m.MayContainString(rc, k) {
						may = true
						break
					}
				}
			}
			if !may {
				st.BlocksSkipped++
				st.RowsSkipped += hi - lo
				return
			}
		}
		spans = appendSpan(spans, lo, hi)
	})
	return spans, st
}

// topNSpanScan drives a TOP N scan over t's blocks with the running
// heap threshold: each block is offered to skip (heap full and block
// max ≤ h[0]) before scan streams its span. The threshold tightens as
// spans stream, so later blocks skip more.
func topNSpanScan(t *table.Table, col, n int, h *int64Heap, st *SkipStats, scan func(lo, hi int)) {
	forEachBlockSpan(t, func(lo, hi int, m *table.BlockMeta) {
		if m != nil {
			st.BlocksSeen++
			if len(*h) == n {
				if _, mx := m.Int64Range(col); mx <= (*h)[0] {
					st.BlocksSkipped++
					st.RowsSkipped += hi - lo
					return
				}
			}
		}
		scan(lo, hi)
	})
}

// execTopNSkip is execTopN with the block threshold bound: bit-identical
// output (the heap's final multiset is order-independent, and a skipped
// block's values are all ≤ the running h[0], which execTopN's
// replace-on-strictly-greater rule ignores anyway).
func execTopNSkip(q *Query) (*Result, SkipStats, error) {
	t, col := q.Table, q.Table.Schema().MustIndex(q.OrderCol)
	var st SkipStats
	h := &int64Heap{}
	topNSpanScan(t, col, q.N, h, &st, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			h.offer(t.Int64At(col, r), q.N)
		}
	})
	return TopNResult(q, *h), st, nil
}

// ExecDirectSkip is ExecDirect with block skipping: bit-identical
// results, with the blocks the metadata proves irrelevant never read.
// Kinds without a sound block bound (DISTINCT, GROUP BY, HAVING,
// SKYLINE) delegate to ExecDirect and report zero stats.
func ExecDirectSkip(q *Query) (*Result, SkipStats, error) {
	if err := q.Validate(); err != nil {
		return nil, SkipStats{}, err
	}
	if f := kinds[q.Kind].directSkip; f != nil {
		return f(q)
	}
	res, err := ExecDirect(q)
	return res, SkipStats{}, err
}

// execFilterSkip is execFilter over the spans the formula's block bound
// keeps.
func execFilterSkip(q *Query) (*Result, SkipStats, error) {
	cols := make([]int, len(q.Predicates))
	for i, p := range q.Predicates {
		cols[i] = q.Table.Schema().MustIndex(p.Col)
	}
	spans, st := filterSpans(q, q.Table, cols)
	res, err := execFilter(q, q.Table, spanRows(spans))
	return res, st, err
}

// execJoinSkip is execJoin over the probe-side spans whose key Blooms can
// hold a build-side key.
func execJoinSkip(q *Query) (*Result, SkipStats, error) {
	spans, st := joinRightSpans(q)
	res, err := execJoin(q, allRows(q.Table), spanRows(spans))
	return res, st, err
}
