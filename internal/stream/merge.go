package stream

// Per-kind incremental merge state. Each merger folds the canonical
// engine.Result of one delta execution into a standing result that is
// bit-identical to running the query from scratch on the full prefix.
// Working on rendered results — not raw survivor streams — makes the
// merge path executor-agnostic: the same state merges deltas produced
// by ExecDirect, the batched pipeline, ExecSharded, or a fabric lease,
// because all of them render the same canonical rows.
//
// A standing result that grows with the data — FILTER's rows, DISTINCT,
// GROUP BY MAX / SUM, HAVING, JOIN — is kept in canonical order
// (standing): absorb records the rows a delta retires and adds, and a
// snapshot sorts only the rows added since the last one and applies the
// change to that snapshot's rows with engine.MergeRows, the routine a
// remote client rebuilds its copy with. So absorb stays O(delta), a
// snapshot is pointer work over the standing rows, an unchanged merger
// returns its previous result, and a row whose value did not change keeps
// its []string, which a server's change set passes over by identity. TOP
// N and SKYLINE, bounded by N and by the frontier, render afresh
// (sortedCopy).
//
// Why each merge is exact:
//
//   - FILTER: matching is per-row, so the full result is the bag union
//     of per-delta matches (a count sum for COUNT(*)).
//   - DISTINCT: the tuple set is the union of per-delta tuple sets; a
//     tuple's first global occurrence is in some delta, whose result
//     contains it even when a standing switch cache suppressed rows
//     duplicated from earlier deltas.
//   - TOP N: topN(A ∪ B) = topN(topN(A) ∪ topN(B)) as multisets, so a
//     standing N-heap absorbs each delta's local top N.
//   - GROUP BY MAX / SUM: per-key max/sum merge per-delta partials;
//     both operators are associative and commutative over row bags.
//   - HAVING: keys can cross the threshold only in aggregate, so the
//     standing state is the full per-key sum map (deltas execute as
//     GROUP BY SUM); the threshold applies when the standing result is
//     rendered. The candidates-only output of the sketch path cannot
//     be merged incrementally — a below-threshold key would be lost.
//   - JOIN: with a static right side, per-key pair counts are linear in
//     the left rows: pairs(A∪B ⋈ R) = pairs(A⋈R) + pairs(B⋈R), a per-key
//     sum like GROUP BY SUM's.
//   - SKYLINE: skyline(A ∪ B) = skyline(skyline(A) ∪ skyline(B)); the
//     standing frontier is dominance-re-checked against each delta's
//     skyline. Points never resurface once dominated.

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"cheetah/internal/engine"
	"cheetah/internal/table"
)

// merger folds delta results into a standing result. Mergers are not
// safe for concurrent use; the subscription serializes access.
type merger interface {
	// absorb folds one delta execution's result in.
	absorb(*engine.Result) error
	// snapshot renders the standing result, bit-identical to a
	// from-scratch run over everything absorbed. The returned value is
	// immutable: a later snapshot is another Result, which may share its
	// rows.
	snapshot() *engine.Result
}

// newMerger builds the standing-state merger for q. For windowed
// subscriptions it is also the final fold over pane snapshots.
func newMerger(q *engine.Query) (merger, error) {
	switch q.Kind {
	case engine.KindFilter:
		if q.CountOnly {
			return &countMerger{}, nil
		}
		names := make([]string, q.Table.NumCols())
		for i, d := range q.Table.Schema() {
			names[i] = d.Name
		}
		return &bagMerger{standing{cols: names}}, nil
	case engine.KindDistinct:
		return &setMerger{standing: standing{cols: append([]string(nil), q.DistinctCols...)}}, nil
	case engine.KindTopN:
		return &topNMerger{cols: []string{q.OrderCol}, n: q.N}, nil
	case engine.KindGroupByMax:
		return &keyAggMerger{standing: standing{cols: []string{q.KeyCol, "max(" + q.AggCol + ")"}}}, nil
	case engine.KindGroupBySum:
		return sumMerger(q), nil
	case engine.KindHaving:
		return &keyAggMerger{standing: standing{cols: []string{q.KeyCol}}, sum: true, having: true, threshold: q.Threshold}, nil
	case engine.KindJoin:
		return &keyAggMerger{standing: standing{cols: []string{q.LeftKey, "pairs"}}, sum: true}, nil
	case engine.KindSkyline:
		return &skylineMerger{cols: append([]string(nil), q.SkylineCols...), dims: len(q.SkylineCols)}, nil
	default:
		return nil, fmt.Errorf("stream: no incremental merge for %v", q.Kind)
	}
}

// sumMerger is GROUP BY SUM's merger, and HAVING's per pane.
func sumMerger(q *engine.Query) *keyAggMerger {
	return &keyAggMerger{standing: standing{cols: []string{q.KeyCol, "sum(" + q.AggCol + ")"}}, sum: true}
}

// paneMerger builds the per-pane accumulator for windowed
// subscriptions. It differs from newMerger only for HAVING, whose panes
// must keep raw sums (the threshold applies to the whole window, not
// per pane).
func paneMerger(q *engine.Query) (merger, error) {
	if q.Kind == engine.KindHaving {
		return sumMerger(q), nil
	}
	return newMerger(q)
}

// DeltaQuery derives the query executed against one delta table: the
// delta substitutes the source table, and HAVING aggregates as GROUP BY
// SUM (full per-key partial sums; see the HAVING note above). It is the
// one statement of what a subscription's deltas run, so the planning
// layer plans the same query.
func DeltaQuery(q *engine.Query, delta *table.Table) *engine.Query {
	qd := *q
	qd.Table = delta
	if qd.Kind == engine.KindHaving {
		qd.Kind = engine.KindGroupBySum
	}
	return &qd
}

// parseInt64 parses a canonical rendered integer cell.
func parseInt64(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stream: malformed integer cell %q: %v", s, err)
	}
	return v, nil
}

// sortedCopy renders the rows as a Result in the canonical sorted
// order (fresh backing, safe to hand out): the render of the mergers
// whose standing rows are bounded.
func sortedCopy(cols []string, rows [][]string) *engine.Result {
	res := &engine.Result{Columns: cols, Rows: rows}
	res.Sort()
	return res
}

// standing is a standing result kept in canonical order: the last
// snapshot, and the rows retired from it and added since.
type standing struct {
	cols           []string
	res            *engine.Result // the last snapshot; nil before the first
	removed, added [][]string
}

// render applies the change since the last snapshot — only the retired
// and added rows are sorted, the standing ones move by pointer — and
// returns the new snapshot, or the last one when nothing changed.
func (s *standing) render() *engine.Result {
	if s.res != nil && len(s.removed) == 0 && len(s.added) == 0 {
		return s.res
	}
	var base [][]string
	if s.res != nil {
		base = s.res.Rows
	}
	slices.SortFunc(s.removed, engine.CompareRows)
	slices.SortFunc(s.added, engine.CompareRows)
	rows, err := engine.MergeRows(base, s.removed, s.added)
	if err != nil {
		// A merger retires only rows its last snapshot rendered.
		panic(fmt.Sprintf("stream: standing change does not apply to its snapshot: %v", err))
	}
	s.res = &engine.Result{Columns: s.cols, Rows: rows}
	clear(s.removed)
	clear(s.added)
	s.removed, s.added = s.removed[:0], s.added[:0]
	return s.res
}

// --- FILTER -----------------------------------------------------------

// countMerger serves SELECT COUNT(*): the standing count is the sum of
// delta counts.
type countMerger struct{ count int64 }

func (m *countMerger) absorb(r *engine.Result) error {
	if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
		return fmt.Errorf("stream: count delta with %d rows", len(r.Rows))
	}
	v, err := parseInt64(r.Rows[0][0])
	if err != nil {
		return err
	}
	m.count += v
	return nil
}

func (m *countMerger) snapshot() *engine.Result {
	return &engine.Result{Columns: []string{"count"}, Rows: [][]string{{strconv.FormatInt(m.count, 10)}}}
}

// bagMerger serves FILTER: the standing result is the bag union of
// per-delta matching rows.
type bagMerger struct{ standing }

func (m *bagMerger) absorb(r *engine.Result) error {
	m.added = append(m.added, r.Rows...)
	return nil
}

func (m *bagMerger) snapshot() *engine.Result { return m.render() }

// --- DISTINCT ---------------------------------------------------------

// setMerger serves DISTINCT: a fingerprint set over the rendered value
// tuples (the exact tuple key — collisions on the canonical rendering
// are equality); a tuple seen for the first time is added.
type setMerger struct {
	standing
	seen map[string]struct{}
}

func (m *setMerger) absorb(r *engine.Result) error {
	if m.seen == nil {
		m.seen = make(map[string]struct{}, 4*len(r.Rows))
	}
	for _, row := range r.Rows {
		k := strings.Join(row, "\x00")
		if _, ok := m.seen[k]; ok {
			continue
		}
		m.seen[k] = struct{}{}
		m.added = append(m.added, row)
	}
	return nil
}

func (m *setMerger) snapshot() *engine.Result { return m.render() }

// --- TOP N ------------------------------------------------------------

// topNMerger serves TOP N: a standing N-min-heap absorbs each delta's
// local top N.
type topNMerger struct {
	cols []string
	n    int
	heap []int64 // min-heap of the current top N
}

func (m *topNMerger) absorb(r *engine.Result) error {
	for _, row := range r.Rows {
		v, err := parseInt64(row[0])
		if err != nil {
			return err
		}
		m.offer(v)
	}
	return nil
}

func (m *topNMerger) offer(v int64) {
	h := m.heap
	if len(h) < m.n {
		// Sift-up.
		h = append(h, v)
		j := len(h) - 1
		for j > 0 {
			p := (j - 1) / 2
			if h[p] <= h[j] {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
		m.heap = h
		return
	}
	if m.n == 0 || v <= h[0] {
		return
	}
	// Replace the root and sift-down.
	h[0] = v
	j := 0
	for {
		l, r := 2*j+1, 2*j+2
		small := j
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == j {
			return
		}
		h[j], h[small] = h[small], h[j]
		j = small
	}
}

func (m *topNMerger) snapshot() *engine.Result {
	// Heap order is irrelevant: sortedCopy renders the canonical
	// lexicographic order, same as the from-scratch executor's final
	// Result.Sort.
	rows := make([][]string, len(m.heap))
	for i, v := range m.heap {
		rows[i] = []string{strconv.FormatInt(v, 10)}
	}
	return sortedCopy(m.cols, rows)
}

// --- GROUP BY MAX / SUM, HAVING, JOIN ---------------------------------

// keyAggMerger serves GROUP BY MAX / SUM and JOIN (pair counts sum per
// key): a standing key → aggregate map merged by max or sum, one (key,
// aggregate) row per key. For HAVING it keeps the full sum map and
// renders a key alone, while its sum passes the threshold.
type keyAggMerger struct {
	standing
	sum       bool
	having    bool
	threshold int64
	index     map[string]int32 // key → ents
	ents      []aggEntry
	touched   []int32 // ents absorbed into since the last snapshot
}

// aggEntry is one key's aggregate, and the row the last snapshot
// rendered for it (nil if none) with the aggregate that row shows.
type aggEntry struct {
	key      string
	v, shown int64
	row      []string
	touched  bool
}

func (m *keyAggMerger) absorb(r *engine.Result) error {
	if m.index == nil {
		m.index = make(map[string]int32, 4*len(r.Rows))
	}
	for _, row := range r.Rows {
		v, err := parseInt64(row[1])
		if err != nil {
			return err
		}
		i, ok := m.index[row[0]]
		if !ok {
			i = int32(len(m.ents))
			m.index[row[0]] = i
			m.ents = append(m.ents, aggEntry{key: row[0], v: v})
		}
		e := &m.ents[i]
		switch {
		case !ok:
		case m.sum:
			e.v += v
		case v > e.v:
			e.v = v
		default:
			continue // a maximum that did not rise
		}
		if !e.touched {
			e.touched = true
			m.touched = append(m.touched, i)
		}
	}
	return nil
}

// snapshot retires the rows of the keys whose rendering changed, adds
// their new rows, and applies that change.
func (m *keyAggMerger) snapshot() *engine.Result {
	for _, i := range m.touched {
		e := &m.ents[i]
		e.touched = false
		show := !m.having || e.v > m.threshold
		if e.row != nil && show && (m.having || e.shown == e.v) {
			continue // its row stands
		}
		if e.row != nil {
			m.removed = append(m.removed, e.row)
			e.row = nil
		}
		if !show {
			continue
		}
		if m.having {
			e.row = []string{e.key}
		} else {
			e.row = []string{e.key, strconv.FormatInt(e.v, 10)}
		}
		e.shown = e.v
		m.added = append(m.added, e.row)
	}
	m.touched = m.touched[:0]
	return m.render()
}

// --- SKYLINE ----------------------------------------------------------

// skylineMerger serves SKYLINE: the standing Pareto frontier is
// dominance-re-checked against each delta's skyline points.
type skylineMerger struct {
	cols     []string
	dims     int
	frontier [][]int64
}

func (m *skylineMerger) absorb(r *engine.Result) error {
	if len(r.Rows) == 0 {
		return nil
	}
	// Parse the delta's skyline points and dedupe against the frontier
	// (both are distinct-point sets; equal points are one point).
	seen := make(map[string]struct{}, len(m.frontier)+len(r.Rows))
	pts := make([][]int64, 0, len(m.frontier)+len(r.Rows))
	add := func(p []int64) {
		var b strings.Builder
		for _, v := range p {
			b.WriteString(strconv.FormatInt(v, 10))
			b.WriteByte(0)
		}
		k := b.String()
		if _, ok := seen[k]; ok {
			return
		}
		seen[k] = struct{}{}
		pts = append(pts, p)
	}
	for _, p := range m.frontier {
		add(p)
	}
	for _, row := range r.Rows {
		p := make([]int64, m.dims)
		for i, cell := range row {
			v, err := parseInt64(cell)
			if err != nil {
				return err
			}
			p[i] = v
		}
		add(p)
	}
	// Re-check dominance over the union: descending coordinate-sum
	// order makes the accepted-set sweep exact (a dominator's sum is
	// never smaller, and equal-sum dominance implies equality).
	sort.Slice(pts, func(i, j int) bool {
		var si, sj int64
		for _, v := range pts[i] {
			si += v
		}
		for _, v := range pts[j] {
			sj += v
		}
		return si > sj
	})
	m.frontier = m.frontier[:0]
	for _, p := range pts {
		dominated := false
		for _, s := range m.frontier {
			if dominates(s, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			m.frontier = append(m.frontier, p)
		}
	}
	return nil
}

// dominates reports a ≥ b in every dimension (maximization).
func dominates(a, b []int64) bool {
	for i := range a {
		if b[i] > a[i] {
			return false
		}
	}
	return true
}

func (m *skylineMerger) snapshot() *engine.Result {
	rows := make([][]string, len(m.frontier))
	for i, p := range m.frontier {
		row := make([]string, len(p))
		for j, v := range p {
			row[j] = strconv.FormatInt(v, 10)
		}
		rows[i] = row
	}
	return sortedCopy(m.cols, rows)
}
