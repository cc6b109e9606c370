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
// N and SKYLINE, bounded by N and by the frontier, fold through the engine
// and render afresh.
//
// Why each merge is exact:
//
//   - FILTER: matching is per-row, so the full result is the bag union
//     of per-delta matches (a count sum for COUNT(*)).
//   - DISTINCT: the tuple set is the union of per-delta tuple sets; a
//     tuple's first global occurrence is in some delta, whose result
//     contains it even when a standing switch cache suppressed rows
//     duplicated from earlier deltas.
//   - TOP N: topN(A ∪ B) = topN(topN(A) ∪ topN(B)) as multisets, so the
//     standing N-heap absorbs each delta's local top N through
//     engine.TopN, the fold of the k-shard completion, and renders with
//     engine.TopNResult.
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
//   - SKYLINE: skyline(A ∪ B) = skyline(skyline(A) ∪ skyline(B)), so
//     the standing frontier is the query itself — engine.ExecDirect — run
//     over a table of the frontier's and the delta's points. Points never
//     resurface once dominated.

import (
	"fmt"
	"slices"
	"strconv"

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
		return &topNMerger{q: q}, nil
	case engine.KindGroupByMax:
		return &keyAggMerger{standing: standing{cols: []string{q.KeyCol, "max(" + q.AggCol + ")"}}}, nil
	case engine.KindGroupBySum:
		return sumMerger(q), nil
	case engine.KindHaving:
		return &keyAggMerger{standing: standing{cols: []string{q.KeyCol}}, sum: true, having: true, threshold: q.Threshold}, nil
	case engine.KindJoin:
		return &keyAggMerger{standing: standing{cols: []string{q.LeftKey, "pairs"}}, sum: true}, nil
	case engine.KindSkyline:
		return newSkylineMerger(q), nil
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

// setMerger serves DISTINCT: a set of the rendered value tuples, keyed
// on the cell of a one-column tuple and on the cells' engine.AppendKeyCell
// encoding otherwise; a tuple seen for the first time is added.
type setMerger struct {
	standing
	seen map[string]struct{}
	key  []byte
}

func (m *setMerger) absorb(r *engine.Result) error {
	if m.seen == nil {
		m.seen = make(map[string]struct{}, 4*len(r.Rows))
	}
	for _, row := range r.Rows {
		k := row[0]
		if len(row) > 1 {
			m.key = m.key[:0]
			for _, cell := range row {
				m.key = engine.AppendKeyCell(m.key, cell)
			}
			k = string(m.key)
		}
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

// topNMerger serves TOP N: the standing N-heap folds each delta's local
// top N through engine.TopN.
type topNMerger struct {
	q    *engine.Query
	heap []int64
	vals []int64 // the delta's values, reused
}

func (m *topNMerger) absorb(r *engine.Result) error {
	m.vals = m.vals[:0]
	for _, row := range r.Rows {
		v, err := parseInt64(row[0])
		if err != nil {
			return err
		}
		m.vals = append(m.vals, v)
	}
	m.heap = engine.TopN(m.q.N, m.heap, m.vals)
	return nil
}

func (m *topNMerger) snapshot() *engine.Result { return engine.TopNResult(m.q, m.heap) }

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

// skylineMerger serves SKYLINE: each delta's points and the standing
// frontier's are loaded into a table of the query's dimensions, and the
// query run over it is the new frontier.
type skylineMerger struct {
	q      engine.Query // the subscription's query; Table is the fold's
	schema table.Schema // SkylineCols without repeats, all Int64
	col    []int        // SkylineCols position → schema column
	res    *engine.Result
}

func newSkylineMerger(q *engine.Query) *skylineMerger {
	m := &skylineMerger{q: *q, col: make([]int, len(q.SkylineCols))}
	for i, c := range q.SkylineCols {
		j := m.schema.Index(c)
		if j < 0 {
			j = len(m.schema)
			m.schema = append(m.schema, table.ColumnDef{Name: c, Type: table.Int64})
		}
		m.col[i] = j
	}
	m.res = &engine.Result{Columns: append([]string(nil), q.SkylineCols...)}
	return m
}

func (m *skylineMerger) absorb(r *engine.Result) error {
	if len(r.Rows) == 0 {
		return nil
	}
	t, err := table.New(m.schema)
	if err != nil {
		return err
	}
	t.Grow(len(m.res.Rows) + len(r.Rows))
	pt := make([]int64, len(m.schema))
	for _, rows := range [][][]string{m.res.Rows, r.Rows} {
		for _, row := range rows {
			for i, cell := range row {
				v, err := parseInt64(cell)
				if err != nil {
					return err
				}
				pt[m.col[i]] = v
			}
			if err := t.AppendInt64Row(pt...); err != nil {
				return err
			}
		}
	}
	m.q.Table = t
	res, err := engine.ExecDirect(&m.q)
	if err != nil {
		return err
	}
	m.res = res
	return nil
}

func (m *skylineMerger) snapshot() *engine.Result { return m.res }
