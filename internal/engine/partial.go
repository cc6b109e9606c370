package engine

// The master-side partial result of the four aggregation kinds —
// DISTINCT, GROUP BY MAX, GROUP BY SUM, HAVING — and the only place
// their completion is written. A partial is a set of entries keyed by
// key fingerprint with three operations: absorb one survivor of the
// switch, merge another partial, render the sorted Result. Every
// executor feeds it: the fused loops and the batch sinks absorb, the
// sharded path builds one partial per shard and merges them, and all of
// them render the same way. Absorb and merge commute and associate up to
// entry order, which render's sort erases, so any split of the survivors
// over any number of partials, merged in any order, renders the same
// Result.
//
// What an entry holds, per kind (val / representative row):
//
//	DISTINCT      —          / first survivor carrying the fingerprint
//	GROUP BY MAX  maximum    / first survivor carrying the fingerprint
//	GROUP BY SUM  sum        / resolved after the drain (resolve)
//	HAVING        exact sum  / first row the second pass re-streamed
//
// Keys are rendered late, from representative rows, so a key string is
// touched once per result row and never per stream entry; and where the
// table's key dictionary allows (table.KeyIDs), the rows are put in order
// by the keys' ranks, not by comparing key bytes (orderKeys).
//
// Exactness. DISTINCT, GROUP BY MAX and GROUP BY SUM identify a key with
// its fingerprint, as the switch that pruned (or, for SUM, already
// summed) the stream did: two keys sharing a fingerprint were merged
// before the master saw them, and no master-side check can take that
// back (Theorem 4's 1-δ guarantee covers it). HAVING's switch only
// nominates candidates; the sums are the master's own, so its second
// pass compares every row's key id with the entry's representative's and
// keeps a key that merely shares a candidate's fingerprint apart
// (spill) — HAVING stays exact under collisions.

import (
	"maps"
	"strconv"
	"sync"

	"cheetah/internal/cacheline"
	"cheetah/internal/radix"
	"cheetah/internal/table"
)

// fpSlot is one slot of an fpTable: a fingerprint and the index of its
// entry.
type fpSlot struct {
	fp  uint64
	ent int // entry index + 1; 0 marks an empty slot
}

// fpTable indexes entries by key fingerprint: open addressing over a
// power-of-two slot array with linear probing. Fingerprints are Mix64
// outputs, so their low bits index the table directly. The entries live
// with the owner (partial), which keeps the table at most half full by
// calling grow.
type fpTable struct {
	slots []fpSlot
}

// fpTableMinSlots is the slot count a fresh table starts from.
const fpTableMinSlots = 1 << 10

// reset empties the table, keeping its capacity. Probing needs at least
// one slot, whatever left the slice empty.
func (t *fpTable) reset() {
	if len(t.slots) == 0 {
		t.slots = make([]fpSlot, fpTableMinSlots)
	}
	clear(t.slots)
}

// grow doubles the slot array. Entries are distinct, so re-placing them
// needs no comparison.
func (t *fpTable) grow() {
	old := t.slots
	t.slots = make([]fpSlot, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.ent == 0 {
			continue
		}
		h := s.fp & mask
		for t.slots[h].ent != 0 {
			h = (h + 1) & mask
		}
		t.slots[h] = s
	}
}

// find returns the entry (index + 1) of the first slot holding fp, 0
// when there is none.
func (t *fpTable) find(fp uint64) int {
	mask := uint64(len(t.slots) - 1)
	for h := fp & mask; ; h = (h + 1) & mask {
		if s := &t.slots[h]; s.ent == 0 || s.fp == fp {
			return s.ent
		}
	}
}

// partialEnt is one fingerprint's entry. row < 0 means no representative
// row yet.
type partialEnt struct {
	fp  uint64
	val int64
	tbl int // index into partial.tables
	row int
}

// partial is one kind's partial result over one table — or, after
// merges, over several tables of one schema (a sharded table's shards).
type partial struct {
	kind   QueryKind
	cols   []int          // the key column(s), at the same index in every table
	tables []*table.Table // what entries' representative rows point into
	tab    fpTable
	ents   []partialEnt
	// spill holds HAVING's sums for keys whose fingerprint is another
	// candidate's; nil until the first collision.
	spill map[string]int64
	// fps is the fingerprint column of tables[0] — fps[r] is row r's key
	// fingerprint — once a pass has asked for it (hashKeys): the table's
	// own memoised column, shared and read-only, or scratch when the table
	// keeps none for this key (several columns, a handle its memo turns
	// away). hashedRows is how many rows asking cost. seed is the latest
	// seed asked with, which the dictionary is read under too.
	fps        []uint64
	hashed     bool
	hashedRows int
	seed       uint64
	scratch    []uint64
	// ids[i] is tables[i]'s key ids (keyIDs), once HAVING's second pass or
	// a ranked render asked; zero until then. A table the dictionary turns
	// away builds into idScratch — tables[0] only. idsRead and idsBuilt say
	// whether any asking happened and how many rows it built: the merge
	// span's note.
	ids       []table.KeyIDs
	idScratch table.KeyIDScratch
	idsRead   bool
	idsBuilt  int
	order     []int // arrival's scratch
	// Render scratch: keys and their entry indices, sorted in lock-step,
	// the value cells' digits with where each cell ends, and one slot per
	// dictionary rank for the ranked placement.
	sorter radix.Sorter
	keys   []string
	idx    []int32
	digits []byte
	ends   []int
	place  []int32
}

// partialPool's partials are allocated alone on their cache lines: the k
// partials of a sharded run are taken one after another by the master and
// then absorbed into on k cores, once per forwarded entry.
var partialPool = sync.Pool{New: func() any { return cacheline.New[partial]() }}

// poolMax is the capacity, in elements, above which a pooled completion's
// scratch — a partial's, a JOIN's — is dropped instead of pooled: one
// huge query must not pin its scratch for the life of the process. A
// variable only so that a test can reach it with small slices.
var poolMax = 1 << 20

// poolable reports whether every capacity is within poolMax.
func poolable(caps ...int) bool {
	for _, c := range caps {
		if c > poolMax {
			return false
		}
	}
	return true
}

// newPartial returns an empty pooled partial of q's kind over q.Table.
func newPartial(q *Query) *partial {
	p := partialPool.Get().(*partial)
	p.kind = q.Kind
	names := q.DistinctCols
	if q.Kind != KindDistinct {
		names = []string{q.KeyCol}
	}
	p.cols = p.cols[:0]
	for _, name := range names {
		p.cols = append(p.cols, q.Table.Schema().MustIndex(name))
	}
	p.reset(q.Table)
	return p
}

// reset empties p for a fresh pass over t — a failover redo starts
// here. A table that one large result grew is wiped entry by entry when
// few slots are occupied, not as a whole on every small query after it.
func (p *partial) reset(t *table.Table) {
	p.tables = append(p.tables[:0], t)
	clear(p.ids)
	p.ids = append(p.ids[:0], table.KeyIDs{})
	if slots := p.tab.slots; 8*len(p.ents) < len(slots) {
		mask := uint64(len(slots) - 1)
		for i := range p.ents {
			h := p.ents[i].fp & mask
			for slots[h].ent != i+1 {
				h = (h + 1) & mask
			}
			slots[h] = fpSlot{}
		}
	} else {
		p.tab.reset()
	}
	p.ents = p.ents[:0]
	p.spill = nil
	p.fps, p.hashed, p.hashedRows = nil, false, 0
	p.idsRead, p.idsBuilt = false, 0
}

// release returns p to the pool. Nothing rendered from p refers to its
// scratch, so the Result outlives it; the pool must not pin a table's
// rows, its fingerprint column or its dictionary, so those references are
// dropped, and a partial one huge query grew is dropped whole.
func (p *partial) release() {
	clear(p.tables)
	clear(p.ids)
	p.spill = nil
	p.fps = nil
	if !poolable(cap(p.cols), cap(p.tables), cap(p.tab.slots), cap(p.ents), cap(p.scratch), cap(p.ids),
		p.idScratch.Cap(), cap(p.order), p.sorter.Cap(), cap(p.keys), cap(p.idx), cap(p.digits),
		cap(p.ends), cap(p.place)) {
		*p = partial{}
	}
	partialPool.Put(p)
}

// slot returns fp's entry, adding an empty one (no row, zero val) when
// the fingerprint is new. The pointer is good until the next slot call.
func (p *partial) slot(fp uint64) *partialEnt {
	if i := p.tab.find(fp); i != 0 {
		return &p.ents[i-1]
	}
	p.ents = append(p.ents, partialEnt{fp: fp, row: -1})
	mask := uint64(len(p.tab.slots) - 1)
	h := fp & mask
	for p.tab.slots[h].ent != 0 {
		h = (h + 1) & mask
	}
	p.tab.slots[h] = fpSlot{fp: fp, ent: len(p.ents)}
	if 2*len(p.ents) > len(p.tab.slots) {
		p.tab.grow()
	}
	return &p.ents[len(p.ents)-1]
}

// absorbFirst is DISTINCT's absorb: the first survivor carrying a
// fingerprint represents it.
func (p *partial) absorbFirst(fp uint64, row int) {
	if e := p.slot(fp); e.row < 0 {
		e.row = row
	}
}

// absorbMax is GROUP BY MAX's absorb.
func (p *partial) absorbMax(fp uint64, v int64, row int) {
	if e := p.slot(fp); e.row < 0 {
		e.row, e.val = row, v
	} else if v > e.val {
		e.val = v
	}
}

// absorbSum is GROUP BY SUM's absorb: v is an evicted or drained partial
// aggregate of the key fingerprinted fp. The packet carries no row — the
// switch summed many — so the entry's key waits for resolve.
func (p *partial) absorbSum(fp uint64, v int64) { p.slot(fp).val += v }

// hashKeys returns the fingerprint column of tables[0], fetching it on the
// pass's first call: a single key column's is the table's to keep
// (keyColumn) — hashed once per table, not per query, and read here; a
// multi-column key has no column to memoise on and is hashed per query, in
// one tight loop that no stream loop's branches stall. The scans of both
// streams start from it, and resolve and sumCandidates read it again.
func (p *partial) hashKeys(seed uint64) []uint64 {
	p.seed = seed
	if p.hashed {
		return p.fps
	}
	p.hashed = true
	t := p.tables[0]
	if len(p.cols) == 1 {
		p.fps, p.hashedRows = keyColumn(t, p.cols[0], seed, &p.scratch)
	} else {
		p.scratch = growU64(p.scratch, t.NumRows())
		accs := make([]colAcc, len(p.cols))
		for i, c := range p.cols {
			accs[i] = accessorFor(t, c)
		}
		for r := range p.scratch {
			p.scratch[r] = fingerprintAccs(accs, r, seed)
		}
		p.fps, p.hashedRows = p.scratch, t.NumRows()
	}
	return p.fps
}

// keyIDs returns tables[i]'s key ids under the seed the pass hashed with,
// asking the table on first use (single key column only). Only tables[0],
// the pass's own table, may build into scratch when the dictionary turns
// it away; a table a merge brought in is read off the dictionary or not
// at all (ok false).
func (p *partial) keyIDs(i int) (k table.KeyIDs, ok bool) {
	if k = p.ids[i]; !k.IsZero() {
		return k, true
	}
	t, c := p.tables[i], p.cols[0]
	k, built, ok := t.KeyIDs(c, p.seed)
	if !ok {
		if i != 0 {
			return table.KeyIDs{}, false
		}
		k, built = t.BuildKeyIDs(c, p.hashKeys(p.seed), &p.idScratch), t.NumRows()
	}
	p.ids[i], p.idsRead = k, true
	p.idsBuilt += built
	return k, true
}

// arrival returns the rows of tables[0] in the order their entries reach
// the switch — partitions stream concurrently, so entries arrive
// round-robin across the workers' partitions, exactly interleave's and
// batchPass's schedule — or nil for one worker, whose arrival order is
// the row order. The fused aggregation scans replay it as one flat loop.
func (p *partial) arrival(workers int) []int {
	if workers <= 1 {
		return nil
	}
	n := p.tables[0].NumRows()
	if cap(p.order) < n {
		p.order = make([]int, n)
	}
	order, starts := p.order[:0], rrStarts(0, n, workers)
	for k := 0; len(order) < n; k++ {
		for w := 0; w < workers; w++ {
			if r := starts[w] + k; r < starts[w+1] {
				order = append(order, r)
			}
		}
	}
	return order
}

// resolve gives every entry still without a representative row the first
// row of tables[0] whose key has the entry's fingerprint — GROUP BY
// SUM's late key lookup, run once after the drain over the handful of
// fingerprints that survived instead of once per stream entry. It stops
// at the row that resolves the last one. An entry no row resolves (a
// standing program drained state older than this table) renders an empty
// key.
func (p *partial) resolve(seed uint64) {
	missing := 0
	for i := range p.ents {
		if p.ents[i].row < 0 {
			missing++
		}
	}
	if missing == 0 {
		return
	}
	for r, fp := range p.hashKeys(seed) {
		if i := p.tab.find(fp); i != 0 && p.ents[i-1].row < 0 {
			p.ents[i-1].row = r
			if missing--; missing == 0 {
				return
			}
		}
	}
}

// sumCandidates is HAVING's exact second pass over tables[0]: the rows
// whose key fingerprint is a candidate's re-stream, and each adds its
// value to its key's sum. It returns how many re-streamed. A candidate's
// first row becomes its representative; a later row whose key id differs
// from the representative's shares only the fingerprint and is summed
// apart — the dictionary compared the cells once, when the table's rows
// got their ids, so no key byte is read here. No pruner state is touched,
// so plain row order gives the sums and counts any arrival order would.
// Without candidates — most of a subscription's small deltas — nothing
// re-streams and the dictionary is not touched.
func (p *partial) sumCandidates(vc int, seed uint64) (resent int) {
	if len(p.ents) == 0 {
		return 0
	}
	t := p.tables[0]
	fps := p.hashKeys(seed)
	k, _ := p.keyIDs(0)
	ids, vals := k.IDs, t.Int64Col(vc)
	for r, fp := range fps {
		i := p.tab.find(fp)
		if i == 0 {
			continue
		}
		resent++
		e := &p.ents[i-1]
		switch {
		case e.row < 0:
			e.row, e.val = r, vals[r]
		case ids[r] == ids[e.row]:
			e.val += vals[r]
		default:
			p.spillAdd(cellString(t, p.cols[0], r), vals[r])
		}
	}
	return resent
}

func (p *partial) spillAdd(key string, v int64) {
	if p.spill == nil {
		p.spill = map[string]int64{}
	}
	p.spill[key] += v
}

// copyCandidates makes p's entries a copy of g's — every shard starts
// HAVING's second pass from the union of all shards' candidates — and
// keeps p's own table and fingerprint column.
func (p *partial) copyCandidates(g *partial) {
	p.tab.slots = append(p.tab.slots[:0], g.tab.slots...)
	p.ents = append(p.ents[:0], g.ents...)
}

// sameKey reports whether entry e of p and entry oe of o hold one key:
// by id when both tables' ids come from one dictionary — shards are views
// of one root — and by the cells otherwise.
func (p *partial) sameKey(e *partialEnt, o *partial, oe *partialEnt) bool {
	if a, b := p.ids[e.tbl], o.ids[oe.tbl]; a.SameDict(b) {
		return a.IDs[e.row] == b.IDs[oe.row]
	}
	a, b, c := p.tables[e.tbl], o.tables[oe.tbl], p.cols[0]
	if a.ColumnType(c) == table.String {
		return a.StringAt(c, e.row) == b.StringAt(c, oe.row)
	}
	return a.Int64At(c, e.row) == b.Int64At(c, oe.row)
}

// merge folds o into p; o is left untouched. An entry new to p brings
// its representative row along (the first partial to name a fingerprint
// keeps it: any row of the same key renders the same).
func (p *partial) merge(o *partial) {
	base := len(p.tables)
	p.tables = append(p.tables, o.tables...)
	p.ids = append(p.ids, o.ids...)
	for i := range o.ents {
		oe := &o.ents[i]
		e := p.slot(oe.fp)
		fresh := e.row < 0
		if fresh && oe.row >= 0 {
			e.tbl, e.row = base+oe.tbl, oe.row
		}
		switch p.kind {
		case KindGroupByMax:
			if fresh || oe.val > e.val {
				e.val = oe.val
			}
		case KindGroupBySum:
			e.val += oe.val
		case KindHaving:
			// A rowless entry is a bare candidate: its sum is still zero.
			if fresh || oe.row < 0 || p.sameKey(e, o, oe) {
				e.val += oe.val
			} else {
				p.spillAdd(cellString(o.tables[oe.tbl], p.cols[0], oe.row), oe.val)
			}
		}
	}
	for k, v := range o.spill {
		p.spillAdd(k, v)
	}
}

// key renders entry e's key cell in column c.
func (p *partial) key(e *partialEnt, c int) string {
	if e.row < 0 {
		return ""
	}
	return cellString(p.tables[e.tbl], c, e.row)
}

// rankedOrder puts idx — entries of p, each with a representative row —
// into the canonical order of their keys by the dictionary's ranks
// (placeByRank). That costs O(dictionary + entries), so it is taken only
// when the entries are at least a quarter of the dictionary's keys —
// weighed against the dictionary as published, before anything is
// extended or ranked, so that a small result over a large table (a
// subscription's 256-row delta) keeps the radix sort and never touches
// the dictionary — and more than the radix sort leaves to its insertion
// sort, which a dictionary would not beat. ok reports whether idx was
// ordered; nul whether a ranked key contains NUL.
func (p *partial) rankedOrder(idx []int32) (ok, nul bool) {
	if len(p.cols) != 1 || !p.hashed || len(idx) < radix.MinSize ||
		4*len(idx) < p.tables[0].KeyDictLen(p.cols[0], p.seed) {
		return false, false
	}
	return p.placeByRank(idx)
}

// placeByRank orders idx by rank: one slot per rank, each entry dropped
// into its key's, then one pass over the slots — no key byte touched.
// Every entry's table must read its ids from one dictionary; ok is false,
// and idx untouched, when one does not.
func (p *partial) placeByRank(idx []int32) (ok, nul bool) {
	if len(idx) == 0 {
		return true, false
	}
	var dict table.KeyIDs
	for _, j := range idx {
		e := &p.ents[j]
		k, ok := p.keyIDs(e.tbl)
		if !ok || e.row < 0 || !dict.IsZero() && !k.SameDict(dict) {
			return false, false
		}
		if dict.IsZero() || k.Len() > dict.Len() {
			dict = k // the ids reaching furthest: its ranks cover every id
		}
	}
	rank, nul := dict.Ranks()
	if cap(p.place) < len(rank) {
		p.place = make([]int32, len(rank))
	}
	place := p.place[:len(rank)]
	clear(place)
	for _, j := range idx {
		e := &p.ents[j]
		place[rank[p.ids[e.tbl].IDs[e.row]]] = j + 1
	}
	w := 0
	for _, j := range place {
		if j != 0 {
			idx[w], w = j-1, w+1
		}
	}
	return true, nul
}

// orderKeys renders the key cells of entries idx (single key column) into
// keys and puts both into the canonical order of the keys: by rank when
// rankedOrder can, by the radix sort otherwise. exact reports whether, as
// the first cells of rows, the keys are also in Result.Sort's order
// whatever the other cells hold (keyOrderExact) — which needs no key byte
// when no ranked key holds NUL. Entries still without a row render empty
// keys in no particular order, and exact is false.
func (p *partial) orderKeys(idx []int32, keys []string) (exact bool) {
	resolved := true
	for _, j := range idx {
		resolved = resolved && p.ents[j].row >= 0
	}
	ranked, nul := false, false
	if resolved {
		ranked, nul = p.rankedOrder(idx)
	}
	for i, j := range idx {
		keys[i] = p.key(&p.ents[j], p.cols[0])
	}
	switch {
	case !resolved:
		return false
	case ranked && !nul:
		return true
	case !ranked:
		p.sorter.Sort(keys, idx)
	}
	return keyOrderExact(keys)
}

// anyEntry accepts every entry.
func anyEntry(*partialEnt) bool { return true }

// entries returns p.idx filled with the indices of the entries keep
// accepts.
func (p *partial) entries(keep func(e *partialEnt) bool) []int32 {
	idx := p.idx[:0]
	for i := range p.ents {
		if keep(&p.ents[i]) {
			idx = append(idx, int32(i))
		}
	}
	p.idx = idx
	return idx
}

// render returns the kind's Result over p's entries, in Result.Sort's
// order, holding no reference to p.
func (p *partial) render(q *Query) *Result {
	switch p.kind {
	case KindDistinct:
		res := &Result{Columns: append([]string(nil), q.DistinctCols...)}
		if len(p.cols) == 1 {
			idx := p.entries(anyEntry)
			cells := make([]string, len(idx))
			p.orderKeys(idx, cells)
			res.Rows = singleCellRows(cells)
			return res
		}
		nc := len(p.cols)
		res.Rows = make([][]string, len(p.ents))
		backing := make([]string, len(p.ents)*nc)
		for i := range p.ents {
			row := backing[i*nc : (i+1)*nc : (i+1)*nc]
			for k, c := range p.cols {
				row[k] = p.key(&p.ents[i], c)
			}
			res.Rows[i] = row
		}
		res.Sort()
		return res
	case KindHaving:
		var cells []string
		if p.spill == nil {
			idx := p.entries(func(e *partialEnt) bool { return e.row >= 0 && e.val > q.Threshold })
			cells = make([]string, len(idx))
			p.orderKeys(idx, cells)
		} else {
			// Fingerprints collided, and merges may have left one key's sum
			// part in an entry and part spilt: total by key string.
			totals := maps.Clone(p.spill)
			for i := range p.ents {
				if e := &p.ents[i]; e.row >= 0 {
					totals[p.key(e, p.cols[0])] += e.val
				}
			}
			for k, v := range totals {
				if v > q.Threshold {
					cells = append(cells, k)
				}
			}
			p.sorter.Sort(cells, nil)
		}
		return &Result{Columns: []string{q.KeyCol}, Rows: singleCellRows(cells)}
	case KindGroupByMax:
		return p.renderKeyed(q, "max(")
	default:
		return p.renderKeyed(q, "sum(")
	}
}

// renderKeyed renders GROUP BY's (key, aggregate) rows. The keys are
// unique, so the rows' canonical order is the keys' order: keys and entry
// indices are put in order together (orderKeys), and the rows are then
// built in place, in order — two cells each in one backing array, every
// value cell a slice of one digit string. Key order and Result.Sort
// disagree in one case only: Result.Sort compares "\x00"-joined rows once
// a cell contains NUL, and a key followed by NUL is another key's prefix
// (keyOrderExact). That, and unresolved entries sharing the empty key,
// sort through Result.Sort itself.
func (p *partial) renderKeyed(q *Query, agg string) *Result {
	n := len(p.ents)
	if cap(p.keys) < n {
		p.keys, p.ends = make([]string, n), make([]int, n)
	}
	keys, ends := p.keys[:n], p.ends[:n]
	idx := p.entries(anyEntry)
	exact := p.orderKeys(idx, keys)
	digits := p.digits[:0]
	for i, j := range idx {
		digits = strconv.AppendInt(digits, p.ents[j].val, 10)
		ends[i] = len(digits)
	}
	p.digits = digits
	vals := string(digits)
	rows := make([][]string, n)
	backing := make([]string, 2*n)
	lo := 0
	for i := range rows {
		row := backing[2*i : 2*i+2 : 2*i+2]
		row[0], row[1] = keys[i], vals[lo:ends[i]]
		rows[i], lo = row, ends[i]
	}
	clear(keys) // the pooled scratch must not pin the tables' strings
	res := &Result{Columns: []string{q.KeyCol, agg + q.AggCol + ")"}, Rows: rows}
	if !exact {
		res.Sort()
	}
	return res
}

// keyOrderExact reports whether sorted, unique keys are also in the order
// of their "\x00"-joined rows whatever the other cells hold. They are
// unless some key is another key followed by NUL: then the separator
// ties with that NUL and the next cell decides. In sorted order such a
// pair has the shorter key first and nothing but keys of that shape
// between them, so checking neighbours finds it — at the cost of a byte,
// and only where a key is longer than its predecessor.
func keyOrderExact(keys []string) bool {
	for i := 1; i < len(keys); i++ {
		a, b := keys[i-1], keys[i]
		if len(b) > len(a) && b[len(a)] == 0 && b[:len(a)] == a {
			return false
		}
	}
	return true
}
