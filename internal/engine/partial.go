package engine

// The master-side partial result of the four aggregation kinds —
// DISTINCT, GROUP BY MAX, GROUP BY SUM, HAVING — and the only place
// their completion is written. A partial is a set of entries keyed by key
// id with three operations: absorb one survivor of the switch, merge
// another partial, render the sorted Result. Every executor feeds it: the
// fused loops and the batch sinks absorb, the sharded path builds one
// partial per shard, and all of them complete the same way. Absorb and
// merge commute and associate up to entry order, which the completion's
// order erases, so any split of the survivors over any number of
// partials, merged in any order, renders the same Result.
//
// One id space per query. A query's key column is resolved once, on the
// unsplit table (keyPartials): every row's fingerprint off the table's
// memo and its key id off the table's dictionary (table.KeyIDs) — for a
// subscription's small delta, among the delta's own rows (memoServes) —
// and each shard's partial reads its rows' slices of both. So the k
// partials of a sharded run share their ids, and an entry is an id and a
// value:
//
//	DISTINCT      the key, absorbed by the survivor's row's id
//	GROUP BY MAX  maximum, absorbed likewise
//	GROUP BY SUM  sum: the switch hands the master (fingerprint, sum)
//	              pairs with no row, kept by fingerprint until the drain
//	              is over; resolve then keys each by the id of the first
//	              row carrying its fingerprint — every pair has one, as
//	              the pass's program holds no sums older than the pass
//	HAVING        exact sum: the switch nominates fingerprints; the
//	              second pass (sumCandidates) sums every row whose
//	              fingerprint is a candidate into its own id's entry
//
// A multi-column DISTINCT has no dictionary: its entries stay keyed by
// the tuple's fingerprint, with the first survivor's row.
//
// Completion (completeAgg). When the result holds at least a quarter of
// the dictionary's keys (ranked), k goroutines each walk a k-th of the
// dictionary's canonical order and fold every partial's entry for each id
// of their range, then each renders a k-th of the rows (rankedRows); ranks
// are global, so the ranges concatenate into the answer with no key
// compared and nothing merged. Below that — a small result over a large table — the partials
// fold into the first, serially, and its key cells go through the radix
// sort. Either way key cells are rendered late, from the dictionary, once
// per result row, and the rows are built in their final order: one unique
// key cell first, so byte-wise key order is CompareRows' order, and no
// row is compared after they are built.
//
// Exactness. The switch identifies a key with its fingerprint: two keys
// sharing one may be pruned (DISTINCT, GROUP BY MAX) or summed (GROUP BY
// SUM) as one before the master sees them, and Theorem 4's 1-δ guarantee
// covers that. The master no longer adds to it. Keyed by id, it keeps
// apart every pair of keys a survivor tells apart: a DISTINCT or GROUP BY
// MAX survivor of either key is its own key's, and a GROUP BY SUM sum
// resolved in two shards to two keys stays two rows — where a
// fingerprint-keyed master merged them under one key. So an id-keyed
// master can only move a Result toward ExecDirect. HAVING's switch only
// nominates: the second pass re-streams every row of a candidate
// fingerprint and sums it by id, so a key that merely shares a
// candidate's fingerprint gets its own exact sum, and HAVING stays exact
// under collisions.

import (
	"slices"
	"strconv"
	"sync"

	"cheetah/internal/cacheline"
	"cheetah/internal/radix"
	"cheetah/internal/table"
)

// keySlot is one slot of a keyTable: a key and what its owner keeps with
// it — an entry index + 1, a count — which is never 0 once the slot is
// taken: 0 marks an empty slot.
type keySlot[K uint32 | uint64] struct {
	key K
	v   uint32
}

// keyTable indexes keys — key ids, or fingerprints where the master has
// no id — by open addressing over a power-of-two slot array with linear
// probing, at most 3/4 full. A key's low bits place it: ids are dense from
// 0, so over a table's ids the slots are all but direct-mapped, and
// fingerprints are Mix64 outputs.
type keyTable[K uint32 | uint64] struct {
	slots []keySlot[K]
	n     int // keys held
}

// The key tables of the partial: by id, by fingerprint.
type (
	idTable = keyTable[uint32]
	fpTable = keyTable[uint64]
)

// keyTableMinSlots is the slot count a table starts from.
const keyTableMinSlots = 1 << 10

// claim takes an empty slot for key, which t does not hold; the caller
// makes its v non-zero before the next claim. The pointer is good until
// then.
func (t *keyTable[K]) claim(key K) *keySlot[K] {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	h := uint64(key) & mask
	for t.slots[h].v != 0 {
		h = (h + 1) & mask
	}
	t.n++
	s := &t.slots[h]
	s.key = key
	return s
}

// find returns the slot of key, nil when t holds none.
func (t *keyTable[K]) find(key K) *keySlot[K] {
	mask := uint64(len(t.slots) - 1)
	for h := uint64(key) & mask; t.n > 0; h = (h + 1) & mask {
		s := &t.slots[h]
		if s.v == 0 {
			return nil
		}
		if s.key == key {
			return s
		}
	}
	return nil
}

// grow doubles the slot array; keys are distinct, so re-placing them
// needs no comparison.
func (t *keyTable[K]) grow() {
	old := t.slots
	t.slots = make([]keySlot[K], max(2*len(old), keyTableMinSlots))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.v == 0 {
			continue
		}
		h := uint64(s.key) & mask
		for t.slots[h].v != 0 {
			h = (h + 1) & mask
		}
		t.slots[h] = s
	}
}

// reset empties t; key(i) is the i-th of the keys it holds, in any order.
// A table one large result grew is wiped key by key when they take few of
// its slots, not as a whole on every small query after it.
func (t *keyTable[K]) reset(key func(i int) K) {
	if 8*t.n < len(t.slots) {
		mask := uint64(len(t.slots) - 1)
		for i := 0; i < t.n; i++ {
			k := key(i)
			h := uint64(k) & mask
			for t.slots[h].v == 0 || t.slots[h].key != k {
				h = (h + 1) & mask
			}
			t.slots[h] = keySlot[K]{}
		}
	} else {
		clear(t.slots)
	}
	t.n = 0
}

// idEnt is one key's entry: its id and its value — GROUP BY MAX's
// maximum, GROUP BY SUM's and HAVING's sum; DISTINCT's stays zero.
type idEnt struct {
	id  uint32
	val int64
}

// fpEnt is one fingerprint's entry, where the master holds a fingerprint
// and no key id: a multi-column DISTINCT key, with its first survivor's
// row of t; a GROUP BY SUM sum before resolve, which gives it its first
// row; a HAVING candidate. row < 0 means no row yet.
type fpEnt struct {
	fp  uint64
	val int64
	row int
	t   *table.Table
}

// partial is one kind's partial result over one table: a pass's shard, or
// the whole table.
type partial struct {
	kind QueryKind
	cols []int        // the key column(s)
	t    *table.Table // the pass's table
	// The key column of t's rows: fps[r] and ids[r] are row r's
	// fingerprint and key id, and dict the dictionary the ids come from —
	// slices of the query's, resolved once (keyPartials). A multi-column
	// key has fingerprints only, hashed per partial into scratch.
	// hashedRows and idsBuilt are how many of its rows resolving hashed
	// and built: the span notes.
	fps        []uint64
	ids        []uint32
	dict       table.KeyIDs
	hashed     bool
	hashedRows int
	idsBuilt   int
	scratch    []uint64
	idScratch  table.KeyIDScratch
	byID       idTable
	ents       []idEnt
	byFP       fpTable
	fpEnts     []fpEnt
	order      []int // arrival's scratch
	// The serial render's scratch: the radix sort and the entry indices it
	// orders with the key cells; and the rows' (rowScratch), which the
	// parallel completion lends to the rank range of p's shard.
	sorter radix.Sorter
	idx    []int32
	rows   rowScratch
}

// rowScratch is the reusable memory of rendering keyed rows: a rank
// range's kept ids and their values (rankedRows), the key cells and
// values of the rows one renderer builds, in order, before they are rows,
// and the values' digits.
type rowScratch struct {
	ids    []uint32
	kept   []int64
	cells  []string
	vals   []int64
	digits []byte
	ends   []int
}

// caps lists the capacities of sc's slices, for poolable.
func (sc *rowScratch) caps() []int {
	return []int{cap(sc.ids), cap(sc.kept), cap(sc.cells), cap(sc.vals), cap(sc.digits), cap(sc.ends)}
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
	p.kind, p.t = q.Kind, q.Table
	names := q.DistinctCols
	if q.Kind != KindDistinct {
		names = []string{q.KeyCol}
	}
	p.cols = p.cols[:0]
	for _, name := range names {
		p.cols = append(p.cols, q.Table.Schema().MustIndex(name))
	}
	p.reset()
	return p
}

// keyPartials gives partials — over contiguous views of t, a query's
// unsplit table — their rows' slices of t's key column, resolved once
// under seed: the fingerprints off the table's memo and the ids off its
// dictionary, or, for a handle they turn away, hashed and built into the
// first partial's scratch. Each partial counts, for the span notes, the
// rows of its own that resolving hashed and built — a memo extends over
// the rows past its end and scratch holds all of t's, so those are t's
// last rows — and the counts add up to the query's. A multi-column key
// has none to resolve.
func keyPartials(t *table.Table, partials []*partial, seed uint64) {
	p0 := partials[0]
	if len(p0.cols) != 1 {
		return
	}
	fps, hashed := keyColumn(t, p0.cols[0], seed, &p0.scratch)
	dict, built := keyIDs(t, p0.cols[0], seed, fps, &p0.idScratch)
	n := t.NumRows()
	for _, p := range partials {
		lo := p.t.RootOffset() - t.RootOffset()
		hi := lo + p.t.NumRows()
		p.fps, p.ids, p.dict = fps[lo:hi:hi], dict.IDs[lo:hi:hi], dict
		p.hashed = true
		p.hashedRows, p.idsBuilt = max(0, hi-max(lo, n-hashed)), max(0, hi-max(lo, n-built))
	}
}

// reset empties p's entries for a fresh pass over its table — a failover
// redo starts here — keeping its key column.
func (p *partial) reset() {
	p.byID.reset(func(i int) uint32 { return p.ents[i].id })
	p.ents = p.ents[:0]
	p.byFP.reset(func(i int) uint64 { return p.fpEnts[i].fp })
	p.fpEnts = p.fpEnts[:0]
}

// release returns p to the pool. Nothing rendered from p refers to its
// scratch, so the Result outlives it; the pool must not pin a table's
// rows, its fingerprint column or its dictionary, so those references are
// dropped, and a partial one huge query grew is dropped whole.
func (p *partial) release() {
	p.t, p.fps, p.ids, p.dict = nil, nil, nil, table.KeyIDs{}
	p.hashed, p.hashedRows, p.idsBuilt = false, 0, 0
	p.reset()
	clear(p.fpEnts[:cap(p.fpEnts)])
	if !poolable(append(p.rows.caps(), cap(p.cols), cap(p.scratch), p.idScratch.Cap(), cap(p.byID.slots),
		cap(p.ents), cap(p.byFP.slots), cap(p.fpEnts), cap(p.order), p.sorter.Cap(),
		cap(p.idx))...) {
		*p = partial{}
	}
	partialPool.Put(p)
}

// idEnt returns id's entry, adding an empty one when the id is new
// (fresh). The pointer is good until the next idEnt call.
func (p *partial) idEnt(id uint32) (e *idEnt, fresh bool) {
	if s := p.byID.find(id); s != nil {
		return &p.ents[s.v-1], false
	}
	p.ents = append(p.ents, idEnt{id: id})
	p.byID.claim(id).v = uint32(len(p.ents))
	return &p.ents[len(p.ents)-1], true
}

// fpEnt returns fp's entry, adding an empty one (no row, zero val) when
// the fingerprint is new (fresh). The pointer is good until the next
// fpEnt call.
func (p *partial) fpEnt(fp uint64) (e *fpEnt, fresh bool) {
	if s := p.byFP.find(fp); s != nil {
		return &p.fpEnts[s.v-1], false
	}
	p.fpEnts = append(p.fpEnts, fpEnt{fp: fp, row: -1})
	p.byFP.claim(fp).v = uint32(len(p.fpEnts))
	return &p.fpEnts[len(p.fpEnts)-1], true
}

// absorbFirst is DISTINCT's absorb: forwarded row r, fingerprinted fp,
// names its key — by id, or, for a multi-column key, by the fingerprint,
// whose first survivor represents it.
func (p *partial) absorbFirst(fp uint64, r int) {
	if len(p.cols) == 1 {
		p.idEnt(p.ids[r])
	} else if e, fresh := p.fpEnt(fp); fresh {
		e.row, e.t = r, p.t
	}
}

// absorbMax is GROUP BY MAX's absorb of forwarded row r's value v.
func (p *partial) absorbMax(v int64, r int) {
	if e, fresh := p.idEnt(p.ids[r]); fresh || v > e.val {
		e.val = v
	}
}

// absorbSum is GROUP BY SUM's absorb: v is an evicted or drained partial
// aggregate of the key fingerprinted fp. The packet carries no row — the
// switch summed many — so the entry's key waits for resolve.
func (p *partial) absorbSum(fp uint64, v int64) {
	e, _ := p.fpEnt(fp)
	e.val += v
}

// nominate is HAVING's absorb: fp is a candidate.
func (p *partial) nominate(fp uint64) { p.fpEnt(fp) }

// hashKeys returns the fingerprint column of p's table, resolving it on
// the pass's first call when keyPartials has not: a single key column's
// fingerprints and ids are the table's to keep — hashed and built once
// per table, not per query, and read here; a multi-column key
// has no column to memoise on and is hashed per query, in one tight loop
// that no stream loop's branches stall. The scans of both streams start
// from it, and resolve and sumCandidates read it again.
func (p *partial) hashKeys(seed uint64) []uint64 {
	if p.hashed {
		return p.fps
	}
	if len(p.cols) == 1 {
		keyPartials(p.t, []*partial{p}, seed)
		return p.fps
	}
	p.hashed = true
	p.scratch = growU64(p.scratch, p.t.NumRows())
	accs := make([]colAcc, len(p.cols))
	for i, c := range p.cols {
		accs[i] = accessorFor(p.t, c)
	}
	for r := range p.scratch {
		p.scratch[r] = fingerprintAccs(accs, r, seed)
	}
	p.fps, p.hashedRows = p.scratch, p.t.NumRows()
	return p.fps
}

// arrival returns the rows of p's table in the order their entries reach
// the switch — partitions stream concurrently, so entries arrive
// round-robin across the workers' partitions (rrCycles), as in the
// chunked pipeline — or nil for one worker, whose arrival order is the
// row order. The fused aggregation scans replay it as one flat loop.
func (p *partial) arrival(workers int) []int {
	if workers <= 1 {
		return nil
	}
	n := p.t.NumRows()
	p.order = rrCycles(slices.Grow(p.order[:0], n), rrStarts(0, n, workers), 0, n/workers+1)
	return p.order
}

// resolve keys GROUP BY SUM's drained sums by id: each takes the id of the
// first row carrying its fingerprint — the late key lookup, run once after
// the drain over the handful of fingerprints that survived instead of once
// per stream entry, stopping at the row that resolves the last one. Equal
// keys have equal fingerprints, so no two sums resolve to one id. Every
// sum was summed from the pass's own rows (pass.agg), so a row resolves
// each.
func (p *partial) resolve() {
	missing := len(p.fpEnts)
	for r, fp := range p.fps {
		if missing == 0 {
			break
		}
		if c := p.byFP.find(fp); c != nil && p.fpEnts[c.v-1].row < 0 {
			fe := &p.fpEnts[c.v-1]
			fe.row = r
			e, _ := p.idEnt(p.ids[r])
			e.val += fe.val
			missing--
		}
	}
}

// sumCandidates is HAVING's exact second pass over p's table: the rows
// whose key fingerprint is a candidate's re-stream, and each adds its
// value to its key's sum. It returns how many re-streamed. A candidate's
// first row becomes its representative, and the rows of its key sum into
// the candidate; a later row whose key id differs from the
// representative's shares only the fingerprint and sums into its own id's
// entry — the dictionary compared the cells once, when the table's rows
// got their ids, so no key byte is read here. The candidates' sums then
// join their representatives' ids. No pruner state is touched, so plain
// row order gives the sums and counts any arrival order would. Without
// candidates — most of a subscription's small deltas — nothing re-streams.
func (p *partial) sumCandidates(vc int) (resent int) {
	if len(p.fpEnts) == 0 {
		return 0
	}
	vals := p.t.Int64Col(vc)
	for r, fp := range p.fps {
		s := p.byFP.find(fp)
		if s == nil {
			continue
		}
		resent++
		switch c := &p.fpEnts[s.v-1]; {
		case c.row < 0:
			c.row, c.val = r, vals[r]
		case p.ids[r] == p.ids[c.row]:
			c.val += vals[r]
		default:
			e, _ := p.idEnt(p.ids[r])
			e.val += vals[r]
		}
	}
	for _, c := range p.fpEnts {
		if c.row >= 0 {
			e, _ := p.idEnt(p.ids[c.row])
			e.val += c.val
		}
	}
	return resent
}

// unionCandidates adds o's HAVING candidates to p's.
func (p *partial) unionCandidates(o *partial) {
	for i := range o.fpEnts {
		p.nominate(o.fpEnts[i].fp)
	}
}

// copyCandidates makes p's candidates a copy of g's — every shard starts
// HAVING's second pass from the union of all shards' candidates.
func (p *partial) copyCandidates(g *partial) {
	p.byFP.slots, p.byFP.n = append(p.byFP.slots[:0], g.byFP.slots...), g.byFP.n
	p.fpEnts = append(p.fpEnts[:0], g.fpEnts...)
}

// merge folds o into p, both over one query's id space; o is left
// untouched. A multi-column key new to p brings its representative row
// along (the first partial to name a fingerprint keeps it: any row of the
// same key renders the same).
func (p *partial) merge(o *partial) {
	if o.dict.Len() > p.dict.Len() {
		p.dict = o.dict // the view reaching furthest renders every id
	}
	for _, oe := range o.ents {
		e, fresh := p.idEnt(oe.id)
		if p.kind != KindGroupByMax {
			e.val += oe.val
		} else if fresh || oe.val > e.val {
			e.val = oe.val
		}
	}
	if len(p.cols) > 1 {
		for _, oe := range o.fpEnts {
			if e, fresh := p.fpEnt(oe.fp); fresh {
				e.row, e.t = oe.row, oe.t
			}
		}
	}
}

// grouped reports whether kind's rows carry a value cell beside the key:
// GROUP BY's aggregate, JOIN's pair count.
func grouped(kind QueryKind) bool {
	return kind == KindGroupByMax || kind == KindGroupBySum || kind == KindJoin
}

// aggRows fills rows, one per key, with the rows of keys given in order:
// cells[i] alone, which the row then shares, or — grouped — beside
// vals[i], two cells a row in one backing array and every value cell a
// slice of one digit string. Grouped, cells and vals are scratch, kept in
// sc with its digits for the next render.
func aggRows(grouped bool, rows [][]string, cells []string, vals []int64, sc *rowScratch) {
	if !grouped {
		for i := range rows {
			rows[i] = cells[i : i+1 : i+1]
		}
		return
	}
	digits, ends := sc.digits[:0], sc.ends[:0]
	for _, v := range vals {
		digits = strconv.AppendInt(digits, v, 10)
		ends = append(ends, len(digits))
	}
	all := string(digits)
	backing := make([]string, 2*len(rows))
	lo := 0
	for i := range rows {
		row := backing[2*i : 2*i+2 : 2*i+2]
		row[0], row[1] = cells[i], all[lo:ends[i]]
		rows[i], lo = row, ends[i]
	}
	clear(cells) // the pooled scratch must not pin the tables' strings
	sc.cells, sc.vals, sc.digits, sc.ends = cells[:0], vals[:0], digits, ends
}

// ranked reports whether the completion walks the dictionary's order
// (completeRanked): it costs O(dictionary), so only a result holding at
// least a quarter of the dictionary's keys — judged by the largest
// partial, a lower bound of the union — takes it, and only one of more
// keys than the radix sort leaves to its insertion sort, which no
// dictionary beats. (A subscription's delta reads a dictionary of its own
// rows, not the table's: see memoServes.)
func ranked(partials []*partial) bool {
	n := 0
	for _, p := range partials {
		if len(p.cols) != 1 {
			return false
		}
		n = max(n, len(p.ents))
	}
	return n >= radix.MinSize && 4*n >= partials[0].dict.Len()
}

// rankRangeMin is the fewest ids a rank range walks on a goroutine of its
// own: a small result — a subscription's delta — is walked in one.
const rankRangeMin = 1 << 10

// completeRanked is the completion of a ranked result: rankedRows over
// the dictionary's order, each range folding every partial's entry for
// each id of its own (fold).
func completeRanked(q *Query, partials []*partial) (*Result, error) {
	dict := partials[0].dict
	order := dict.Order()
	g := grouped(q.Kind)
	rs := make([]*rowScratch, min(len(partials), max(1, len(order)/rankRangeMin)))
	for s := range rs {
		rs[s] = &partials[s].rows
	}
	rows, err := rankedRows(dict, order, g, rs, func(ids, keep []uint32, vals []int64) ([]uint32, []int64) {
		for _, id := range ids {
			if v, ok := fold(q, partials, id); ok {
				keep = append(keep, id)
				if g {
					vals = append(vals, v)
				}
			}
		}
		return keep, vals
	})
	if err != nil {
		return nil, err
	}
	return &Result{Columns: ResultColumns(q), Rows: rows}, nil
}

// rankedRows renders a ranked completion's rows in len(rs) parallel
// steps, twice over. First step s takes the s-th k-th of order — ids in
// the canonical order of their keys — and collect appends to the ids (and,
// grouped, the values) it is handed those of its ids the result holds, in
// order, into rs[s]. Ranks are global, so those lists concatenate into the
// answer's keys with no key compared and nothing merged. Then step j
// renders the j-th k-th of the rows so listed — however the result's keys
// fall in the dictionary, each step renders as many — at its offset of
// one row slice: key cells from dict (KeyIDs.Cell), values from one digit
// string (aggRows), with rs[j] as its scratch. err is a panic of a step
// (forEachShard).
func rankedRows(dict table.KeyIDs, order []uint32, g bool, rs []*rowScratch,
	collect func(ids, keep []uint32, vals []int64) ([]uint32, []int64)) ([][]string, error) {
	k := len(rs)
	err := forEachShard(k, func(s int) error {
		sc := rs[s]
		sc.ids, sc.kept = collect(order[s*len(order)/k:(s+1)*len(order)/k], sc.ids[:0], sc.kept[:0])
		return nil
	})
	if err != nil {
		return nil, err
	}
	offs := make([]int, k+1)
	for s, sc := range rs {
		offs[s+1] = offs[s] + len(sc.ids)
	}
	n := offs[k]
	rows := make([][]string, n)
	steps := min(k, max(1, n/rankRangeMin))
	err = forEachShard(steps, func(j int) error {
		lo, hi := j*n/steps, (j+1)*n/steps
		sc := rs[j]
		cells, vals := sc.cells[:0], sc.vals[:0]
		if !g {
			cells = make([]string, 0, hi-lo) // the rows' own
		}
		for s, from := range rs {
			for i := max(lo, offs[s]); i < min(hi, offs[s+1]); i++ {
				cells = append(cells, dict.Cell(from.ids[i-offs[s]]))
				if g {
					vals = append(vals, from.kept[i-offs[s]])
				}
			}
		}
		aggRows(g, rows[lo:hi], cells, vals, sc)
		return nil
	})
	return rows, err
}

// fold combines every partial's entry for id — the maximum, the sum, or
// for DISTINCT the key alone. ok is false when no partial holds id, or
// when a HAVING sum does not pass the threshold.
func fold(q *Query, partials []*partial, id uint32) (v int64, ok bool) {
	for _, p := range partials {
		s := p.byID.find(id)
		if s == nil {
			continue
		}
		switch e := p.ents[s.v-1].val; {
		case !ok:
			v, ok = e, true
		case q.Kind != KindGroupByMax:
			v += e
		case e > v:
			v = e
		}
	}
	return v, ok && (q.Kind != KindHaving || v > q.Threshold)
}

// render is the serial completion, over p's entries after every other
// partial merged into it: the key cells of the entries the kind keeps
// are rendered from the dictionary and radix-sorted with their entries'
// indices, and the rows are built in that order, which is final. A
// multi-column key's rows render from their representative rows and sort
// whole.
func (p *partial) render(q *Query) *Result {
	if len(p.cols) > 1 {
		nc := len(p.cols)
		rows := make([][]string, len(p.fpEnts))
		backing := make([]string, len(p.fpEnts)*nc)
		for i, e := range p.fpEnts {
			row := backing[i*nc : (i+1)*nc : (i+1)*nc]
			for k, c := range p.cols {
				row[k] = cellString(e.t, c, e.row)
			}
			rows[i] = row
		}
		res := &Result{Columns: ResultColumns(q), Rows: rows}
		res.Sort()
		return res
	}
	idx := p.idx[:0]
	for i := range p.ents {
		if q.Kind != KindHaving || p.ents[i].val > q.Threshold {
			idx = append(idx, int32(i))
		}
	}
	p.idx = idx
	g := grouped(q.Kind)
	cells, vals := p.rows.cells[:0], p.rows.vals[:0]
	if !g {
		cells = make([]string, 0, len(idx)) // the rows' own
	}
	for _, j := range idx {
		cells = append(cells, p.dict.Cell(p.ents[j].id))
	}
	p.sorter.Sort(cells, idx)
	if g {
		for _, j := range idx {
			vals = append(vals, p.ents[j].val)
		}
	}
	rows := make([][]string, len(cells))
	aggRows(g, rows, cells, vals, &p.rows)
	return &Result{Columns: ResultColumns(q), Rows: rows}
}
