package engine

// JOIN's way through the pruned executors. The worker side hashes no key
// a pass before it has hashed: each side's key fingerprints are a column
// the table keeps (table.KeyFingerprints), and survivor row ids reach the
// master. The fused passes test each key once, not each row: a side's
// rows are gathered to its distinct key ids (gather), the build pass
// trains the filter on their fingerprints in one batched call
// (sketch.Membership.AddMany), and the probe pass tests them in another
// (ContainsMany), then keeps the rows whose key id tested positive — exact,
// because equal key ids are equal keys, Add is idempotent on the bits and
// Contains reads only (fuse.go's third relaxation). A side whose
// dictionary gives every row a key of its own (KeyIDs.Distinct — a
// dimension table's key) has nothing to gather: its spans' fingerprints
// train and probe as they lie. The chunked passes (batchJoinPasses) still
// stream one Process call per entry. The master matches no key per query
// either: each side's table keeps a key dictionary (table.KeyIDs), and the
// left one keeps the map from the right side's key ids to its own
// (KeyIDs.Map) — built once per pair of dictionaries, by fingerprint plus
// one cell comparison per key, so two keys that collide on a fingerprint
// stay two keys and the answer is exact. So a pass counts each side's
// survivors per key id and joins the counts through the map (pairCounts):
// integer work, reading no key cell.
//
// Every pass of a query reads one id space: both sides' fingerprint
// columns and key ids and the key map between them are loaded once, before
// the passes (joinPairs.load, like keyPartials), at every shard count. A
// sharded JOIN's pass streams its key shards — the increasing lists of the
// rows of each unsharded handle that hash to it (table.ShardKeys) — as
// those rows' fingerprints and ids, gathered contiguous and kept beside
// the lists (table.KeyShardColumns): positions, which it streams as a
// one-shard pass streams rows. The pair counts meet in one array
// (joinPairs), indexed by the right handle's key ids, and the completion
// (completeJoin) renders the joined keys in that dictionary's canonical
// order (KeyIDs.Order), in parallel rank ranges like the aggregation
// kinds' ranked completion: no pass sorts and no rows merge. Matching keys
// are co-located, so the passes write disjoint entries.
// execJoin, the plain string-keyed join, stays what ExecDirect runs and
// what the tests compare against. Keys of two column types never meet on
// the switch (MixedJoinKeys), so no pruned path takes them.

import (
	"slices"
	"strconv"
	"sync"

	"cheetah/internal/prune"
	"cheetah/internal/sketch"
	"cheetah/internal/table"
)

// joinSide is one JOIN input as one pass streams it, by position: col and
// ids, the fingerprints and key ids of its rows — the handle's by row, or
// its key shard's rows' (use) — and keys, the handle's dictionary; for the
// fused passes, fps and fpIDs, the distinct keys of the positions they
// stream (gather), with seen, a byte per key id, and in, the probe's
// verdict per distinct key (per position of a span when distinct), all
// for the positions of spans; on the master side rows, the positions that
// survived the switch, and counts, those counted per key id.
type joinSide struct {
	rows     []int
	col      []uint64     // the query's: read-only, dropped before pooling
	ids      []uint32     // likewise
	keys     table.KeyIDs // likewise
	counts   []int32
	seen     []bool // false but at fpIDs: forget clears those
	fps      []uint64
	fpIDs    []uint32
	in       []bool
	spans    []span // the positions gathered
	entries  int    // their number
	distinct bool   // every row its own key: the spans stream as they lie
}

// use points s at pass p's rows of the query's key column k: every row of
// the handle, or in a sharded JOIN its key shard's, whose keys are
// gathered contiguous (joinKeys.shard) — so the passes stream positions.
func (s *joinSide) use(k *joinKeys, p int) {
	s.col, s.ids, s.keys = k.col, k.ids.IDs, k.ids
	if k.rows != nil {
		s.col, s.ids = k.fps[p], k.sids[p]
	}
}

// whole is the one span of all of s's positions.
func (s *joinSide) whole() []span { return []span{{0, len(s.ids)}} }

// poolable reports whether s's scratch is within the pools' bound.
func (s *joinSide) poolable() bool {
	return poolable(cap(s.rows), cap(s.counts), cap(s.seen), cap(s.fps), cap(s.fpIDs), cap(s.in))
}

// count returns s's survivors counted per key id, in counts grown to the
// side's dictionary and zeroed first.
func (s *joinSide) count() []int32 {
	n := s.keys.Len()
	if cap(s.counts) < n {
		s.counts = make([]int32, n)
	}
	s.counts = s.counts[:n]
	clear(s.counts)
	for _, r := range s.rows {
		s.counts[s.ids[r]]++
	}
	return s.counts
}

// gather lists the distinct keys of the positions in spans — each key
// id's fingerprint and id, in first-seen order — and marks their ids in
// seen, and keeps spans: the side's train and probe stream those
// positions. A key id is a key, so testing each one once is exact: Add is
// idempotent on a filter's bits, and Contains reads only. When the side's
// dictionary gives every row its own key, the positions are their
// distinct keys already, and nothing is listed.
func (s *joinSide) gather(spans []span) {
	s.forget()
	s.spans = spans
	for _, sp := range spans {
		s.entries += sp.hi - sp.lo
	}
	if s.distinct = s.keys.Distinct(); s.distinct {
		return
	}
	if n := s.keys.Len(); cap(s.seen) < n {
		s.seen = make([]bool, n)
	} else {
		s.seen = s.seen[:n]
	}
	seen, ids := s.seen, s.ids
	for _, sp := range spans {
		for r := sp.lo; r < sp.hi; r++ {
			if id := ids[r]; !seen[id] {
				// Listed before it is marked: forget clears every mark.
				s.fps = append(s.fps, s.col[r])
				s.fpIDs = append(s.fpIDs, id)
				seen[id] = true
			}
		}
	}
}

// forget clears the marks gather and probe left in seen — O(the keys
// gathered), not O(the dictionary), so a small view of a big root pays for
// its own keys — and empties the lists and the spans.
func (s *joinSide) forget() {
	for _, id := range s.fpIDs {
		s.seen[id] = false
	}
	s.fps, s.fpIDs, s.spans, s.entries, s.distinct = s.fps[:0], s.fpIDs[:0], nil, 0, false
}

// train adds the gathered keys to mem, as many Adds as positions were
// gathered (a nil mem trains nothing: the rows still stream), and returns
// that number.
func (s *joinSide) train(mem sketch.Membership) (sent int) {
	switch {
	case mem == nil:
	case s.distinct:
		for _, sp := range s.spans {
			mem.AddMany(s.col[sp.lo:sp.hi], sp.hi-sp.lo)
		}
	default:
		mem.AddMany(s.fps, s.entries)
	}
	return s.entries
}

// verdicts returns s.in grown to n.
func (s *joinSide) verdicts(n int) []bool {
	if cap(s.in) < n {
		s.in = make([]bool, n)
	}
	return s.in[:n]
}

// probe keeps the gathered positions whose key tests positive in mem
// (every one when mem is nil — the asymmetric build side, which forwards
// unpruned): one test per gathered key, its verdict kept at the key's id
// in seen, then one pass over the positions' ids — or, distinct, one test
// per position of each span, kept where it holds.
func (s *joinSide) probe(mem sketch.Membership) (sent, fwd int) {
	rows := s.rows[:0]
	switch {
	case mem == nil:
		for _, sp := range s.spans {
			for r := sp.lo; r < sp.hi; r++ {
				rows = append(rows, r)
			}
		}
		s.rows = rows
		return s.entries, len(rows)
	case s.distinct:
		for _, sp := range s.spans {
			in := s.verdicts(sp.hi - sp.lo)
			mem.ContainsMany(s.col[sp.lo:sp.hi], in)
			for i, ok := range in {
				if ok {
					rows = append(rows, sp.lo+i)
				}
			}
		}
		s.rows = rows
		return s.entries, len(rows)
	}
	in := s.verdicts(len(s.fps))
	mem.ContainsMany(s.fps, in)
	seen, ids := s.seen, s.ids
	for i, id := range s.fpIDs {
		seen[id] = in[i]
	}
	for _, sp := range s.spans {
		for r := sp.lo; r < sp.hi; r++ {
			if seen[ids[r]] {
				rows = append(rows, r)
			}
		}
	}
	s.rows = rows
	return s.entries, len(rows)
}

// joinScratch is the pooled state of one pruned JOIN pass: both sides'
// buffers, the per-key counts included, and rows, the completion's scratch
// for one rank range's rows.
type joinScratch struct {
	left, right joinSide
	rows        rowScratch
}

var joinScratchPool = sync.Pool{New: func() any { return new(joinScratch) }}

// release returns sc to the pool without the query's columns and ids,
// which the pool must not pin — and drops it whole when one huge JOIN grew
// its scratch past the pools' bound.
func (sc *joinScratch) release() {
	for _, s := range []*joinSide{&sc.left, &sc.right} {
		s.forget()
		s.col, s.ids, s.keys = nil, nil, table.KeyIDs{}
	}
	if !sc.left.poolable() || !sc.right.poolable() || !poolable(sc.rows.caps()...) {
		*sc = joinScratch{}
	}
	joinScratchPool.Put(sc)
}

// joinKeys is one JOIN input's key column as every pass of a query reads
// it: col, its fingerprints by row — the table's memoised column or
// scratch (keyColumn) — and ids, its key ids (keyIDs), with how many of
// the handle's rows loading them hashed and built; in a sharded JOIN also
// its key shards, rows, and their rows' fingerprints and ids, fps and sids.
type joinKeys struct {
	col           []uint64 // shared with the table: read-only, dropped before pooling
	scratch       []uint64
	ids           table.KeyIDs // likewise: the table's dictionary, or idScratch
	idScratch     table.KeyIDScratch
	hashed, built int
	rows          [][]uint32 // likewise, the last three
	fps           [][]uint64
	sids          [][]uint32
}

// load fetches the fingerprint column and key ids of column col of t.
func (k *joinKeys) load(t *table.Table, col string, seed uint64) {
	c := t.Schema().MustIndex(col)
	k.col, k.hashed = keyColumn(t, c, seed, &k.scratch)
	k.ids, k.built = keyIDs(t, c, seed, k.col, &k.idScratch)
}

// shard splits the handle t into its n key shards (table.ShardKeys) and
// gives each its rows' fingerprints and ids, contiguous
// (table.KeyShardColumns): what its pass streams.
func (k *joinKeys) shard(t *table.Table, col string, n int, seed uint64) (err error) {
	if k.rows, err = t.ShardKeys(col, n); err == nil {
		k.fps, k.sids = t.KeyShardColumns(k.rows, seed, k.col, k.ids.IDs)
	}
	return err
}

// tail returns how many of pass p's rows, of the handle's n, loading
// hashed and built: the handle's last ones — of a key shard, an increasing
// list, its last ones too.
func (k *joinKeys) tail(n, p int) (hashed, built int) {
	if k.rows == nil {
		return k.hashed, k.built
	}
	rows := k.rows[p]
	h, _ := slices.BinarySearch(rows, uint32(n-k.hashed))
	b, _ := slices.BinarySearch(rows, uint32(n-k.built))
	return len(rows) - h, len(rows) - b
}

// xmapNote is idsNote for the key map: whether the query found it on the
// left dictionary, extended it by n ids or built it over n.
func xmapNote(probed int, cold bool) string {
	switch {
	case cold:
		return "xmap: built " + strconv.Itoa(probed)
	case probed > 0:
		return "xmap: extended " + strconv.Itoa(probed)
	}
	return "xmap: memo"
}

// joinPairs is a pruned JOIN query's one id space, which every pass reads
// — both sides' key columns and ids and the key map from the right ids to
// the left's (the left dictionary's, or built into xmapScratch), loaded
// once before the passes — and pairs, each joined key's count at its
// right id, zero everywhere else — and everywhere while pooled: the
// completion zeroes each entry it renders, and one released dirty (a query
// that failed or panicked past the passes' first write) is cleared.
type joinPairs struct {
	left, right joinKeys
	xmap        table.KeyMap
	xmapScratch table.KeyMapScratch
	xmapNote    string
	pairs       []int64
	dirty       bool
}

var joinPairsPool = sync.Pool{New: func() any { return new(joinPairs) }}

// load fetches q's key columns, ids and key map — and, over more than one
// shard, both sides' key shards — and sizes pairs to the right ids.
// Entries come zero, pooled or new.
func (jp *joinPairs) load(q *Query, seed uint64, shards int) error {
	jp.left.load(q.Table, q.LeftKey, seed)
	jp.right.load(q.Right, q.RightKey, seed)
	m, probed, cold := jp.left.ids.Map(jp.right.ids, &jp.xmapScratch)
	jp.xmap, jp.xmapNote = m, xmapNote(probed, cold)
	if n := jp.right.ids.Len(); cap(jp.pairs) < n {
		jp.pairs = make([]int64, n)
	} else {
		jp.pairs = jp.pairs[:n]
	}
	if shards == 1 {
		return nil
	}
	if err := jp.left.shard(q.Table, q.LeftKey, shards, seed); err != nil {
		return err
	}
	return jp.right.shard(q.Right, q.RightKey, shards, seed)
}

// note is pass p's shard note: the rows of its own that load hashed and
// built (keysNote, idsNote), so that the passes' notes add up to the
// query's, and the key map's (xmapNote), which the first pass carries.
func (jp *joinPairs) note(q *Query, p int) string {
	lh, lb := jp.left.tail(q.Table.NumRows(), p)
	rh, rb := jp.right.tail(q.Right.NumRows(), p)
	xmap := xmapNote(0, false)
	if p == 0 {
		xmap = jp.xmapNote
	}
	return keysNote(lh+rh) + "; " + idsNote(lb+rb) + "; " + xmap
}

// release returns jp to the pool without the columns, ids and key map,
// which the pool must not pin, and with its pairs zero — and drops it
// whole when one huge JOIN grew its scratch past the pools' bound.
func (jp *joinPairs) release() {
	for _, k := range []*joinKeys{&jp.left, &jp.right} {
		k.col, k.ids, k.rows, k.fps, k.sids = nil, table.KeyIDs{}, nil, nil, nil
	}
	jp.xmap = table.KeyMap{}
	if jp.dirty {
		clear(jp.pairs)
		jp.dirty = false
	}
	if !poolable(cap(jp.left.scratch), jp.left.idScratch.Cap(), cap(jp.right.scratch), jp.right.idScratch.Cap(),
		jp.xmapScratch.Cap(), cap(jp.pairs)) {
		*jp = joinPairs{}
	}
	joinPairsPool.Put(jp)
}

// fusedJoinPasses runs the whole Bloom join of q's table pair on j —
// build, switchover, probe — as fused loops over the fingerprint columns
// sc has loaded, and leaves both sides' survivors in sc. It serves the
// single-switch path and every shard of the sharded one. j must be in its
// build phase: the loops hard-code which filter each pass trains or
// probes.
func fusedJoinPasses(q *Query, j *prune.Join, skip bool, sc *joinScratch) (tr Traffic, skipped SkipStats) {
	rightSpans := sc.right.whole()
	if skip {
		rightSpans, skipped = joinRightSpans(q)
	}
	sc.left.gather(sc.left.whole())
	sc.right.gather(rightSpans)
	fa, fb := j.FusedFilters()
	var sent, fl, fr, pruned int
	if j.Asymmetric() {
		// §4.3's small-table optimization: side A streams once, unpruned,
		// while its filter trains; only side B is pruned against it.
		sc.left.train(fa)
		sent, fl = sc.left.probe(nil)
		j.StartProbe()
		var s int
		s, fr = sc.right.probe(fa)
		sent += s
		pruned = s - fr
	} else {
		// Build-pass packets terminate at the switch: all pruned.
		pruned = sc.left.train(fa)
		pruned += sc.right.train(fb)
		j.StartProbe()
		var sl, sr int
		sl, fl = sc.left.probe(fb)
		sr, fr = sc.right.probe(fa)
		sent = pruned + sl + sr
		pruned += sl - fl + sr - fr
	}
	j.AddStats(uint64(sent), uint64(pruned))
	tr.EntriesSent = sent
	tr.Forwarded = fl + fr
	tr.MasterProcessed = fl + fr
	return tr, skipped
}

// pairCounts joins sc's two survivor lists into jp's pairs: each side's
// survivors are counted per key id, and each of the right side's distinct
// keys meets its left count through the key map — no fingerprint, no key
// comparison — and writes the product at its id. Pair counts are products,
// so the sides' roles do not show in the answer. A failover redo
// overwrites what its discarded attempt wrote: that attempt could only
// join keys that are on both sides, and the redo joins every one of those.
func (sc *joinScratch) pairCounts(jp *joinPairs) {
	lc := sc.left.count()
	var rc []int32 // nil when every right row is its own key: counted once
	if !sc.right.keys.Distinct() {
		rc = sc.right.count()
	}
	pairs, ids := jp.pairs, sc.right.ids
	for _, row := range sc.right.rows {
		rid := ids[row]
		n := int32(1)
		if rc != nil {
			if n = rc[rid]; n == 0 {
				continue
			}
			rc[rid] = 0 // counted: later survivors with the key skip it
		}
		lid, ok := jp.xmap.Left(rid)
		if !ok || lc[lid] == 0 {
			continue
		}
		pairs[rid] = int64(lc[lid]) * int64(n)
	}
}

// completeJoin is the completion of every pruned JOIN: the (key, pair
// count) rows of the keys the passes (scs) joined into jp's pairs, in the
// canonical order of the query's right dictionary — its order walked in
// parallel rank ranges (rankedRows, with each pass's row scratch), each
// entry zeroed as it renders. The rows are built in their final order: no
// row is compared.
func completeJoin(q *Query, jp *joinPairs, scs []*joinScratch) (*Result, error) {
	dict, pairs := jp.right.ids, jp.pairs
	order := dict.Order()
	rs := make([]*rowScratch, min(len(scs), max(1, len(order)/rankRangeMin)))
	for s := range rs {
		rs[s] = &scs[s].rows
	}
	rows, err := rankedRows(dict, order, true, rs, func(ids, keep []uint32, vals []int64) ([]uint32, []int64) {
		for _, id := range ids {
			if int(id) < len(pairs) && pairs[id] != 0 {
				keep, vals = append(keep, id), append(vals, pairs[id])
				pairs[id] = 0
			}
		}
		return keep, vals
	})
	if err != nil {
		return nil, err
	}
	jp.dirty = false
	return &Result{Columns: ResultColumns(q), Rows: rows}, nil
}

// batchJoinPasses is fusedJoinPasses on the chunked pipeline — the same
// build → switchover → probe sequence streamed through dp, whose passes
// consult j's live phase — for dataplanes that withhold direct program
// access. It leaves both sides' survivors in sc, like the fused passes.
func batchJoinPasses(q *Query, j *prune.Join, dp BatchDataplane, workers int, skip bool,
	sc *joinScratch) (tr Traffic, skipped SkipStats) {
	// Probe-side block skipping (skip.go): a right block where every
	// distinct left key tests Bloom-negative holds no joinable row.
	// Every right pass — including the symmetric build pass — uses the
	// same spans: a key that would train the B-side filter out of a
	// skipped block cannot exist on the left, so no left row loses its
	// forward, and the master's completion stays exact.
	leftSpans, rightSpans := sc.left.whole(), sc.right.whole()
	if skip {
		rightSpans, skipped = joinRightSpans(q)
	}
	// pass streams the positions of one side's spans, its packets carrying
	// their fingerprints, and collects the survivors in s.rows; a build
	// pass counts forwards without collecting them.
	pass := func(s *joinSide, side prune.JoinSide, spans []span, collect bool) {
		var keep func([][]uint64, int, int)
		if collect {
			s.rows = s.rows[:0]
			keep = func(_ [][]uint64, _, row int) { s.rows = append(s.rows, row) }
		}
		sent, fwd := batchPass(spans, workers, 2, encSide(s.col, side), dp, keep)
		tr.EntriesSent += sent
		tr.Forwarded += fwd
	}
	if j.Asymmetric() {
		// §4.3's small-table optimization: side A streams once, unpruned,
		// while its filter trains; then side B is pruned against it.
		pass(&sc.left, prune.SideA, leftSpans, true)
		j.StartProbe()
		pass(&sc.right, prune.SideB, rightSpans, true)
	} else {
		// Pass 1: both key columns build the filters; packets terminate
		// at the switch. Pass 2: full entries, pruned by the other side.
		pass(&sc.left, prune.SideA, leftSpans, false)
		pass(&sc.right, prune.SideB, rightSpans, false)
		j.StartProbe()
		pass(&sc.left, prune.SideA, leftSpans, true)
		pass(&sc.right, prune.SideB, rightSpans, true)
	}
	tr.MasterProcessed = len(sc.left.rows) + len(sc.right.rows)
	return tr, skipped
}
