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
// The pair counts meet in one array (joinPairs), indexed by the query's
// right key ids — the right handle's own, resolved once before the passes
// (resolve); at one shard they are the pass's right ids — and the
// completion (completeJoin) renders the joined keys in that dictionary's
// canonical order (KeyIDs.Order), in parallel rank ranges like the
// aggregation kinds' ranked completion: no pass sorts and no rows merge.
// A sharded JOIN's shards are key-only tables (shardTables,
// table.ShardKeys) whose rows name the rows they came from (SourceRows),
// so a pass writes each joined key at the id of its source row; matching
// keys are co-located, so the passes write disjoint entries.
// execJoin, the plain string-keyed join, stays what ExecDirect runs and
// what the tests compare against. Keys of two column types never meet on
// the switch (MixedJoinKeys), so no pruned path takes them.

import (
	"strconv"
	"sync"

	"cheetah/internal/prune"
	"cheetah/internal/sketch"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
)

// joinSide is one JOIN input: on the worker side col, its key column's
// fingerprints by row — the table's memoised column or scratch (keyColumn)
// — and keys, its key ids (keyIDs); for the fused passes, fps and fpIDs,
// the distinct keys of the rows they stream (gather), with seen, a byte
// per key id, and in, the probe's verdict per distinct key (per row of a
// span when distinct), all for the rows of spans; on the master side rows,
// what survived the switch, and counts, those rows counted per key id.
type joinSide struct {
	rows      []int
	col       []uint64 // shared with the table: read-only, dropped before pooling
	scratch   []uint64
	keys      table.KeyIDs // likewise: the table's dictionary, or idScratch
	idScratch table.KeyIDScratch
	counts    []int32
	seen      []bool // false but at fpIDs: forget clears those
	fps       []uint64
	fpIDs     []uint32
	in        []bool
	spans     []span // the rows gathered
	entries   int    // their number
	distinct  bool   // every row its own key: the spans stream as they lie
}

// load fetches the side's fingerprint column and key ids for a pass over
// t and returns how many rows that hashed and built.
func (s *joinSide) load(t *table.Table, kc int, seed uint64) (hashed, built int) {
	s.col, hashed = keyColumn(t, kc, seed, &s.scratch)
	s.keys, built = keyIDs(t, kc, seed, s.col, &s.idScratch)
	return hashed, built
}

// poolable reports whether s's scratch is within the pools' bound.
func (s *joinSide) poolable() bool {
	return poolable(cap(s.rows), cap(s.scratch), s.idScratch.Cap(), cap(s.counts),
		cap(s.seen), cap(s.fps), cap(s.fpIDs), cap(s.in))
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
		s.counts[s.keys.IDs[r]]++
	}
	return s.counts
}

// gather lists the distinct keys of the rows in spans — each key id's
// fingerprint and id, in first-seen order — and marks their ids in seen,
// and keeps spans: the side's train and probe stream those rows. A key id
// is a key, so testing each one once is exact: Add is idempotent on a
// filter's bits, and Contains reads only. When the side's dictionary
// gives every row its own key, the spans' rows are their distinct keys
// already, and nothing is listed.
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
	seen, ids := s.seen, s.keys.IDs
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

// train adds the gathered keys to mem, as many Adds as rows were gathered
// (a nil mem trains nothing: the rows still stream), and returns that
// number.
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

// probe keeps the gathered rows whose key tests positive in mem (every
// row when mem is nil — the asymmetric build side, which forwards
// unpruned): one test per gathered key, its verdict kept at the key's id
// in seen, then one pass over the rows' ids — or, distinct, one test per
// row of each span, kept where it holds.
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
	seen, ids := s.seen, s.keys.IDs
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
// buffers, the per-key counts included, the key map from the right side's
// ids to the left's — the left dictionary's, or built into xmapScratch —
// and rows, the completion's scratch for one rank range's rows.
type joinScratch struct {
	left, right joinSide
	xmap        table.KeyMap
	xmapScratch table.KeyMapScratch
	rows        rowScratch
}

var joinScratchPool = sync.Pool{New: func() any { return new(joinScratch) }}

// load fetches both sides' fingerprint columns and key ids, and the key
// map between them, for a pass over q's table pair and returns the pass's
// keysNote, idsNote and xmapNote.
func (sc *joinScratch) load(q *Query, seed uint64) (note string) {
	lc := q.Table.Schema().MustIndex(q.LeftKey)
	rc := q.Right.Schema().MustIndex(q.RightKey)
	lh, lb := sc.left.load(q.Table, lc, seed)
	rh, rb := sc.right.load(q.Right, rc, seed)
	var probed int
	var cold bool
	sc.xmap, probed, cold = sc.left.keys.Map(sc.right.keys, &sc.xmapScratch)
	return keysNote(lh+rh) + "; " + idsNote(lb+rb) + "; " + xmapNote(probed, cold)
}

// xmapNote is idsNote for the key map: whether the pass found it on the
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

// release returns sc to the pool without the tables' columns, ids and key
// map, which the pool must not pin — and drops it whole when one huge JOIN
// grew its scratch past the pools' bound.
func (sc *joinScratch) release() {
	sc.left.forget()
	sc.right.forget()
	sc.left.col, sc.right.col = nil, nil
	sc.left.keys, sc.right.keys = table.KeyIDs{}, table.KeyIDs{}
	sc.xmap = table.KeyMap{}
	if !sc.left.poolable() || !sc.right.poolable() || !poolable(append(sc.rows.caps(), sc.xmapScratch.Cap())...) {
		*sc = joinScratch{}
	}
	joinScratchPool.Put(sc)
}

// joinPairs is a pruned JOIN query's pair counts: pairs holds each joined
// key's count at the key's id among keys, the query's right key ids, and
// is zero everywhere else — and everywhere while pooled: the completion
// zeroes each entry it renders, and one released dirty (a query that
// failed or panicked past the passes' first write) is cleared. At one
// shard keys are the pass's right ids (pairCounts); above it the
// unsharded right handle's, resolved before the passes (resolve) off its
// table's dictionary, or built into fps and idScratch.
type joinPairs struct {
	keys      table.KeyIDs // the table's dictionary, or idScratch: dropped before pooling
	fps       []uint64
	idScratch table.KeyIDScratch
	pairs     []int64
	dirty     bool
}

var joinPairsPool = sync.Pool{New: func() any { return new(joinPairs) }}

// resolve gives jp the unsharded right handle's key ids — off its table's
// dictionary, or built when the dictionary turns the handle away — and
// sizes pairs to them. It returns the merge span's idsNote.
func (jp *joinPairs) resolve(q *Query, seed uint64) string {
	t, rc := q.Right, q.Right.Schema().MustIndex(q.RightKey)
	built, ok := 0, false
	if memoServes(t, t.KeyMemoStats(rc, seed).IDs) {
		// No pass streams these rows: their fingerprints stay unhashed
		// unless the dictionary needs them.
		jp.keys, built, ok = t.KeyIDs(rc, seed)
	}
	if !ok {
		col, _ := keyColumn(t, rc, seed, &jp.fps)
		jp.keys, built = keyIDs(t, rc, seed, col, &jp.idScratch)
	}
	jp.use(jp.keys)
	return idsNote(built)
}

// use makes keys jp's ids and sizes pairs to them. Entries come zero,
// pooled or new.
func (jp *joinPairs) use(keys table.KeyIDs) {
	jp.keys = keys
	if n := keys.Len(); cap(jp.pairs) < n {
		jp.pairs = make([]int64, n)
	} else {
		jp.pairs = jp.pairs[:n]
	}
}

// release returns jp to the pool without the ids, which the pool must not
// pin, and with its pairs zero — and drops it whole when one huge JOIN
// grew its scratch past the pools' bound.
func (jp *joinPairs) release() {
	jp.keys = table.KeyIDs{}
	if jp.dirty {
		clear(jp.pairs)
		jp.dirty = false
	}
	if !poolable(cap(jp.fps), jp.idScratch.Cap(), cap(jp.pairs)) {
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
	lc := q.Table.Schema().MustIndex(q.LeftKey)
	rc := q.Right.Schema().MustIndex(q.RightKey)
	rightSpans := fullSpans(q.Right)
	if skip {
		rightSpans, skipped = joinRightSpans(q.Table, lc, q.Right, rc)
	}
	sc.left.gather(fullSpans(q.Table))
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
// comparison — and writes the product at its id among the query's right
// ids. src is the pass's right table's SourceRows: a key shard's rows name
// their rows of the unsharded handle, whose ids jp resolved; at one shard
// src is nil and the pass's right ids become the query's. Pair counts are
// products, so the sides' roles do not show in the answer. A failover redo
// overwrites what its discarded attempt wrote: that attempt could only
// join keys that are on both sides, and the redo joins every one of those.
func (sc *joinScratch) pairCounts(jp *joinPairs, src []uint32) {
	lc, rc := sc.left.count(), sc.right.count()
	r := &sc.right
	if src == nil {
		jp.use(r.keys)
	}
	pairs, ids := jp.pairs, jp.keys.IDs
	for _, row := range r.rows {
		rid := r.keys.IDs[row]
		n := rc[rid]
		if n == 0 {
			continue
		}
		rc[rid] = 0 // counted: later survivors with the key skip it
		lid, ok := sc.xmap.Left(rid)
		if !ok || lc[lid] == 0 {
			continue
		}
		id := rid
		if src != nil {
			id = ids[src[row]]
		}
		pairs[id] = int64(lc[lid]) * int64(n)
	}
}

// completeJoin is the completion of every pruned JOIN: the (key, pair
// count) rows of the keys the passes (scs) joined into jp's pairs, in the
// canonical order of the query's right dictionary — its order walked in
// parallel rank ranges (rankedRows, with each pass's row scratch), each
// entry zeroed as it renders. No row is compared, but rows whose keys
// include a key followed by NUL sort whole (aggResult).
func completeJoin(q *Query, jp *joinPairs, scs []*joinScratch) (*Result, error) {
	dict, pairs := jp.keys, jp.pairs
	order, nul := dict.Order()
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
	return aggResult(q, rows, nul), nil
}

// batchJoinPasses is fusedJoinPasses on the chunked pipeline — the same
// build → switchover → probe sequence streamed through dp, whose passes
// consult j's live phase — for dataplanes that withhold direct program
// access. It leaves both sides' survivors in sc, like the fused passes.
func batchJoinPasses(q *Query, j *prune.Join, dp BatchDataplane, workers int, skip bool,
	buf *streamBuf, sc *joinScratch) (tr Traffic, skipped SkipStats, err error) {
	lc := q.Table.Schema().MustIndex(q.LeftKey)
	rc := q.Right.Schema().MustIndex(q.RightKey)
	// Probe-side block skipping (skip.go): a right block where every
	// distinct left key tests Bloom-negative holds no joinable row.
	// Every right pass — including the symmetric build pass — uses the
	// same spans: a key that would train the B-side filter out of a
	// skipped block cannot exist on the left, so no left row loses its
	// forward, and the master's completion stays exact.
	leftSpans := fullSpans(q.Table)
	rightSpans := fullSpans(q.Right)
	if skip {
		rightSpans, skipped = joinRightSpans(q.Table, lc, q.Right, rc)
	}
	// A span streams as a view of its table (spanPass), and its packets
	// carry the view's rows of the table's fingerprint column.
	encFor := func(t *table.Table, s *joinSide, side prune.JoinSide) func(*table.Table) partEncoder {
		return func(v *table.Table) partEncoder {
			lo := v.RootOffset() - t.RootOffset()
			return encSide(s.col[lo:lo+v.NumRows()], side)
		}
	}
	encAFor := encFor(q.Table, &sc.left, prune.SideA)
	encBFor := encFor(q.Right, &sc.right, prune.SideB)
	// pass streams one side; a nil sv is a build pass, which counts
	// forwards without collecting.
	pass := func(t *table.Table, spans []span, encFor func(*table.Table) partEncoder, sv *survivorSet) {
		if err != nil {
			return
		}
		if sv != nil {
			sv.remaining = t.NumRows()
		}
		err = spanPass(t, spans, workers, 2, sv != nil, buf, encFor, dp,
			func(b *switchsim.Batch, dec []switchsim.Decision, ids []uint64) {
				tr.EntriesSent += b.N
				if sv == nil {
					tr.Forwarded += forwardedIn(dec[:b.N])
					return
				}
				fwd := buf.compactForwarded(ids, dec, b.N)
				tr.Forwarded += len(fwd)
				sv.add(fwd, b.N)
			})
	}
	var l, r survivorSet
	if j.Asymmetric() {
		// §4.3's small-table optimization: side A streams once, unpruned,
		// while its filter trains; then side B is pruned against it.
		pass(q.Table, leftSpans, encAFor, &l)
		j.StartProbe()
		pass(q.Right, rightSpans, encBFor, &r)
	} else {
		// Pass 1: both key columns build the filters; packets terminate
		// at the switch. Pass 2: full entries, pruned by the other side.
		pass(q.Table, leftSpans, encAFor, nil)
		pass(q.Right, rightSpans, encBFor, nil)
		j.StartProbe()
		pass(q.Table, leftSpans, encAFor, &l)
		pass(q.Right, rightSpans, encBFor, &r)
	}
	if err != nil {
		return tr, skipped, err
	}
	tr.MasterProcessed = len(l.rows) + len(r.rows)
	sc.left.rows, sc.right.rows = l.rows, r.rows
	return tr, skipped, nil
}
