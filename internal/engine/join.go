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
// Contains reads only (fuse.go's third relaxation); the chunked passes
// (batchJoinPasses) still stream one Process call per entry. The master
// matches no key per query either: each side's table keeps a key
// dictionary (table.KeyIDs), and the left one keeps the map from the right
// side's key ids to its own (KeyIDs.Map) — built once per pair of
// dictionaries, by fingerprint plus one cell comparison per key, so two
// keys that collide on a fingerprint stay two keys and the answer is
// exact. So the master counts each side's survivors per key id and joins
// the counts through the map: integer work, reading key cells only to
// render the joined keys. One completion (completeJoin) serves the one
// JOIN pass (pass.join), fused or chunked, single-switch or per shard, and
// reads nothing of either table but its key column — which is why a
// sharded JOIN's shards carry only that (shardTables); execJoin, the
// plain string-keyed join, stays what ExecDirect runs and what the tests
// compare against. Keys of two column types never meet on the switch
// (MixedJoinKeys), so no pruned path takes them.

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
// per key id, and in, the probe's verdict per distinct key, all for the
// rows of spans; on the master side rows, what survived the switch, and
// counts, those rows counted per key id.
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
// filter's bits, and Contains reads only.
func (s *joinSide) gather(spans []span) {
	s.forget()
	s.spans = spans
	if n := s.keys.Len(); cap(s.seen) < n {
		s.seen = make([]bool, n)
	} else {
		s.seen = s.seen[:n]
	}
	seen, ids := s.seen, s.keys.IDs
	for _, sp := range spans {
		s.entries += sp.hi - sp.lo
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
	s.fps, s.fpIDs, s.spans, s.entries = s.fps[:0], s.fpIDs[:0], nil, 0
}

// train adds the gathered keys to mem, as many Adds as rows were gathered
// (a nil mem trains nothing: the rows still stream), and returns that
// number.
func (s *joinSide) train(mem sketch.Membership) (sent int) {
	if mem != nil {
		mem.AddMany(s.fps, s.entries)
	}
	return s.entries
}

// probe keeps the gathered rows whose key tests positive in mem (every
// row when mem is nil — the asymmetric build side, which forwards
// unpruned): one test per gathered key, its verdict kept at the key's id
// in seen, then one pass over the rows' ids.
func (s *joinSide) probe(mem sketch.Membership) (sent, fwd int) {
	rows := s.rows[:0]
	if mem == nil {
		for _, sp := range s.spans {
			for r := sp.lo; r < sp.hi; r++ {
				rows = append(rows, r)
			}
		}
		s.rows = rows
		return s.entries, len(rows)
	}
	if cap(s.in) < len(s.fps) {
		s.in = make([]bool, len(s.fps))
	}
	s.in = s.in[:len(s.fps)]
	mem.ContainsMany(s.fps, s.in)
	seen, ids := s.seen, s.keys.IDs
	for i, id := range s.fpIDs {
		seen[id] = s.in[i]
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

// joinScratch is the pooled state of one pruned JOIN: both sides'
// buffers, the master's per-key counts included, and the key map from the
// right side's ids to the left's — the left dictionary's, or built into
// xmapScratch.
type joinScratch struct {
	left, right joinSide
	xmap        table.KeyMap
	xmapScratch table.KeyMapScratch
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
	if !sc.left.poolable() || !sc.right.poolable() || !poolable(sc.xmapScratch.Cap()) {
		*sc = joinScratch{}
	}
	joinScratchPool.Put(sc)
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

// completeJoin is the master's completion of every pruned JOIN: it joins
// sc's two survivor lists and returns execJoin's rows — (key, pair count)
// per joined key — unsorted; pass.join sorts them into its part. Each
// side's survivors are counted per key id, and the right side's distinct
// keys, in first-seen order, meet their left counts through the key map:
// no fingerprint, no key comparison, and a key cell read only to render a
// joined key. Pair counts are products, so the sides' roles do not show in
// the answer (and when the right side is a key-ordered dimension table the
// rows come out in order and the sort is one pass).
func completeJoin(sc *joinScratch) [][]string {
	lc, rc := sc.left.count(), sc.right.count()
	r := &sc.right
	joined := 0
	for rid, n := range rc {
		if n == 0 {
			continue
		}
		if lid, ok := sc.xmap.Left(uint32(rid)); ok && lc[lid] > 0 {
			joined++
		}
	}
	rows := make([][]string, 0, joined)
	backing := make([]string, 2*joined)
	for _, row := range r.rows {
		rid := r.keys.IDs[row]
		n := rc[rid]
		lid, ok := sc.xmap.Left(rid)
		if n == 0 || !ok || lc[lid] == 0 {
			continue
		}
		rc[rid] = 0 // rendered: later survivors with the key skip it
		cells := backing[2*len(rows) : 2*len(rows)+2 : 2*len(rows)+2]
		cells[0], cells[1] = r.keys.Cell(rid), strconv.Itoa(int(lc[lid])*int(n))
		rows = append(rows, cells)
	}
	return rows
}

// joinResult merges the passes' rows, each sorted where it was produced —
// in the shard's own goroutine when there are several — into the sorted
// JOIN result. Matching keys are co-located in one pass's table pair, so
// the runs' keys are disjoint and they merge k-way, one comparison per
// row at two shards where a sort of the concatenation pays log n; one run
// merges to itself.
func joinResult(q *Query, runs [][][]string) *Result {
	return &Result{Columns: ResultColumns(q), Rows: mergeSortedRows(runs)}
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
