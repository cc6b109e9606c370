package engine

// JOIN's way through the pruned executors. The worker side hashes no key
// a pass before it has hashed: each side's key fingerprints are a column
// the table keeps (table.KeyFingerprints), the build pass trains on it,
// the probe pass tests it, and survivor row ids reach the master. The
// master reads no key byte per survivor either: each side's table keeps a
// key dictionary too (table.KeyIDs), so the master counts each side's
// survivors per key id, matches the two sides' distinct keys on their
// fingerprints, and confirms every fingerprint match with one comparison
// of the two key cells — so two keys that collide on a fingerprint stay
// two keys and the answer is exact, at one comparison per distinct joined
// key. One completion (completeJoin) serves the one JOIN pass
// (pass.join), fused or chunked, single-switch or per shard, and reads
// nothing of either table but its key column — which is why a sharded
// JOIN's shards carry only that (shardTables); execJoin, the
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
// — and ids, its key ids by row (keyIDs); on the master side rows, what
// survived the switch, and keys, those rows counted per key.
type joinSide struct {
	rows      []int
	col       []uint64 // shared with the table: read-only, dropped before pooling
	scratch   []uint64
	ids       []uint32 // likewise: the table's dictionary, or idScratch
	idScratch table.KeyIDScratch
	keys      joinKeys
}

// load fetches the side's fingerprint column and key ids for a pass over
// t and returns how many rows that hashed and built.
func (s *joinSide) load(t *table.Table, kc int, seed uint64) (hashed, built int) {
	s.col, hashed = keyColumn(t, kc, seed, &s.scratch)
	var k table.KeyIDs
	k, built = keyIDs(t, kc, seed, s.col, &s.idScratch)
	s.ids = k.IDs
	return hashed, built
}

// poolable reports whether s's scratch is within the pools' bound.
func (s *joinSide) poolable() bool {
	return poolable(cap(s.rows), cap(s.scratch), s.idScratch.Cap(), cap(s.keys.keys),
		cap(s.keys.byID.slots), cap(s.keys.byFP))
}

// train adds the fingerprint of every row in spans to mem (a nil mem
// trains nothing: the rows still stream). Bloom Add is commutative, so
// plain row order suffices.
func (s *joinSide) train(spans []span, mem sketch.Membership) (sent int) {
	for _, sp := range spans {
		sent += sp.hi - sp.lo
		if mem == nil {
			continue
		}
		for _, fp := range s.col[sp.lo:sp.hi] {
			mem.Add(fp)
		}
	}
	return sent
}

// probe keeps the rows of spans whose fingerprint tests positive in mem
// (every row when mem is nil — the asymmetric build side, which forwards
// unpruned). Contains does not mutate, so plain row order suffices.
func (s *joinSide) probe(spans []span, mem sketch.Membership) (sent, fwd int) {
	rows := s.rows[:0]
	for _, sp := range spans {
		sent += sp.hi - sp.lo
		for r := sp.lo; r < sp.hi; r++ {
			if mem == nil || mem.Contains(s.col[r]) {
				rows = append(rows, r)
			}
		}
	}
	s.rows = rows
	return sent, len(rows)
}

// joinScratch is the pooled state of one pruned JOIN: both sides'
// buffers, the master's per-key counts included.
type joinScratch struct {
	left, right joinSide
}

var joinScratchPool = sync.Pool{New: func() any { return new(joinScratch) }}

// load fetches both sides' fingerprint columns and key ids for a pass over
// q's table pair and returns the pass's keysNote and idsNote.
func (sc *joinScratch) load(q *Query, seed uint64) (note string) {
	lc := q.Table.Schema().MustIndex(q.LeftKey)
	rc := q.Right.Schema().MustIndex(q.RightKey)
	lh, lb := sc.left.load(q.Table, lc, seed)
	rh, rb := sc.right.load(q.Right, rc, seed)
	return keysNote(lh+rh) + "; " + idsNote(lb+rb)
}

// release returns sc to the pool without the tables' columns and ids,
// which the pool must not pin — and drops it whole when one huge JOIN
// grew its scratch past the pools' bound.
func (sc *joinScratch) release() {
	sc.left.col, sc.right.col = nil, nil
	sc.left.ids, sc.right.ids = nil, nil
	if !sc.left.poolable() || !sc.right.poolable() {
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
	leftSpans := fullSpans(q.Table)
	rightSpans := fullSpans(q.Right)
	if skip {
		rightSpans, skipped = joinRightSpans(q.Table, lc, q.Right, rc)
	}
	fa, fb := j.FusedFilters()
	var sent, fl, fr, pruned int
	if j.Asymmetric() {
		// §4.3's small-table optimization: side A streams once, unpruned,
		// while its filter trains; only side B is pruned against it.
		sc.left.train(leftSpans, fa)
		sent, fl = sc.left.probe(leftSpans, nil)
		j.StartProbe()
		var s int
		s, fr = sc.right.probe(rightSpans, fa)
		sent += s
		pruned = s - fr
	} else {
		// Build-pass packets terminate at the switch: all pruned.
		pruned = sc.left.train(leftSpans, fa)
		pruned += sc.right.train(rightSpans, fb)
		j.StartProbe()
		var sl, sr int
		sl, fl = sc.left.probe(leftSpans, fb)
		sr, fr = sc.right.probe(rightSpans, fa)
		sent = pruned + sl + sr
		pruned += sl - fl + sr - fr
	}
	j.AddStats(uint64(sent), uint64(pruned))
	tr.EntriesSent = sent
	tr.Forwarded = fl + fr
	tr.MasterProcessed = fl + fr
	return tr, skipped
}

// joinKey is one distinct key among a side's survivors.
type joinKey struct {
	fp  uint64 // the key's fingerprint
	id  uint32 // the key's id in the side's table
	row int32  // the first survivor with the key
	n   int32  // survivors with the key
	m   int32  // on the build side: the joined probe-side key's n, or 0
}

// joinKeys counts one side's survivors per key: keys lists the distinct
// keys in first-seen order; byID counts survivors per key id (the slot's
// v); and, on the build side, byFP finds keys (index + 1) by fingerprint.
// byFP may hold several keys per fingerprint: two keys that share one sit
// on one probe run, told apart by their cells.
type joinKeys struct {
	keys      []joinKey
	byID      idTable
	byFP      []int32 // at most half full
	fpIndexed bool    // byFP holds keys
}

// reset empties k — slot by slot where its last keys took few slots.
func (k *joinKeys) reset() {
	k.byID.reset(func(i int) uint32 { return k.keys[i].id })
	if k.fpIndexed {
		if 8*len(k.keys) >= len(k.byFP) {
			clear(k.byFP)
		} else {
			mask := uint64(len(k.byFP) - 1)
			for i := range k.keys {
				h := k.keys[i].fp & mask
				for k.byFP[h] != int32(i+1) {
					h = (h + 1) & mask
				}
				k.byFP[h] = 0
			}
		}
		k.fpIndexed = false
	}
	k.keys = k.keys[:0]
}

// tally fills k with s's survivors: per row one id lookup, no key byte.
func (k *joinKeys) tally(s *joinSide) {
	k.reset()
	for _, r := range s.rows {
		id := s.ids[r]
		sl := k.byID.find(id)
		if sl == nil {
			sl = k.byID.claim(id)
			k.keys = append(k.keys, joinKey{id: id, row: int32(r)})
		}
		sl.v++
	}
	for i := range k.keys {
		e := &k.keys[i]
		e.fp, e.n = s.col[e.row], int32(k.byID.find(e.id).v)
	}
}

// indexFPs fills byFP with k's keys.
func (k *joinKeys) indexFPs() {
	n := keyTableMinSlots
	for n < 2*len(k.keys) {
		n *= 2
	}
	if len(k.byFP) < n {
		k.byFP = make([]int32, n) // a larger one is empty, and serves
	}
	k.fpIndexed = true
	mask := uint64(len(k.byFP) - 1)
	for i := range k.keys {
		h := k.keys[i].fp & mask
		for k.byFP[h] != 0 {
			h = (h + 1) & mask
		}
		k.byFP[h] = int32(i + 1)
	}
}

// completeJoin is the master's completion of every pruned JOIN: it joins
// sc's two survivor lists and returns execJoin's rows — (key, pair count)
// per joined key — unsorted; pass.join sorts them into its part. Each
// side's survivors are counted per key id; the build side's distinct keys
// are indexed by fingerprint, and each probe-side key that meets one is
// confirmed by comparing the two cells once. As a hash join does, it
// builds on the shorter survivor list and emits in that list's
// first-seen order; pair counts are products, so the roles do not show in
// the answer (and when that list comes from a key-ordered table — a
// dimension table — the rows come out in order and the sort is one pass).
func completeJoin(q *Query, sc *joinScratch) [][]string {
	lc := q.Table.Schema().MustIndex(q.LeftKey)
	rc := q.Right.Schema().MustIndex(q.RightKey)
	build, probe := &sc.left, &sc.right
	bc, pc := accessorFor(q.Table, lc), accessorFor(q.Right, rc)
	if len(probe.rows) < len(build.rows) {
		build, probe, bc, pc = probe, build, pc, bc
	}
	build.keys.tally(build)
	probe.keys.tally(probe)
	bk := &build.keys
	bk.indexFPs()
	mask := uint64(len(bk.byFP) - 1)
	joined := 0
	for _, pk := range probe.keys.keys {
		for h := pk.fp & mask; bk.byFP[h] != 0; h = (h + 1) & mask {
			if e := &bk.keys[bk.byFP[h]-1]; e.fp == pk.fp && bc.same(int(e.row), pc, int(pk.row)) {
				e.m = pk.n
				joined++
				break
			}
		}
	}
	rows := make([][]string, 0, joined)
	backing := make([]string, 2*joined)
	for i := range bk.keys {
		e := &bk.keys[i]
		if e.m == 0 {
			continue
		}
		row := backing[2*len(rows) : 2*len(rows)+2 : 2*len(rows)+2]
		row[0], row[1] = bc.cell(int(e.row)), strconv.Itoa(int(e.n)*int(e.m))
		rows = append(rows, row)
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
