package engine

// JOIN's way through the pruned executors. The worker side hashes no key
// a pass before it has hashed: each side's key fingerprints are a column
// the table keeps (table.KeyFingerprints), the build pass trains on it,
// the probe pass tests it, and survivors reach the master as (row,
// fingerprint) pairs. The master joins on those fingerprints in a
// uint64-keyed table — O(forwarded) typed work, no string hashing — and
// compares the key cells themselves on every fingerprint match, so two
// keys that collide on a fingerprint stay two keys and the answer is
// exact. One completion (completeJoin) serves the one JOIN pass
// (pass.join), fused or chunked, single-switch or per shard, and reads
// nothing of either table but its key column — which is why a sharded
// JOIN's shards carry only that (shardTables); execJoin, the
// plain string-keyed join, stays what ExecDirect runs and what the tests
// compare against.

import (
	"slices"
	"strconv"
	"sync"

	"cheetah/internal/prune"
	"cheetah/internal/sketch"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
)

// joinSide is one JOIN input: on the worker side col, its key column's
// fingerprints by row — the table's memoised column or scratch (keyColumn)
// — and on the master side what survived the switch, rows[i] with its
// fingerprint fps[i].
type joinSide struct {
	rows    []int
	fps     []uint64
	col     []uint64 // shared with the table: read-only, dropped before pooling
	scratch []uint64
}

// load fetches the side's fingerprint column for a pass over t and
// returns how many rows that hashed.
func (s *joinSide) load(t *table.Table, kc int, seed uint64) (hashed int) {
	s.col, hashed = keyColumn(t, kc, seed, &s.scratch)
	return hashed
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
// unpruned), copying each survivor's fingerprint out of the column, which
// is not this pass's to compact. Contains does not mutate, so plain row
// order suffices.
func (s *joinSide) probe(spans []span, mem sketch.Membership) (sent, fwd int) {
	rows, fps := s.rows[:0], s.fps[:0]
	for _, sp := range spans {
		sent += sp.hi - sp.lo
		for r := sp.lo; r < sp.hi; r++ {
			if fp := s.col[r]; mem == nil || mem.Contains(fp) {
				rows, fps = append(rows, r), append(fps, fp)
			}
		}
	}
	s.rows, s.fps = rows, fps
	return sent, len(rows)
}

// gather fills fps from rows — the chunked pipeline collects survivor row
// ids only, so their fingerprints are read back from the column here.
func (s *joinSide) gather(rows []int) {
	s.rows = rows
	s.fps = growU64(s.fps, len(rows))
	for i, r := range rows {
		s.fps[i] = s.col[r]
	}
}

// joinScratch is the pooled state of one pruned JOIN: both sides'
// buffers and the master's table (one per key type).
type joinScratch struct {
	left, right joinSide
	strs        joinTable[string]
	ints        joinTable[int64]
}

var joinScratchPool = sync.Pool{New: func() any { return new(joinScratch) }}

// load fetches both sides' fingerprint columns for a pass over q's table
// pair and returns how many rows that hashed.
func (sc *joinScratch) load(q *Query, seed uint64) (hashed int) {
	return sc.left.load(q.Table, q.Table.Schema().MustIndex(q.LeftKey), seed) +
		sc.right.load(q.Right, q.Right.Schema().MustIndex(q.RightKey), seed)
}

// release returns sc to the pool without the tables' columns, which the
// pool must not pin.
func (sc *joinScratch) release() {
	sc.left.col, sc.right.col = nil, nil
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

// joinTable maps key fingerprints to per-key join counts over an fpTable
// (partial.go). Unlike the aggregation partials it may hold several
// entries per fingerprint: two keys that share one simply occupy two
// slots on the same probe run, told apart by comparing the keys
// themselves.
type joinTable[K comparable] struct {
	fpTable
	ents []joinEntry[K]
}

// joinEntry is one distinct key of the build side. The key sits in the
// entry so that confirming a fingerprint match costs no detour through
// the key column.
type joinEntry[K comparable] struct {
	key   K
	build int // build-side survivors with the key
	pairs int // joined row pairs: build × matching probe survivors
}

// count fills the table with one entry per distinct key among build's
// survivors, then adds up each entry's row pairs over probe's. bk and pk
// are the two sides' key columns. A slot's fingerprint only preselects:
// every match is confirmed on the keys.
func (t *joinTable[K]) count(bk, pk []K, build, probe *joinSide) {
	t.reset()
	t.ents = t.ents[:0]
	mask := uint64(len(t.slots) - 1)
	for i, r := range build.rows {
		fp, key := build.fps[i], bk[r]
		for h := fp & mask; ; h = (h + 1) & mask {
			s := &t.slots[h]
			if s.ent == 0 {
				t.ents = append(t.ents, joinEntry[K]{key: key, build: 1})
				*s = fpSlot{fp: fp, ent: len(t.ents)}
				break
			}
			if e := &t.ents[s.ent-1]; s.fp == fp && e.key == key {
				e.build++
				break
			}
		}
		if 2*len(t.ents) > len(t.slots) {
			t.grow()
			mask = uint64(len(t.slots) - 1)
		}
	}
	for i, r := range probe.rows {
		fp, key := probe.fps[i], pk[r]
		for h := fp & mask; ; h = (h + 1) & mask {
			s := &t.slots[h]
			if s.ent == 0 {
				break
			}
			if e := &t.ents[s.ent-1]; s.fp == fp && e.key == key {
				e.pairs += e.build
				break
			}
		}
	}
}

// joinRows joins the two survivor lists in t and renders one (key, pair
// count) row per joined key into a single backing array, in the build
// side's first-seen order. As a hash join does, it builds on the smaller
// list; pair counts are products, so the roles do not show in the
// answer (and when that list comes from a key-ordered table — a
// dimension table — the rows come out in order and the final sort is
// one pass).
func joinRows[K comparable](t *joinTable[K], lk, rk []K, left, right *joinSide, render func(K) string) [][]string {
	if len(right.rows) < len(left.rows) {
		t.count(rk, lk, right, left)
	} else {
		t.count(lk, rk, left, right)
	}
	n := 0
	for i := range t.ents {
		if t.ents[i].pairs > 0 {
			n++
		}
	}
	rows := make([][]string, 0, n)
	backing := make([]string, 2*n)
	for i := range t.ents {
		e := &t.ents[i]
		if e.pairs == 0 {
			continue
		}
		row := backing[2*len(rows) : 2*len(rows)+2 : 2*len(rows)+2]
		row[0], row[1] = render(e.key), strconv.Itoa(e.pairs)
		rows = append(rows, row)
	}
	return rows
}

// completeJoin is the master's completion of every pruned JOIN: it joins
// sc's two survivor lists on their fingerprints and returns execJoin's
// rows — (key, pair count) per joined key — unsorted; pass.join sorts
// them into its part.
func completeJoin(q *Query, sc *joinScratch) ([][]string, error) {
	lc := q.Table.Schema().MustIndex(q.LeftKey)
	rc := q.Right.Schema().MustIndex(q.RightKey)
	switch lt := q.Table.ColumnType(lc); {
	case lt != q.Right.ColumnType(rc):
		// Keys of different types meet only through their rendered text,
		// which is execJoin's business.
		res, err := execJoin(q, sc.left.rows, sc.right.rows)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	case lt == table.String:
		return joinRows(&sc.strs, q.Table.StringCol(lc), q.Right.StringCol(rc), &sc.left, &sc.right,
			func(s string) string { return s }), nil
	default:
		return joinRows(&sc.ints, q.Table.Int64Col(lc), q.Right.Int64Col(rc), &sc.left, &sc.right,
			func(v int64) string { return strconv.FormatInt(v, 10) }), nil
	}
}

// joinPart is one pass's completed join: completeJoin's rows in the
// canonical result order, sorted where they were produced — in the
// shard's own goroutine when there are several.
type joinPart struct {
	rows [][]string
	// keyed: a cell contains NUL, so the order is the joined-key one
	// (sortRows), which merging cell by cell can contradict.
	keyed bool
}

// sortedJoinPart sorts completeJoin's rows into a part.
func sortedJoinPart(rows [][]string) joinPart {
	return joinPart{rows: rows, keyed: sortRows(rows)}
}

// joinResult merges the passes' parts into the sorted JOIN result.
// Matching keys are co-located in one pass's table pair, so the parts'
// keys are disjoint and the sorted runs merge k-way, one comparison per
// row at two shards where a sort of the concatenation pays log n; one
// part merges to itself. Only when a part took the joined-key order is
// the concatenation sorted whole instead.
func joinResult(q *Query, parts []joinPart) *Result {
	res := &Result{Columns: []string{q.LeftKey, "pairs"}}
	runs := make([][][]string, len(parts))
	keyed := false
	for i, p := range parts {
		runs[i] = p.rows
		keyed = keyed || p.keyed
	}
	if keyed && len(parts) > 1 {
		res.Rows = slices.Concat(runs...)
		res.Sort()
		return res
	}
	res.Rows = mergeSortedRows(runs)
	return res
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
	sc.left.gather(l.rows)
	sc.right.gather(r.rows)
	return tr, skipped, nil
}
