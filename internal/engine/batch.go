package engine

// This file implements the chunked pipeline — what a pass (pass.go,
// agg.go, join.go) streams through when it may not drive its program
// directly (NoFuse, a third-party program, a dataplane that withholds it:
// a rack, a lease with a fault injector armed). It is the worker→switch
// boundary and nothing more: batchPass lists the positions of the pass's
// spans in the order their entries reach the switch (rrCycles), a chunk
// at a time; the kind's encoder gathers each position's header values
// into column-major batch buffers; the chunk crosses the dataplane in
// one ProcessBatch call, whose switch runs the program's Process per
// entry (switchsim.ProcessBatchOf), the one statement of its verdict; and
// the pass keeps each forwarded entry by its position.
//
// It runs serially on the calling goroutine and keeps no speed machinery
// of its own. The fused loops (fuse.go) are the fast path, and tests keep
// every gated front door on them (TestTraceSpansPerPath,
// TestGatedPathsRunFused), so this pipeline serves racks, chaos runs,
// third-party programs and NoFuse, where what counts is that the same
// entries cross the boundary in the same order and the same batches.
//
// Results, Traffic and Stats are bit-identical to the scalar reference
// (batch_equiv_test.go asserts it for every query kind, and
// TestBatchStream pins the positions and batch lengths themselves).

import (
	"strconv"
	"sync"

	"cheetah/internal/hashutil"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
)

// chunkEntries caps one batch so stream buffers stay memory-bounded at
// paper scale. It is a variable only so tests can force multi-chunk
// streams on small tables.
var chunkEntries = 1 << 18

// streamBuf holds the reusable buffers of one chunk: its positions, the
// pruner-visible value columns and the decision vector.
type streamBuf struct {
	rows []int
	cols [][]uint64
	dec  []switchsim.Decision
}

var streamBufPool = sync.Pool{New: func() any { return new(streamBuf) }}

// columns returns width columns of length n, reusing prior capacity.
func (b *streamBuf) columns(width, n int) [][]uint64 {
	for len(b.cols) < width {
		b.cols = append(b.cols, nil)
	}
	for i := range width {
		b.cols[i] = growU64(b.cols[i], n)
	}
	return b.cols[:width:width]
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// encoder writes the header values of the entries at positions rows
// into dst, column-major: dst[c][j] is header value c of rows[j].
type encoder func(dst [][]uint64, rows []int)

// rrCycles appends to order the positions that round-robin cycles
// [k0, k1) send over the worker partitions starts (rrStarts): cycle k
// visits position starts[w]+k of every partition w that long, in worker
// order. Partitions differ in length by one at most, so every cycle but
// the last, partial one sends one entry per worker. It is the arrival
// order of the chunked pipeline and of the fused aggregation scans
// (partial.arrival); the scalar reference states it on its own
// (interleave).
func rrCycles(order, starts []int, k0, k1 int) []int {
	for k := k0; k < k1; k++ {
		for w := 0; w+1 < len(starts); w++ {
			if r := starts[w] + k; r < starts[w+1] {
				order = append(order, r)
			}
		}
	}
	return order
}

// batchPass streams the positions of spans through dp and returns how
// many entries it sent and how many dp forwarded. Each span is its own
// segment, partitioned over workers and sent in arrival order (rrCycles)
// in chunks of ⌊chunkEntries/workers⌋ whole round-robin cycles (at least
// one), the partial final cycle riding in the segment's last chunk — the
// batches a rack carries and a fault injector counts. enc encodes a
// chunk's width header columns; keep, when non-nil, sees each forwarded
// entry — the chunk's columns after processing, the entry's index in
// them and its position. dp is a flow-scoped handle: the execution's own
// program on the exclusive path, the shared pipeline's per-flow mux when
// serving, a rack.
func batchPass(spans []span, workers, width int, enc encoder, dp BatchDataplane,
	keep func(cols [][]uint64, j, row int)) (sent, fwd int) {
	workers = max(workers, 1)
	per := max(chunkEntries/workers, 1) // cycles per chunk
	buf := streamBufPool.Get().(*streamBuf)
	defer streamBufPool.Put(buf)
	for _, sp := range spans {
		n := sp.hi - sp.lo
		starts, full := rrStarts(sp.lo, n, workers), n/workers
		for k, last := 0, n == 0; !last; k += per {
			end := k + per
			if last = end >= full; last {
				end = full + 1 // and the partial cycle, if any
			}
			buf.rows = rrCycles(buf.rows[:0], starts, k, end)
			rows, m := buf.rows, len(buf.rows)
			b := &switchsim.Batch{Cols: buf.columns(width, m), N: m}
			enc(b.Cols, rows)
			if cap(buf.dec) < m {
				buf.dec = make([]switchsim.Decision, m)
			}
			dec := buf.dec[:m]
			dp.ProcessBatch(b, dec)
			sent += m
			for j, d := range dec {
				if d == switchsim.Forward {
					fwd++
					if keep != nil {
						keep(b.Cols, j, rows[j])
					}
				}
			}
		}
	}
	return sent, fwd
}

// --- per-kind encoders -------------------------------------------------

// colAcc is a hoisted typed accessor for one column.
type colAcc struct {
	isStr bool
	ints  []int64
	strs  []string
}

func accessorFor(t *table.Table, c int) colAcc {
	if t.ColumnType(c) == table.String {
		return colAcc{isStr: true, strs: t.StringCol(c)}
	}
	return colAcc{ints: t.Int64Col(c)}
}

// keyColumn returns the key fingerprints of column c of t under seed, one
// per row, and how many rows this call hashed: the table's memoised column
// (table.KeyFingerprints), shared with every other reader of it, or — for
// a handle the memo turns away, or that it serves badly (memoServes) —
// *scratch, filled by the same hasher. Read it, never write it, and do not
// pool it: only *scratch is the caller's.
func keyColumn(t *table.Table, c int, seed uint64, scratch *[]uint64) (fps []uint64, hashed int) {
	if memoServes(t, t.KeyMemoStats(c, seed).Hashed) {
		if fps, hashed, ok := t.KeyFingerprints(c, seed); ok {
			return fps, hashed
		}
	}
	*scratch = growU64(*scratch, t.NumRows())
	t.HashKeys(c, seed, *scratch)
	return *scratch, t.NumRows()
}

// keyIDs returns the key ids of column c of t under seed, and how many
// rows this call built: read off the table's dictionary (table.KeyIDs),
// shared with every other reader of it, or — for a handle the dictionary
// turns away, or that it serves badly (memoServes) — built into *scratch
// from fps, t's key fingerprints of the column, by the dictionary's own
// build. Read the ids, never write them, and do not pool them: only
// *scratch is the caller's.
func keyIDs(t *table.Table, c int, seed uint64, fps []uint64, scratch *table.KeyIDScratch) (table.KeyIDs, int) {
	if memoServes(t, t.KeyMemoStats(c, seed).IDs) {
		if k, built, ok := t.KeyIDs(c, seed); ok {
			return k, built
		}
	}
	return t.BuildKeyIDs(c, fps, scratch), t.NumRows()
}

// memoServes reports whether t should read a key memo that covers the
// root's first covered rows: t lies inside them, or t is not small beside
// them. A small handle past them — a subscription's delta — would extend
// the memo by its own rows at the price of growing and copying it, and of
// comparing each new key with an older row out of cache; it hashes and
// compares its rows among themselves instead, and leaves the memos as
// they were for the one-shots that read the whole table. On a 317 k-row
// table with four subscriptions (the benchmark's local_sharded, on 2
// vCPUs) that is 16 % more ingested rows per second and 25 MB less peak
// RSS than extending the memos by every delta.
//
// Small is under a quarter of the covered rows. Two kinds of handle
// reach past a memo: a delta, 256 rows beside tables of 8 k rows and
// more, a thirty-second or less; and a one-shot's snapshot, which reads
// from row 0 and so is larger than what the memo covers. Any fraction
// between the two tells them apart; a quarter is the ranked gate's.
func memoServes(t *table.Table, covered int) bool {
	return t.RootOffset()+t.NumRows() <= covered || 4*t.NumRows() >= covered
}

// keysNote is what a traced pass says about the key fingerprints it read:
// that it found them all on the table, or how many rows it hashed first —
// why the first query after Open, an append burst or a reorder is slower
// than the second.
func keysNote(hashed int) string {
	if hashed == 0 {
		return "keys: memo"
	}
	return "keys: hashed " + strconv.Itoa(hashed)
}

// idsNote is keysNote for the key dictionary: whether a reader found its
// rows' key ids on the table or built n rows of them first.
func idsNote(built int) string {
	if built == 0 {
		return "ids: memo"
	}
	return "ids: built " + strconv.Itoa(built)
}

// fingerprintAccs is the scalar reference's fingerprintRow
// (scalar_ref_test.go) over hoisted accessors — the multi-column arm,
// hashed per query (partial.hashKeys); it must stay bit-identical to
// fingerprintRow.
func fingerprintAccs(accs []colAcc, r int, seed uint64) uint64 {
	h := seed ^ 0xfeedface
	for i := range accs {
		var cell uint64
		if accs[i].isStr {
			cell = hashutil.HashString64(accs[i].strs[r], seed)
		} else {
			cell = hashutil.HashUint64(uint64(accs[i].ints[r]), seed)
		}
		h = hashutil.Mix64(h ^ cell)
	}
	return h
}

// encFingerprint encodes dst[0] = fps[r], the position's key fingerprint
// read from its table's fingerprint column (keyColumn, partial.hashKeys).
func encFingerprint(fps []uint64) encoder {
	return func(dst [][]uint64, rows []int) {
		for j, r := range rows {
			dst[0][j] = fps[r]
		}
	}
}

// encInt64 encodes dst[0] = uint64(column value) — the TOP N packet.
func encInt64(ints []int64) encoder {
	return func(dst [][]uint64, rows []int) {
		for j, r := range rows {
			dst[0][j] = uint64(ints[r])
		}
	}
}

// encKeyVal encodes dst[0] = fingerprint(key), dst[1] = uint64(value) —
// the GROUP BY / HAVING packet layout.
func encKeyVal(fps []uint64, vals []int64) encoder {
	return func(dst [][]uint64, rows []int) {
		for j, r := range rows {
			dst[0][j], dst[1][j] = fps[r], uint64(vals[r])
		}
	}
}

// encSide encodes dst[0] = side marker, dst[1] = fingerprint(key) — the
// join packet layout.
func encSide(fps []uint64, side prune.JoinSide) encoder {
	return func(dst [][]uint64, rows []int) {
		for j, r := range rows {
			dst[0][j], dst[1][j] = uint64(side), fps[r]
		}
	}
}

// encCols64 encodes dst[i] = uint64(cols[i] value) for D columns and
// dst[D] = the row's position — the skyline packet layout, where the id
// is a real header value riding through swaps.
func encCols64(t *table.Table, cols []int) encoder {
	ints := make([][]int64, len(cols))
	for i, c := range cols {
		ints[i] = t.Int64Col(c)
	}
	return func(dst [][]uint64, rows []int) {
		for i, src := range ints {
			for j, r := range rows {
				dst[i][j] = uint64(src[r])
			}
		}
		for j, r := range rows {
			dst[len(ints)][j] = uint64(r)
		}
	}
}

// encFilter encodes one column per predicate: the raw value for
// switch-evaluable comparisons, the worker-precomputed bit for LIKE.
// preds and cols are the query's predicates and their column indexes in
// t's schema.
func encFilter(t *table.Table, preds []FilterPred, cols []int) encoder {
	type predEnc struct {
		ints []int64
		strs []string
		like string
	}
	pes := make([]predEnc, len(preds))
	for i, p := range preds {
		if p.SwitchSupported() {
			pes[i] = predEnc{ints: t.Int64Col(cols[i])}
		} else {
			pes[i] = predEnc{strs: t.StringCol(cols[i]), like: p.Like}
		}
	}
	return func(dst [][]uint64, rows []int) {
		for i, pe := range pes {
			for j, r := range rows {
				if pe.like == "" {
					dst[i][j] = uint64(pe.ints[r])
				} else if MatchLike(pe.strs[r], pe.like) {
					dst[i][j] = 1
				} else {
					dst[i][j] = 0
				}
			}
		}
	}
}

// --- the master's N-heap ------------------------------------------------

// TopN folds vals into h, a min-heap holding the top n values seen so far,
// and returns the heap: topN(A ∪ B) = topN(topN(A) ∪ B) as multisets, so
// the k-shard completion (completeTopN) and a subscription's standing TOP
// N (stream) fold their parts through it. TopNResult renders the heap.
func TopN(n int, h, vals []int64) []int64 {
	hp := int64Heap(h)
	for _, v := range vals {
		hp.offer(v, n)
	}
	return hp
}

// push adds v to the heap (sift-up), replicating container/heap.Push for
// the master's int64 N-heap without the interface boxing.
func (h *int64Heap) push(v int64) {
	*h = append(*h, v)
	j := len(*h) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if (*h)[parent] <= (*h)[j] {
			break
		}
		(*h)[parent], (*h)[j] = (*h)[j], (*h)[parent]
		j = parent
	}
}

// offer admits v to the capacity-topN heap when it qualifies: a plain
// push while filling, a root replacement when v beats the current
// minimum, a no-op otherwise.
func (h *int64Heap) offer(v int64, topN int) {
	if len(*h) < topN {
		h.push(v)
	} else if v > (*h)[0] {
		(*h)[0] = v
		(*h).fixRoot()
	}
}

// fixRoot restores heap order after the root was replaced (sift-down),
// replicating container/heap.Fix(h, 0).
func (h int64Heap) fixRoot() {
	n := len(h)
	j := 0
	for {
		l, r := 2*j+1, 2*j+2
		small := j
		if l < n && h[l] < h[small] {
			small = l
		}
		if r < n && h[r] < h[small] {
			small = r
		}
		if small == j {
			return
		}
		h[j], h[small] = h[small], h[j]
		j = small
	}
}
