package engine

// This file implements the chunked pipeline — what a pass (pass.go,
// agg.go) streams through when it may not drive its program directly
// (NoFuse, a third-party program, a dataplane that withholds it: a rack,
// a lease with a fault injector armed). The scalar reference
// (scalar_ref_test.go) dispatches one closure call and one
// Program.Process per entry; here each CWorker encodes its partition
// into reusable column-major batch buffers, a round-robin scatter
// reproduces the exact arrival order of the reference's interleave, and
// each chunk crosses the dataplane in one call — whose
// switch runs the program's Process per entry (switchsim.ProcessBatchOf),
// the one statement of its verdict. The pass consumes survivors
// straight from the encoded columns where it can (late materialization):
// they are collected branchlessly through preallocated index buffers
// sized from the running prune rate, the aggregation kinds' are absorbed
// by key id into the kind's partial, and TOP N feeds forwarded
// values into its heap without materializing a survivor list at all.
//
// Results, Traffic and Stats are bit-identical to the scalar reference
// (the equivalence suite in batch_equiv_test.go asserts it for every
// query kind).

import (
	"runtime"
	"strconv"
	"sync"

	"cheetah/internal/hashutil"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
)

// The branchless survivor compaction below indexes by the numeric value
// of a Decision; these declarations fail to compile if the dataplane
// constants ever move.
var (
	_ = [1]struct{}{}[switchsim.Forward] // Forward must be 0
	_ = [1]struct{}{}[switchsim.Prune-1] // Prune must be 1
)

// chunkEntries caps one batch so stream buffers stay memory-bounded at
// paper scale and cache-resident across the encode → process → collect
// sweeps. It is a variable only so tests can force multi-chunk streams
// on small tables.
var chunkEntries = 1 << 18

// parallelEncodeMin is the chunk size below which the per-worker encode
// runs inline; goroutine handoff costs more than it saves on tiny
// chunks. A variable only so tests can force the concurrent branch on
// small tables.
var parallelEncodeMin = 8192

// encodeInParallel gates the per-chunk worker goroutines: concurrent
// encoding only pays when the runtime has real parallelism.
var encodeInParallel = runtime.NumCPU() > 1

// streamBuf holds the reusable buffers of one pass: the pruner-visible
// value columns, the engine-side row-id column, the decision vector and
// a compaction scratch.
type streamBuf struct {
	all []([]uint64)
	ids []uint64
	dec []switchsim.Decision
	tmp []uint64
}

var streamBufPool = sync.Pool{New: func() any { return new(streamBuf) }}

func getStreamBuf() *streamBuf  { return streamBufPool.Get().(*streamBuf) }
func putStreamBuf(b *streamBuf) { streamBufPool.Put(b) }

// columns returns width columns of length n, reusing prior capacity.
func (b *streamBuf) columns(width, n int) [][]uint64 {
	for len(b.all) < width {
		b.all = append(b.all, nil)
	}
	for i := 0; i < width; i++ {
		if cap(b.all[i]) < n {
			b.all[i] = make([]uint64, n)
		} else {
			b.all[i] = b.all[i][:n]
		}
	}
	return b.all[:width:width]
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// batchSink consumes one processed chunk: the pruner-visible batch, the
// per-entry decisions, and the row ids of the chunk's entries (nil when
// the pass ran without ids).
type batchSink func(b *switchsim.Batch, dec []switchsim.Decision, ids []uint64)

// partEncoder encodes rows [lo, hi) of its table into dst (and ids when
// non-nil) at positions pos0, pos0+stride, pos0+2·stride, … .
type partEncoder func(dst [][]uint64, ids []uint64, lo, hi, pos0, stride int)

// batchPass streams the n rows of a table through the dataplane in the
// exact arrival order of interleave: workers encode their partitions
// concurrently, scattering values into the merged round-robin stream;
// each chunk is then processed (when dp is non-nil) and handed to
// sink. dp is a flow-scoped handle — the execution's own program on the
// exclusive path, the shared pipeline's per-flow mux when serving.
func batchPass(n, workers, width int, needIDs bool, buf *streamBuf, enc partEncoder,
	dp BatchDataplane, sink batchSink) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = 1
	}
	// Partition boundaries identical to table.Partition / interleave.
	starts := make([]int, workers+1)
	for i := 0; i <= workers; i++ {
		starts[i] = i * n / workers
	}
	// Partitions have size s or s+1; in cycle k < s every worker emits
	// one entry (stream position k·workers + w), and in the final
	// partial cycle only the larger partitions emit, in worker order.
	s := n / workers
	bigBefore := make([]int, workers+1)
	for w := 0; w < workers; w++ {
		bigBefore[w+1] = bigBefore[w] + (starts[w+1] - starts[w] - s)
	}
	nBig := bigBefore[workers]

	cyclesPer := chunkEntries / workers
	if cyclesPer < 1 {
		cyclesPer = 1
	}
	for c0 := 0; ; c0 += cyclesPer {
		c1 := c0 + cyclesPer
		last := false
		if c1 >= s {
			c1 = s
			last = true
		}
		m := (c1 - c0) * workers
		if last {
			m += nBig
		}
		if m == 0 {
			break
		}
		cols := buf.columns(width, m)
		var ids []uint64
		if needIDs {
			buf.ids = growU64(buf.ids, m)
			ids = buf.ids
		}
		tailBase := (c1 - c0) * workers
		encodeChunk := func(w int) {
			if lo, hi := starts[w]+c0, starts[w]+c1; hi > lo {
				enc(cols, ids, lo, hi, w, workers)
			}
			if last && starts[w+1]-starts[w] > s {
				r := starts[w] + s
				enc(cols, ids, r, r+1, tailBase+bigBefore[w], 1)
			}
		}
		if encodeInParallel && workers > 1 && m >= parallelEncodeMin {
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					defer wg.Done()
					encodeChunk(w)
				}(w)
			}
			wg.Wait()
		} else {
			for w := 0; w < workers; w++ {
				encodeChunk(w)
			}
		}
		b := &switchsim.Batch{Cols: cols, N: m}
		if cap(buf.dec) < m {
			buf.dec = make([]switchsim.Decision, m)
		}
		dec := buf.dec[:m]
		if dp != nil {
			dp.ProcessBatch(b, dec)
		}
		sink(b, dec, ids)
		if last {
			break
		}
	}
}

// compactForwarded writes, for every forwarded entry j of the chunk,
// src[j] into buf.tmp, branchlessly (random forward/prune patterns
// mispredict a conditional append), and returns the compacted slice.
func (b *streamBuf) compactForwarded(src []uint64, dec []switchsim.Decision, n int) []uint64 {
	b.tmp = growU64(b.tmp, n)
	tmp := b.tmp
	k := 0
	for j := 0; j < n; j++ {
		tmp[k] = src[j]
		k += 1 - int(dec[j])
	}
	return tmp[:k]
}

// compactIndices is compactForwarded for chunk-local indices, for sinks
// that need several columns of each survivor.
func (b *streamBuf) compactIndices(dec []switchsim.Decision, n int) []uint64 {
	b.tmp = growU64(b.tmp, n)
	tmp := b.tmp
	k := 0
	for j := 0; j < n; j++ {
		tmp[k] = uint64(j)
		k += 1 - int(dec[j])
	}
	return tmp[:k]
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

// encFingerprint encodes dst[0] = fps[r], the row's key fingerprint read
// from its table's fingerprint column (keyColumn, partial.hashKeys).
func encFingerprint(fps []uint64) partEncoder {
	return func(dst [][]uint64, ids []uint64, lo, hi, pos0, stride int) {
		out := dst[0]
		p := pos0
		for _, fp := range fps[lo:hi] {
			out[p] = fp
			p += stride
		}
		fillIDs(ids, lo, hi, pos0, stride)
	}
}

// fillIDs writes the row-id scatter of one span; a nil ids means the
// pass does not need row ids.
func fillIDs(ids []uint64, lo, hi, pos0, stride int) {
	if ids == nil {
		return
	}
	p := pos0
	for r := lo; r < hi; r++ {
		ids[p] = uint64(r)
		p += stride
	}
}

// encInt64 encodes dst[0] = uint64(column value).
func encInt64(t *table.Table, col int) partEncoder {
	ints := t.Int64Col(col)
	return func(dst [][]uint64, ids []uint64, lo, hi, pos0, stride int) {
		out := dst[0]
		p := pos0
		for r := lo; r < hi; r++ {
			out[p] = uint64(ints[r])
			p += stride
		}
		fillIDs(ids, lo, hi, pos0, stride)
	}
}

// encKeyVal encodes dst[0] = fingerprint(key), dst[1] = uint64(value) —
// the GROUP BY / HAVING packet layout.
func encKeyVal(fps []uint64, vals []int64) partEncoder {
	fpEnc := encFingerprint(fps)
	return func(dst [][]uint64, ids []uint64, lo, hi, pos0, stride int) {
		fpEnc(dst[:1], ids, lo, hi, pos0, stride)
		out := dst[1]
		p := pos0
		for r := lo; r < hi; r++ {
			out[p] = uint64(vals[r])
			p += stride
		}
	}
}

// encSide encodes dst[0] = side marker, dst[1] = fingerprint(key) — the
// join packet layout.
func encSide(fps []uint64, side prune.JoinSide) partEncoder {
	fpEnc := encFingerprint(fps)
	return func(dst [][]uint64, ids []uint64, lo, hi, pos0, stride int) {
		sides := dst[0]
		sv := uint64(side)
		p := pos0
		for r := lo; r < hi; r++ {
			sides[p] = sv
			p += stride
		}
		fpEnc(dst[1:2], nil, lo, hi, pos0, stride)
		fillIDs(ids, lo, hi, pos0, stride)
	}
}

// encCols64 encodes dst[i] = uint64(cols[i] value) for D columns and
// dst[D] = row id — the skyline packet layout, where the id is a real
// header value riding through swaps.
func encCols64(t *table.Table, cols []int) partEncoder {
	ints := make([][]int64, len(cols))
	for i, c := range cols {
		ints[i] = t.Int64Col(c)
	}
	return func(dst [][]uint64, ids []uint64, lo, hi, pos0, stride int) {
		for i, src := range ints {
			out := dst[i]
			p := pos0
			for r := lo; r < hi; r++ {
				out[p] = uint64(src[r])
				p += stride
			}
		}
		fillIDs(dst[len(ints)], lo, hi, pos0, stride)
	}
}

// encFilter encodes one column per predicate (the raw value for
// switch-evaluable comparisons, the worker-precomputed bit for LIKE),
// sweeping column-at-a-time. t is the table (or segment view) being
// encoded; preds and cols are the query's predicates and their column
// indexes in t's schema.
func encFilter(t *table.Table, preds []FilterPred, cols []int) partEncoder {
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
	return func(dst [][]uint64, ids []uint64, lo, hi, pos0, stride int) {
		for i := range pes {
			out := dst[i]
			if pes[i].like == "" {
				src := pes[i].ints
				p := pos0
				for r := lo; r < hi; r++ {
					out[p] = uint64(src[r])
					p += stride
				}
			} else {
				src, pat := pes[i].strs, pes[i].like
				p := pos0
				for r := lo; r < hi; r++ {
					if MatchLike(src[r], pat) {
						out[p] = 1
					} else {
						out[p] = 0
					}
					p += stride
				}
			}
		}
		fillIDs(ids, lo, hi, pos0, stride)
	}
}

// --- survivor collection ----------------------------------------------

// survivorSet accumulates forwarded row ids across chunks, growing its
// buffer from the observed unpruned rate instead of append's doubling.
type survivorSet struct {
	rows      []int
	seen      int // entries processed so far
	remaining int // entries still to come, for rate projection
}

// add appends the compacted forwarded ids of one chunk that covered
// chunkN entries.
func (s *survivorSet) add(fwd []uint64, chunkN int) {
	s.seen += chunkN
	s.remaining -= chunkN
	if need := len(s.rows) + len(fwd); need > cap(s.rows) {
		projected := need + int(float64(s.remaining)*float64(need)/float64(s.seen))
		projected += projected / 8 // headroom against rate drift
		grown := make([]int, len(s.rows), projected)
		copy(grown, s.rows)
		s.rows = grown
	}
	for _, id := range fwd {
		s.rows = append(s.rows, int(id))
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
