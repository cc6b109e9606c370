package engine

// This file holds the fused loops — the scan kernels a pass (pass.go,
// agg.go) runs when it may drive its program directly: the fast path of
// every gated front door. The chunked pipeline (batch.go) round-trips
// every chunk through three materialized passes (encode into stream
// buffers → the dataplane filling a Decision slice, one Process call per
// entry → keep survivors), with the pruner's per-entry state
// transition behind an interface call. Here each query kind is
// one monomorphic loop instead: the loop reads table columns directly,
// inlines the pruner's core state transition through the concrete type's
// Fused* entry points (prune/fused.go), and consumes survivors in place —
// no wire buffers, no Decision slice, no per-chunk dispatch. (JOIN's
// loops are in join.go.)
//
// Equivalence contract. For every kind the fused loop visits entries in
// the exact arrival order of the chunked and scalar paths (the
// round-robin worker interleave — see rrStarts), drives the same state
// transitions, and deposits the same Stats via AddStats, so Results,
// Traffic and Stats are bit-identical to the chunked pipeline — with three
// deliberate relaxations, all invisible in Results:
//
//   - Stateless or order-insensitive passes (FILTER's predicate sweeps,
//     JOIN's Bloom build/probe, HAVING's exact second pass, and the
//     fingerprinting of a key column, table.KeyFingerprints) run in
//     plain row order: their totals and final state cannot depend on
//     order.
//   - Randomized TOP N draws its row choices from a counter-indexed RNG
//     stream (prune.FusedRandState) instead of the scalar path's serial
//     chain, so its prune decisions — and hence Traffic/Stats — differ
//     from the scalar oracle, while final Results stay bit-identical
//     (the master's heap completion is exact on whatever survives).
//   - JOIN's Bloom build and probe touch each key id once: Add is
//     idempotent on the bits and Contains reads only, so training a
//     side's distinct keys (counted as its entries) and probing each once
//     leave the filters and every row's verdict as one call per entry
//     would.
//
// Gating is the pass's (pass.fuse): the loops only run when the pass can
// own the program for the whole stream. Anything else — a third-party
// pruner, a wrong concrete type for the kind, an exotic predicate layout,
// a dataplane that withholds the program — streams through the chunked
// pipeline untouched.

import (
	"sync"

	"cheetah/internal/cache"
	"cheetah/internal/hashutil"
	"cheetah/internal/prune"
	"cheetah/internal/table"
)

// rrStarts returns the worker partition boundaries of rows
// [lo, lo+n): partition w is [starts[w], starts[w+1]), identical to
// table.Partition and interleave. Entries arrive round-robin over them,
// one per live partition per cycle, in worker order (rrCycles); the
// fused loops that do not list that order replay it with
//
//	for k, done := 0, 0; done < n; k++ {
//	    for w := 0; w < workers; w++ {
//	        r := starts[w] + k
//	        if r >= starts[w+1] { continue }
//	        done++
//	        ... entry r ...
//	    }
//	}
func rrStarts(lo, n, workers int) []int {
	starts := make([]int, workers+1)
	for i := 0; i <= workers; i++ {
		starts[i] = lo + i*n/workers
	}
	return starts
}

// --- FILTER ------------------------------------------------------------

// fusedFilterChunk sizes the predicate bit-vector sweeps so the vector
// stays cache-resident across the per-predicate passes.
const fusedFilterChunk = 8192

// filterBitsPool recycles the per-chunk predicate bit-vectors of the
// fused FILTER scan.
var filterBitsPool = sync.Pool{New: func() any {
	s := make([]uint32, fusedFilterChunk)
	return &s
}}

// evalIntPred sweeps one raw int64 wire column, OR-ing bit into the
// bit-vector of every passing row — Filter.Process's predicate bits,
// one predicate at a time, reading the table column directly.
func evalIntPred(bits []uint32, col []int64, pr *prune.Predicate, bit uint32) {
	if pr.Precomputed {
		for j, v := range col {
			if v != 0 {
				bits[j] |= bit
			}
		}
		return
	}
	c := pr.Const
	switch pr.Op {
	case prune.OpGT:
		for j, v := range col {
			if v > c {
				bits[j] |= bit
			}
		}
	case prune.OpGE:
		for j, v := range col {
			if v >= c {
				bits[j] |= bit
			}
		}
	case prune.OpLT:
		for j, v := range col {
			if v < c {
				bits[j] |= bit
			}
		}
	case prune.OpLE:
		for j, v := range col {
			if v <= c {
				bits[j] |= bit
			}
		}
	case prune.OpEQ:
		for j, v := range col {
			if v == c {
				bits[j] |= bit
			}
		}
	case prune.OpNE:
		for j, v := range col {
			if v != c {
				bits[j] |= bit
			}
		}
	}
}

// evalLikePred sweeps one LIKE wire column: the wire value is the 0/1
// match bit, so a non-precomputed predicate over it reduces to two
// precomputed booleans.
func evalLikePred(bits []uint32, col []string, like string, pr *prune.Predicate, bit uint32) {
	hitSets, missSets := true, false
	if !pr.Precomputed {
		hitSets = pr.Op.Holds(1, pr.Const)
		missSets = pr.Op.Holds(0, pr.Const)
	}
	for j := range col {
		if MatchLike(col[j], like) {
			if hitSets {
				bits[j] |= bit
			}
		} else if missSets {
			bits[j] |= bit
		}
	}
}

// fusedFilterScan runs the whole FILTER dataplane over spans of t as
// chunked column sweeps: each filter predicate ORs its bit into a pooled
// bit-vector straight from its wire column (raw int64, or LIKE evaluated
// on the fly), then one truth-table sweep counts — and, with collect,
// returns — the survivors. Filtering is stateless, so plain row order
// yields the same totals as the worker interleave, and the result
// assembly sorts. ok=false means the pruner's predicate layout does not
// match the query's wire format; the caller falls back.
func fusedFilterScan(t *table.Table, preds []FilterPred, cols []int, f *prune.Filter,
	spans []span, collect bool) (rows []int, sent, fwd int, ok bool) {
	sPreds, tt := f.FusedSpec()
	for i := range sPreds {
		if sPreds[i].ValIdx >= len(preds) {
			return nil, 0, 0, false
		}
	}
	type wire struct {
		ints []int64
		strs []string
		like string
	}
	wires := make([]wire, len(preds))
	for i := range preds {
		if preds[i].SwitchSupported() {
			wires[i] = wire{ints: t.Int64Col(cols[i])}
		} else {
			wires[i] = wire{strs: t.StringCol(cols[i]), like: preds[i].Like}
		}
	}
	bp := filterBitsPool.Get().(*[]uint32)
	bits := *bp
	for _, sp := range spans {
		for lo := sp.lo; lo < sp.hi; lo += fusedFilterChunk {
			hi := min(lo+fusedFilterChunk, sp.hi)
			m := hi - lo
			if cap(bits) < m {
				bits = make([]uint32, m)
			}
			bits = bits[:m]
			clear(bits)
			for i := range sPreds {
				pr := &sPreds[i]
				w := &wires[pr.ValIdx]
				bit := uint32(1) << uint(i)
				if w.ints != nil {
					evalIntPred(bits, w.ints[lo:hi], pr, bit)
				} else {
					evalLikePred(bits, w.strs[lo:hi], w.like, pr, bit)
				}
			}
			sent += m
			if !collect {
				for _, bv := range bits {
					if tt.Lookup(bv) {
						fwd++
					}
				}
				continue
			}
			for j, bv := range bits {
				if tt.Lookup(bv) {
					fwd++
					rows = append(rows, lo+j)
				}
			}
		}
	}
	*bp = bits
	filterBitsPool.Put(bp)
	return rows, sent, fwd, true
}

// filterExact reports whether pruner forwards exactly the rows q's
// formula accepts, so that the switch verdict needs no master recheck:
// it must be a *prune.Filter whose compiled predicates and truth table
// equal what newFilter compiles from the query. Any other program —
// different constants, a weaker formula, a foreign type — may forward
// false positives (pruning is best-effort by design) and keeps the exact
// master completion.
func filterExact(q *Query, pruner prune.Pruner) bool {
	f, ok := pruner.(*prune.Filter)
	if !ok {
		return false
	}
	d, err := newFilter(q)
	if err != nil {
		return false
	}
	wantPreds, wantTT := d.FusedSpec()
	preds, tt := f.FusedSpec()
	if len(preds) != len(wantPreds) {
		return false
	}
	for i := range preds {
		if preds[i] != wantPreds[i] {
			return false
		}
	}
	// Equal predicate counts mean equal table widths.
	for idx := 0; idx < wantTT.Entries(); idx++ {
		if tt.Lookup(uint32(idx)) != wantTT.Lookup(uint32(idx)) {
			return false
		}
	}
	return true
}

// --- DISTINCT ----------------------------------------------------------

// fusedDistinctScan streams every row's key fingerprint through the
// cache matrix in worker-interleave order (partial.arrival); survivors
// absorb into p, which keys them by the row's key id (later duplicates
// only count as forwarded).
func fusedDistinctScan(seed uint64, m *cache.Matrix, workers int, p *partial) (sent, fwd int) {
	fps, order := p.hashKeys(seed), p.arrival(workers)
	for i := range fps {
		r := i
		if order != nil {
			r = order[i]
		}
		fp := fps[r]
		if m.Insert(fp) {
			continue
		}
		fwd++
		p.absorbFirst(fp, r)
	}
	return len(fps), fwd
}

// --- TOP N -------------------------------------------------------------

// fusedTopNRandSpan streams rows [lo, hi) through the randomized TOP N
// matrix, feeding survivors straight into the master's N-heap. The row
// choice comes from the counter-indexed RNG stream
// (prune.FusedRandState): the per-entry draw is Mix64 of a running
// counter — no loop-carried dependency — and the prune test reads the
// matrix's per-row minimum cache (one load, not a register-row walk),
// running the splice, specialized to InsertFull in the steady state, only
// for an entry that may displace a cached value. Two sanctioned
// liberties beyond the chunked path's: the scan runs in plain row order
// rather than worker-interleave (the row draw is value-independent, so
// any deterministic entry↔counter pairing gives the same uniform-row
// guarantee — this pruner's decisions already deviate from the scalar
// oracle by design), and the worker count does not influence the stream
// at all, so fused TOP N traffic is reproducible across worker counts
// too.
func fusedTopNRandSpan(ints []int64, lo, hi int, p *prune.RandTopN,
	h int64Heap, topN int) (_ int64Heap, sent, fwd int) {
	n := hi - lo
	if n == 0 {
		return h, 0, 0
	}
	m, d, base, pos0 := p.FusedRandState(n)
	mins := m.Mins()
	g := uint64(prune.FusedRandGolden)
	acc := base + pos0*g
	vs := ints[lo:hi]
	// Hash a quad of counters ahead and touch their min-cache lines, then
	// settle the four verdicts unrolled and exactly in entry order: the
	// draws have no loop-carried dependency, so the four hashes overlap,
	// the summed loads act as software prefetches hiding the random-access
	// latency a one-at-a-time loop pays serially, and the unroll keeps the
	// row indices in registers. Decisions are identical to the sequential
	// loop — each verdict re-reads mins (now resident) after any earlier
	// splice in the quad.
	i := 0
	for ; i+4 <= len(vs); i += 4 {
		z0 := hashutil.Mix64(acc)
		z1 := hashutil.Mix64(acc + g)
		z2 := hashutil.Mix64(acc + 2*g)
		z3 := hashutil.Mix64(acc + 3*g)
		acc += 4 * g
		r0 := int(hashutil.ReduceFull(z0, d))
		r1 := int(hashutil.ReduceFull(z1, d))
		r2 := int(hashutil.ReduceFull(z2, d))
		r3 := int(hashutil.ReduceFull(z3, d))
		_ = mins[r0] + mins[r1] + mins[r2] + mins[r3]
		v0, v1, v2, v3 := vs[i], vs[i+1], vs[i+2], vs[i+3]
		// Forwarded entries splice into their (possibly still filling)
		// row — the sentinel-slot layout makes InsertFull Offer minus the
		// verdict the compact-array test already settled.
		if mn := mins[r0]; v0 > mn || mn == cache.MinSentinel {
			m.InsertFull(r0, v0)
			fwd++
			h.offer(v0, topN)
		}
		if mn := mins[r1]; v1 > mn || mn == cache.MinSentinel {
			m.InsertFull(r1, v1)
			fwd++
			h.offer(v1, topN)
		}
		if mn := mins[r2]; v2 > mn || mn == cache.MinSentinel {
			m.InsertFull(r2, v2)
			fwd++
			h.offer(v2, topN)
		}
		if mn := mins[r3]; v3 > mn || mn == cache.MinSentinel {
			m.InsertFull(r3, v3)
			fwd++
			h.offer(v3, topN)
		}
	}
	for ; i < len(vs); i++ {
		v := vs[i]
		row := int(hashutil.ReduceFull(hashutil.Mix64(acc), d))
		acc += g
		if mn := mins[row]; v > mn || mn == cache.MinSentinel {
			m.InsertFull(row, v)
			fwd++
			h.offer(v, topN)
		}
	}
	return h, n, fwd
}

// fusedTopNDetSpan is fusedTopNRandSpan for the deterministic threshold
// pruner: the per-entry transition is DetTopN.FusedOffer.
func fusedTopNDetSpan(ints []int64, lo, hi, workers int, p *prune.DetTopN,
	h int64Heap, topN int) (_ int64Heap, sent, fwd int) {
	n := hi - lo
	if n == 0 {
		return h, 0, 0
	}
	if workers <= 0 {
		workers = 1
	}
	starts := rrStarts(lo, n, workers)
	for k, done := 0, 0; done < n; k++ {
		for w := 0; w < workers; w++ {
			r := starts[w] + k
			if r >= starts[w+1] {
				continue
			}
			done++
			v := ints[r]
			if p.FusedOffer(v) {
				continue
			}
			fwd++
			h.offer(v, topN)
		}
	}
	return h, n, fwd
}

// --- GROUP BY MAX ------------------------------------------------------

// fusedGroupByMaxScan streams (key fingerprint, value) through the
// keyed-max matrix in worker-interleave order; survivors absorb into p.
func fusedGroupByMaxScan(t *table.Table, vc int, seed uint64, g *prune.GroupBy, workers int, p *partial) (sent, fwd int) {
	fps, order := p.hashKeys(seed), p.arrival(workers)
	vals := t.Int64Col(vc)
	m, neg := g.FusedMatrix()
	for i := range fps {
		r := i
		if order != nil {
			r = order[i]
		}
		fp, v := fps[r], vals[r]
		ov := v
		if neg {
			ov = -v
		}
		if m.Offer(fp, ov) {
			continue
		}
		fwd++
		p.absorbMax(v, r)
	}
	return len(fps), fwd
}

// --- GROUP BY SUM ------------------------------------------------------

// fusedGroupBySumScan streams (key fingerprint, value) through the
// in-switch aggregation matrix in worker-interleave order; evicted
// aggregates absorb into p, and every other entry was absorbed by the
// switch (pruned). p.resolve reads the same fingerprint column again to
// find the surviving fingerprints' key ids after the drain.
func fusedGroupBySumScan(t *table.Table, vc int, seed uint64, gs *prune.GroupBySum, workers int, p *partial) (sent, fwd int) {
	fps, order := p.hashKeys(seed), p.arrival(workers)
	vals := t.Int64Col(vc)
	for i := range fps {
		r := i
		if order != nil {
			r = order[i]
		}
		if ek, es, evicted := gs.FusedAdd(fps[r], vals[r]); evicted {
			fwd++
			p.absorbSum(ek, es)
		}
	}
	return len(fps), fwd
}

// --- HAVING ------------------------------------------------------------

// fusedHavingPass1 streams (key fingerprint, value) through the
// Count-Min sketch in worker-interleave order; a forwarded entry makes
// its fingerprint a candidate of p. The second pass
// (partial.sumCandidates) reads the same fingerprint column again.
func fusedHavingPass1(t *table.Table, vc int, seed uint64, h *prune.Having, workers int, p *partial) (sent, fwd int) {
	fps, order := p.hashKeys(seed), p.arrival(workers)
	vals := t.Int64Col(vc)
	for i := range fps {
		r := i
		if order != nil {
			r = order[i]
		}
		fp := fps[r]
		if h.FusedOffer(fp, vals[r]) {
			continue
		}
		fwd++
		p.nominate(fp)
	}
	return len(fps), fwd
}

// --- SKYLINE -----------------------------------------------------------

// fusedSkylineScan streams the dimension tuples through the skyline
// pool in worker-interleave order and returns the forwarded rows. The
// pool's swap/drop logic lives in FusedOffer; the fused win is the
// devirtualized call and the in-loop survivor collection. The entry being
// offered is gathered on the stack, where no other goroutine's writes can
// reach its line.
func fusedSkylineScan(t *table.Table, cols []int, s *prune.Skyline, workers int) (rows []int, sent, fwd int) {
	n := t.NumRows()
	if n == 0 {
		return nil, 0, 0
	}
	if workers <= 0 {
		workers = 1
	}
	starts := rrStarts(0, n, workers)
	ints := make([][]int64, len(cols))
	for i, c := range cols {
		ints[i] = t.Int64Col(c)
	}
	var entry [16]uint64
	vals := entry[:]
	if len(cols) >= len(entry) {
		vals = make([]uint64, len(cols)+1)
	}
	vals = vals[:len(cols)+1]
	for k, done := 0, 0; done < n; k++ {
		for w := 0; w < workers; w++ {
			r := starts[w] + k
			if r >= starts[w+1] {
				continue
			}
			done++
			for i, src := range ints {
				vals[i] = uint64(src[r])
			}
			vals[len(ints)] = uint64(r)
			if !s.FusedOffer(vals) {
				fwd++
				rows = append(rows, r)
			}
		}
	}
	return rows, n, fwd
}
