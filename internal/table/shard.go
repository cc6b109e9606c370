package table

// Sharding splits a table by *content* rather than by position: each row
// is routed to one of k shards by its value in a shard column. This is
// the storage half of the multi-switch fabric — the paper's deployment
// has each rack's ToR switch pruning its own workers' streams, so a
// table sharded across racks determines which switch sees which rows.
// Contiguous Partition stays the single-switch (and per-shard CWorker)
// split; ShardBy adds hash placement (co-locating equal keys, the
// property JOIN scatter/gather needs) and ShardByRange adds
// order-preserving range placement.
//
// Unlike Partition's zero-copy views, shards are real tables: rows are
// scattered, so the column storage must be rebuilt per shard. Sharding
// is deterministic — the same table, column and k always produce the
// same shards.
//
// A JOIN's scatter needs less than that: its passes read the key column
// only, and read it off the table's own fingerprint column and key ids.
// ShardKeys therefore copies no cell: a key shard is the increasing list
// of the rows ShardBy would place in it (4 B a row), and KeyShardColumns
// gathers those rows' fingerprints and key ids into contiguous columns
// (12 B a row), which is what a pass streams. A table that is not a view
// remembers its latest co-partition and its columns, so a repeated JOIN
// over unchanged inputs hashes, gathers and allocates nothing.

import (
	"fmt"
	"sort"
	"sync/atomic"

	"cheetah/internal/hashutil"
)

// keyShards is a root's memoised key co-partition (ShardKeys) of its
// first rows rows as they stood at reorder epoch epoch: immutable once
// published, and true of those rows for as long as the epoch lasts; keys
// holds the lists' key columns under the latest seed (KeyShardColumns).
type keyShards struct {
	epoch  uint64
	rows   int
	col, k int
	shards [][]uint32
	keys   atomic.Pointer[shardKeys]
}

// shardKeys is a key co-partition's rows' key fingerprints and key ids
// under seed, list by list in the lists' order. Immutable once published.
type shardKeys struct {
	seed uint64
	fps  [][]uint64
	ids  [][]uint32
}

// shardSeed fixes the hash-sharding placement function. It is a package
// constant, not a caller seed: two tables sharded on same-typed key
// columns must agree on placement (JOIN co-location) regardless of which
// query triggered the sharding.
const shardSeed = 0x5ca77e12c0ffee42

// ShardBy splits the table into k shards by hashing the named column:
// row r lands in shard hash(value) mod k. Equal values always land in
// the same shard, so two tables hash-sharded on same-typed key columns
// co-locate their matching keys shard-for-shard. k may exceed the row
// count (the excess shards are empty); k ≤ 0 is an error.
func (t *Table) ShardBy(col string, k int) ([]*Table, error) {
	ci := t.schema.Index(col)
	if ci < 0 {
		return nil, fmt.Errorf("table: unknown shard column %q", col)
	}
	assign, err := t.shardAssignments(ci, k)
	if err != nil {
		return nil, err
	}
	return t.buildShards(assign, k)
}

// shardAssignments computes each row's hash-shard index.
func (t *Table) shardAssignments(ci, k int) ([]int, error) {
	if k <= 0 {
		return nil, fmt.Errorf("table: shard count %d must be positive", k)
	}
	assign := make([]int, t.n)
	switch t.cols[ci].typ {
	case Int64:
		vals := t.Int64Col(ci)
		for r, v := range vals {
			assign[r] = int(hashutil.ReduceFull(hashutil.HashUint64(uint64(v), shardSeed), uint64(k)))
		}
	case String:
		vals := t.StringCol(ci)
		for r, v := range vals {
			assign[r] = int(hashutil.ReduceFull(hashutil.HashString64(v, shardSeed), uint64(k)))
		}
	}
	return assign, nil
}

// ShardByRange splits the table into k shards by value ranges of the
// named Int64 column: boundaries are the column's k-quantiles, so the
// shards cover contiguous, non-overlapping value ranges of near-equal
// row count (heavily duplicated values can still skew shard sizes —
// equal values never split across shards). k may exceed the row count;
// k ≤ 0 and non-Int64 columns are errors.
func (t *Table) ShardByRange(col string, k int) ([]*Table, error) {
	ci := t.schema.Index(col)
	if ci < 0 {
		return nil, fmt.Errorf("table: unknown shard column %q", col)
	}
	if k <= 0 {
		return nil, fmt.Errorf("table: shard count %d must be positive", k)
	}
	if t.cols[ci].typ != Int64 {
		return nil, fmt.Errorf("table: range-shard column %q is %v, need int64", col, t.cols[ci].typ)
	}
	vals := t.Int64Col(ci)
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// Upper (inclusive) bound of shards 0..k-2; the last shard is
	// unbounded. Quantile boundaries on the sorted column give near-equal
	// shard sizes for distinct-heavy columns.
	bounds := make([]int64, k-1)
	for i := range bounds {
		hi := (i + 1) * t.n / k
		if hi >= t.n {
			hi = t.n - 1
		}
		if t.n == 0 {
			bounds[i] = 0
			continue
		}
		bounds[i] = sorted[hi]
	}
	assign := make([]int, t.n)
	for r, v := range vals {
		assign[r] = sort.Search(len(bounds), func(i int) bool { return v <= bounds[i] })
	}
	return t.buildShards(assign, k)
}

// ShardKeys hash-shards the table's rows on the named column without
// copying a cell: shard s is the increasing list of the rows, in the
// table's coordinates, that ShardBy(col, k) places in shard s. The k
// lists share one array of 4 B a row.
//
// The root keeps the latest result in one slot beside its skip index, and
// any handle that starts at the root's first row — the table itself, a
// SnapshotPrefix of it — gets it back, the same slices, shared read-only
// between callers, while the handle covers exactly the rows it was built
// over and the root has not been reordered since (the table's one validity
// rule; table.go). An append moves the row count, a reorder the epoch, and
// another column or k replaces the slot. A view that starts further in
// shards per call.
func (t *Table) ShardKeys(col string, k int) ([][]uint32, error) {
	ci := t.schema.Index(col)
	if ci < 0 {
		return nil, fmt.Errorf("table: unknown shard column %q", col)
	}
	root := t.root()
	memo := t.off == 0 && t.sameOrder(root)
	if memo {
		if m := root.keyShards.Load(); m != nil && m.epoch == t.epoch && m.rows == t.n && m.col == ci && m.k == k {
			return m.shards, nil
		}
	}
	assign, err := t.shardAssignments(ci, k)
	if err != nil {
		return nil, err
	}
	counts := make([]int, k)
	for _, s := range assign {
		counts[s]++
	}
	rows := make([]uint32, t.n)
	shards := make([][]uint32, k)
	for s, n := range counts {
		shards[s], rows = rows[:0:n], rows[n:]
	}
	for r, s := range assign {
		shards[s] = append(shards[s], uint32(r))
	}
	if memo {
		root.keyShards.Store(&keyShards{epoch: t.epoch, rows: t.n, col: ci, k: k, shards: shards})
	}
	return shards, nil
}

// KeyShardColumns returns, for each list of shards — a co-partition
// ShardKeys returned for t — its rows' entries of fps and ids, t's key
// fingerprints and key ids of the shard column under seed, in the list's
// order: a key shard's keys, contiguous. Beside a co-partition it keeps,
// the root keeps them too, for the latest seed (12 B a row), so that a
// repeated JOIN gathers nothing; any other is gathered per call.
func (t *Table) KeyShardColumns(shards [][]uint32, seed uint64, fps []uint64, ids []uint32) ([][]uint64, [][]uint32) {
	m := t.root().keyShards.Load()
	kept := m != nil && len(shards) > 0 && &m.shards[0] == &shards[0]
	if kept {
		if c := m.keys.Load(); c != nil && c.seed == seed {
			return c.fps, c.ids
		}
	}
	c := &shardKeys{seed: seed, fps: make([][]uint64, len(shards)), ids: make([][]uint32, len(shards))}
	allFPs, allIDs := make([]uint64, t.n), make([]uint32, t.n)
	for s, rows := range shards {
		n := len(rows)
		c.fps[s], c.ids[s], allFPs, allIDs = allFPs[:n:n], allIDs[:n:n], allFPs[n:], allIDs[n:]
		for i, r := range rows {
			c.fps[s][i], c.ids[s][i] = fps[r], ids[r]
		}
	}
	if kept {
		m.keys.Store(c)
	}
	return c.fps, c.ids
}

// buildShards materializes k shard tables from per-row assignments: each
// shard column is allocated once at its final size and filled in one
// sweep of the source column (scatter).
func (t *Table) buildShards(assign []int, k int) ([]*Table, error) {
	counts := make([]int, k)
	for _, s := range assign {
		counts[s]++
	}
	shards := make([]*Table, k)
	for s := range shards {
		sh, err := New(t.schema)
		if err != nil {
			return nil, err
		}
		sh.n = counts[s]
		shards[s] = sh
	}
	for c, src := range t.cols {
		switch src.typ {
		case Int64:
			for s, vals := range scatter(src.ints[t.off:t.off+t.n], assign, counts) {
				shards[s].cols[c].ints = vals
			}
		case String:
			for s, vals := range scatter(src.strs[t.off:t.off+t.n], assign, counts) {
				shards[s].cols[c].strs = vals
			}
		}
	}
	return shards, nil
}

// scatter deals vals[r] to slice assign[r] of the result, in order;
// counts[s] is how many land in slice s. Each slice is written through
// its own cursor into storage sized up front.
func scatter[T any](vals []T, assign, counts []int) [][]T {
	dst := make([][]T, len(counts))
	for s, n := range counts {
		dst[s] = make([]T, n)
	}
	next := make([]int, len(counts))
	for r, v := range vals {
		s := assign[r]
		dst[s][next[s]] = v
		next[s]++
	}
	return dst
}
