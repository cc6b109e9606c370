package table

// A JOIN over k switches splits both tables by *content* rather than by
// position: each row is routed to one of k shards by a hash of its key
// cell, so equal keys — on either side of the join — meet on one switch.
// The passes read the key column only, and read it off the table's own
// fingerprint column and key ids. ShardKeys therefore copies no cell: a
// key shard is the increasing list of the rows the hash places in it
// (4 B a row), and KeyShardColumns gathers those rows' fingerprints and
// key ids into contiguous columns (12 B a row), which is what a pass
// streams. Placement is deterministic — the same table, column and k
// always give the same lists — and a table that is not a view remembers
// its latest co-partition and its columns, so a repeated JOIN over
// unchanged inputs hashes, gathers and allocates nothing. Contiguous
// Partition stays the split of every other kind.

import (
	"fmt"
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

// shardAssignments computes each row's hash-shard index: hash(value)
// mod k.
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

// ShardKeys hash-shards the table's rows on the named column without
// copying a cell: shard s is the increasing list of the rows, in the
// table's coordinates, whose cell hashes to s (shardAssignments). Equal
// values land in the same shard, so two tables sharded on same-typed key
// columns co-locate their matching keys list for list. The k lists share
// one array of 4 B a row; k may exceed the row count (the excess lists
// are empty), and k ≤ 0 is an error.
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
