package table

// Block skip metadata: zone maps + Bloom filters over fixed-size row
// blocks, the storage-side complement to switch pruning. The switch
// prunes entries in flight; the skip index lets workers avoid reading
// (and encoding) whole blocks that provably contain no relevant row,
// in the style of Provenance-based Data Skipping.
//
// The index is immutable once published: extending it after appends
// builds a NEW SkipIndex that shares the sealed (full) block metas,
// replaces a partial tail by a copy extended over the appended rows, and
// builds the blocks past it — so a refresh costs O(rows appended), and a
// snapshot that captured an older index pointer keeps reading it without
// synchronization: the same copy-on-write discipline SnapshotPrefix
// applies to column headers. A zone map folds rows in any order and a
// Bloom's bits are an OR of its keys', so the extended index is the one
// BuildSkipIndex would build over the same rows, bit for bit.
//
// Staleness is safe in both directions, which is what makes the
// ingestor integration cheap. An index covering MORE rows than a view
// (snapshot taken mid-tail-block) yields per-block ranges and Blooms
// that are supersets of the view's rows — fewer skips, never a wrong
// one. An index covering FEWER rows (appends since the last refresh)
// leaves the uncovered tail without metadata — those rows are always
// scanned. Both rely on rows being append-only and never rewritten;
// in-place reorders (SortByInt64, Shuffle) invalidate the index.

import (
	"fmt"
	"math"
	"slices"

	"cheetah/internal/hashutil"
	"cheetah/internal/sketch"
)

// DefaultBlockRows is the skip-index block size used when the caller
// does not pick one: large enough that per-block metadata (two int64s
// plus ~8 Bloom bits per row per column) stays well under 1% of column
// storage, small enough that a selective predicate skips at fine grain.
const DefaultBlockRows = 4096

// bloomSeed salts the per-column block Blooms, and bloomHashes is how
// many hash functions each uses. Fixed so that an index refreshed over
// appends and one built over the same rows are the same structure.
const (
	bloomSeed   = 0x5eedb10c
	bloomHashes = 3
)

// BlockMeta summarizes one block of rows: per-column min/max for Int64
// columns and a per-column Bloom filter (Int64 values keyed directly,
// strings hashed). All fields are immutable after construction.
type BlockMeta struct {
	rows   int
	mins   []int64
	maxs   []int64
	blooms []*sketch.Bloom
}

// Rows returns how many rows the block summarizes. For every block but
// the tail this equals the index's block size; the tail covers however
// many rows existed at the last build/refresh.
func (m *BlockMeta) Rows() int { return m.rows }

// Int64Range returns the min and max value of Int64 column c over the
// block's rows.
func (m *BlockMeta) Int64Range(c int) (lo, hi int64) { return m.mins[c], m.maxs[c] }

// MayContainInt64 reports whether Int64 column c may contain v in this
// block. False is definitive (zone map excludes it, or the Bloom has
// never seen it); true may be a false positive.
func (m *BlockMeta) MayContainInt64(c int, v int64) bool {
	if v < m.mins[c] || v > m.maxs[c] {
		return false
	}
	if b := m.blooms[c]; b != nil {
		return b.Contains(uint64(v))
	}
	return true
}

// MayContainString reports whether String column c may contain s in
// this block. False is definitive; true may be a false positive.
func (m *BlockMeta) MayContainString(c int, s string) bool {
	if b := m.blooms[c]; b != nil {
		return b.Contains(hashutil.HashString64(s, bloomSeed))
	}
	return true
}

// SkipIndex is block skip metadata over the first Rows() rows of a root
// table, in root row coordinates: block b covers root rows
// [b·BlockRows(), min((b+1)·BlockRows(), Rows())). The struct and every
// BlockMeta it references are immutable; refreshing after appends
// publishes a new index.
type SkipIndex struct {
	blockRows int
	rows      int
	blocks    []*BlockMeta
	// fams[c] is the hash family of column c's Blooms, one per column for
	// the index and every index refreshed from it: a block's Bloom costs
	// its bits alone.
	fams []*hashutil.Family
}

// BlockRows returns the index's block size in rows.
func (ix *SkipIndex) BlockRows() int { return ix.blockRows }

// Rows returns how many root rows the index covers. Rows appended after
// the last refresh are uncovered and must be scanned.
func (ix *SkipIndex) Rows() int { return ix.rows }

// NumBlocks returns the number of block metas.
func (ix *SkipIndex) NumBlocks() int { return len(ix.blocks) }

// Block returns the meta for block b.
func (ix *SkipIndex) Block(b int) *BlockMeta { return ix.blocks[b] }

// SkipIndex returns the table's skip index, or nil if none was built.
// Views and snapshots return the index captured from their root at
// creation time; use RootOffset to translate view rows to index rows.
// Safe to call concurrently with BuildSkipIndex/RefreshSkipIndex: the
// pointer swap is atomic and a stale index is safe in both directions
// (see the file comment).
func (t *Table) SkipIndex() *SkipIndex { return t.skip.Load() }

// RootOffset returns the view's starting row in root coordinates (0 for
// a root table). Skip-index blocks are root-aligned, so a consumer
// iterating a view maps local row r to index row RootOffset()+r.
func (t *Table) RootOffset() int { return t.off }

// BuildSkipIndex builds (or rebuilds) block skip metadata over all
// current rows and attaches it to the table; SnapshotPrefix, View and
// Partition propagate the index to the tables they derive. blockRows
// ≤ 0 selects DefaultBlockRows. Only root tables carry an index.
func (t *Table) BuildSkipIndex(blockRows int) error {
	if t.parent != nil {
		return fmt.Errorf("table: cannot build a skip index on a view")
	}
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	ix := &SkipIndex{blockRows: blockRows, rows: t.n, fams: make([]*hashutil.Family, len(t.cols))}
	for c := range ix.fams {
		ix.fams[c] = hashutil.NewFamily(bloomHashes, bloomSeed^uint64(c))
	}
	for lo := 0; lo < t.n; lo += blockRows {
		ix.blocks = append(ix.blocks, t.buildBlock(ix, lo, min(lo+blockRows, t.n)))
	}
	t.skip.Store(ix)
	return nil
}

// RefreshSkipIndex extends the skip index over rows appended since the
// last build/refresh, in O(rows appended): sealed (full) block metas are
// shared with the previous index, a partial tail is copied on write — its
// zone maps and Blooms copied, then fed the appended rows alone — and
// only the blocks past it are built. The previous index, its tail
// included, is never written, so snapshots that captured it keep reading
// exactly what they captured. A no-op when the table has no index, is a
// view, or is already fully covered.
func (t *Table) RefreshSkipIndex() {
	ix := t.skip.Load()
	if t.parent != nil || ix == nil || ix.rows == t.n {
		return
	}
	br := ix.blockRows
	nx := &SkipIndex{blockRows: br, rows: t.n, fams: ix.fams}
	nx.blocks = make([]*BlockMeta, len(ix.blocks), (t.n+br-1)/br)
	copy(nx.blocks, ix.blocks)
	lo := len(ix.blocks) * br // the first row no block has room for
	if ix.rows < lo {
		tail := len(nx.blocks) - 1
		nx.blocks[tail] = ix.blocks[tail].extend(t, ix.rows, min(lo, t.n))
	}
	for ; lo < t.n; lo += br {
		nx.blocks = append(nx.blocks, t.buildBlock(nx, lo, min(lo+br, t.n)))
	}
	t.skip.Store(nx)
}

// buildBlock summarizes root rows [lo, hi) of every column into a new
// block of ix. Bloom size follows the block capacity (~8 bits per row,
// bloomHashes hash functions) with a small floor so tiny test blocks keep
// a usable false-positive rate.
func (t *Table) buildBlock(ix *SkipIndex, lo, hi int) *BlockMeta {
	m := &BlockMeta{
		rows:   hi - lo,
		mins:   make([]int64, len(t.cols)),
		maxs:   make([]int64, len(t.cols)),
		blooms: make([]*sketch.Bloom, len(t.cols)),
	}
	bits := max(8*ix.blockRows, 64)
	for c, col := range t.cols {
		b, err := sketch.NewBloomOf(bits, ix.fams[c])
		if err != nil {
			// The size is statically valid; an error here would be a
			// programming bug, not a data condition.
			panic(fmt.Sprintf("table: block bloom: %v", err))
		}
		m.blooms[c] = b
		if col.typ == Int64 {
			m.mins[c], m.maxs[c] = math.MaxInt64, math.MinInt64
		}
		m.fold(c, col, lo, hi)
	}
	return m
}

// extend returns a copy of m that also summarizes root rows [lo, hi),
// the rows appended past m's. m is not written.
func (m *BlockMeta) extend(t *Table, lo, hi int) *BlockMeta {
	nm := &BlockMeta{
		rows:   m.rows + hi - lo,
		mins:   slices.Clone(m.mins),
		maxs:   slices.Clone(m.maxs),
		blooms: make([]*sketch.Bloom, len(m.blooms)),
	}
	for c, col := range t.cols {
		nm.blooms[c] = m.blooms[c].Clone()
		nm.fold(c, col, lo, hi)
	}
	return nm
}

// fold adds root rows [lo, hi) of column c to m's zone map and Bloom of
// it. Only a block no index has published yet may be folded into.
func (m *BlockMeta) fold(c int, col *column, lo, hi int) {
	b := m.blooms[c]
	switch col.typ {
	case Int64:
		mn, mx := m.mins[c], m.maxs[c]
		for _, v := range col.ints[lo:hi] {
			mn, mx = min(mn, v), max(mx, v)
			b.Add(uint64(v))
		}
		m.mins[c], m.maxs[c] = mn, mx
	case String:
		for _, s := range col.strs[lo:hi] {
			b.Add(hashutil.HashString64(s, bloomSeed))
		}
	}
}
