// Package table implements the columnar in-memory tables that Cheetah's
// workers and master operate on. It mirrors the storage model the paper
// assumes of Spark SQL: columnar memory-optimized storage, with tasks
// reading only the columns relevant to a query ("metadata" streams) and
// late materialization fetching full rows afterwards.
//
// Tables are append-only. Columns are typed (64-bit integers or strings,
// which covers every benchmark query in the paper). Partitioning produces
// zero-copy views that share column storage, the same way Spark partitions
// reference blocks of a parent dataset.
//
// Beside its columns a root table carries four derived structures, all
// optional, all immutable once published through an atomic slot, and all
// standing on one validity rule — appends never rewrite committed rows, so
// what was derived from a prefix stays true of it; only an in-place
// reorder (SortByInt64, Shuffle) falsifies, and a reorder clears the slots
// and moves the reorder epoch that views and snapshots captured when they
// were made:
//
//   - the block skip index (skip.go): per-column min/max zone maps and
//     Bloom filters over fixed-size row blocks, built by BuildSkipIndex and
//     extended over appended rows by RefreshSkipIndex. The engine consults
//     it to prove whole blocks irrelevant to a query — storage-side
//     skipping that composes with the switch's in-flight pruning.
//   - the hash co-partition of a sharded JOIN's key column and its key
//     columns (ShardKeys, KeyShardColumns; shard.go), valid for its rows.
//   - one key-fingerprint column per column (KeyFingerprints; keyfp.go):
//     what a CWorker sends the switch in place of a wide key, hashed once
//     per row for every query, handle and shard that reads the column, and
//     extended — never rebuilt — over appended rows.
//   - one key dictionary per column (KeyIDs; keyids.go): a key id per row,
//     equal exactly where the cells are, built from the fingerprint column
//     with one cell comparison per row, and the keys' canonical ranks — so
//     that the master groups, matches and orders keys by id, not by bytes.
//     Extended like the fingerprint column, under the same lock.
//
// The last two are contiguous-only: a handle whose rows start past what
// the root has derived is turned away and derives its own rows into
// scratch, so that no reader pays for rows it does not read.
// DerivedBytes (derived.go) accounts what the four hold.
package table

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"cheetah/internal/hashutil"
)

// Type is the type of a column.
type Type uint8

const (
	// Int64 is a 64-bit signed integer column.
	Int64 Type = iota
	// String is a variable-width string column.
	String
)

// String returns a human-readable type name.
func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// ColumnDef describes one column of a schema.
type ColumnDef struct {
	Name string
	Type Type
}

// Schema is an ordered list of column definitions.
type Schema []ColumnDef

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustIndex is Index but panics on an unknown column; used when the caller
// has already validated names against the schema.
func (s Schema) MustIndex(name string) int {
	i := s.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("table: unknown column %q", name))
	}
	return i
}

// Validate reports whether the schema has at least one column and no
// duplicate names.
func (s Schema) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("table: schema has no columns")
	}
	seen := make(map[string]bool, len(s))
	for _, c := range s {
		if c.Name == "" {
			return fmt.Errorf("table: empty column name")
		}
		if seen[c.Name] {
			return fmt.Errorf("table: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// column holds the backing storage for one column. Exactly one of the
// slices is used, according to typ.
type column struct {
	typ  Type
	ints []int64
	strs []string
}

// Table is a columnar table, or a contiguous row-range view of one.
// The zero value is not usable; construct with New.
type Table struct {
	schema Schema
	cols   []*column
	// off and n delimit the view into the backing columns. For a table
	// created by New, off is 0 and n tracks appends.
	off, n int
	parent *Table // non-nil for views; appends are disallowed on views
	// version counts mutations applied through this handle (appends,
	// sorts, shuffles). Views and snapshots start at 0 and stay there.
	version uint64
	// epoch counts the in-place reorders of the root (SortByInt64, Shuffle);
	// appends leave it alone. A view or snapshot keeps the epoch of the
	// handle it was made from, and reads or publishes the root's derived
	// structures below only while that is still the root's (sameOrder): a
	// handle from before a reorder derives nothing from, and leaves nothing
	// for, the rows that replaced its own.
	epoch uint64
	// skip is the block skip metadata (zone maps + Blooms; skip.go), nil
	// until BuildSkipIndex. Immutable once published: refreshes swap in
	// a new index, views and snapshots capture the pointer at creation.
	// In-place reorders clear it — block summaries describe row ranges.
	// The pointer itself is atomic so a planner may consult the index
	// while an ingestor refreshes it; skip-index staleness is safe in
	// both directions (skip.go), unlike every other Table field, which
	// needs external synchronization against mutation.
	skip atomic.Pointer[SkipIndex]
	// keyShards memoises, on a root, the latest co-partition of a key
	// column (ShardKeys; shard.go) of a prefix of its rows. The slot is
	// atomic and what it holds immutable, so concurrent queries may read and
	// replace it; an entry is checked against the handle's rows and epoch
	// before it is used.
	keyShards atomic.Pointer[keyShards]
	// keyFPs and keyDicts hold, on a root, one slot per column for the
	// column's memoised key fingerprints (keyfp.go) and key dictionary
	// (keyids.go). Slots are atomic and a published prefix is never
	// rewritten, so readers need no lock; fpMu serialises the handles that
	// extend or replace an entry of either.
	keyFPs   []atomic.Pointer[keyFPs]
	keyDicts []atomic.Pointer[keyDict]
	fpMu     sync.Mutex
}

// root returns the table that owns t's storage and derived structures: t
// itself unless t is a view or snapshot.
func (t *Table) root() *Table {
	if t.parent != nil {
		return t.parent
	}
	return t
}

// sameOrder reports whether t's rows are still in the order root holds
// them in — no reorder since t was made — which is what lets t read and
// publish root's derived structures.
func (t *Table) sameOrder(root *Table) bool { return t.epoch == root.epoch }

// initDerived gives a new root its per-column derived-structure slots.
func (t *Table) initDerived() {
	t.keyFPs = make([]atomic.Pointer[keyFPs], len(t.schema))
	t.keyDicts = make([]atomic.Pointer[keyDict], len(t.schema))
}

// New creates an empty table with the given schema.
func New(schema Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	t := &Table{schema: append(Schema(nil), schema...)}
	t.initDerived()
	t.cols = make([]*column, len(schema))
	for i, c := range schema {
		t.cols[i] = &column{typ: c.Type}
	}
	return t, nil
}

// MustNew is New but panics on error; for statically known-good schemas.
func MustNew(schema Schema) *Table {
	t, err := New(schema)
	if err != nil {
		panic(err)
	}
	return t
}

// ColumnData is one column's values for FromColumns: Ints for an Int64
// column, Strs for a String column.
type ColumnData struct {
	Type Type
	Ints []int64
	Strs []string
}

// FromColumns makes a table of rows rows from whole columns in schema
// order. It adopts the slices rather than copying them, so the caller must
// not write to them after; each must have its column's type and rows
// values. The table's Version is rows, as after rows AppendRow calls.
func FromColumns(schema Schema, rows int, cols []ColumnData) (*Table, error) {
	if len(cols) != len(schema) {
		return nil, fmt.Errorf("table: FromColumns got %d columns, schema has %d", len(cols), len(schema))
	}
	t, err := New(schema)
	if err != nil {
		return nil, err
	}
	for i, cd := range cols {
		c := t.cols[i]
		if cd.Type != c.typ {
			return nil, fmt.Errorf("table: column %q is %v, got %v", schema[i].Name, c.typ, cd.Type)
		}
		n := len(cd.Ints)
		if c.typ == String {
			n = len(cd.Strs)
		}
		if n != rows {
			return nil, fmt.Errorf("table: column %q has %d values for %d rows", schema[i].Name, n, rows)
		}
		// Clipped, so the table's first append copies instead of writing
		// past the caller's values.
		if c.typ == Int64 {
			c.ints = slices.Clip(cd.Ints)
		} else {
			c.strs = slices.Clip(cd.Strs)
		}
	}
	t.n, t.version = rows, uint64(rows)
	return t, nil
}

// Schema returns the table's schema. The caller must not modify it.
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the number of rows visible in this table or view.
func (t *Table) NumRows() int { return t.n }

// Version returns the table's mutation counter: it increments once per
// successful mutating call (row/batch appends, sorts, shuffles) on this
// handle. A streaming ingestor uses it to detect appends that bypassed
// it — the table it owns must only change through its own commits.
// Views and snapshots report 0. Like every Table method, Version
// requires external synchronization against concurrent mutation.
func (t *Table) Version() uint64 { return t.version }

// IsView reports whether the table is a row-range view or snapshot of
// another table (appends and in-place reorders are disallowed on those).
func (t *Table) IsView() bool { return t.parent != nil }

// SnapshotPrefix returns a read-only snapshot of the first n rows whose
// column slice headers are detached from the source: later appends to t
// — even ones that grow the backing arrays in place — are invisible to
// the snapshot, and reading it needs no further synchronization. The
// row data is shared, not copied: append's copy-on-grow semantics never
// rewrite committed rows, and the snapshot's headers are capacity-
// clamped so they cannot alias new appends. In-place reorders of the
// source (SortByInt64, Shuffle) are NOT isolated; a snapshotting owner
// must not reorder. This is the ingestor's consistent-prefix read path:
// writers never block readers.
func (t *Table) SnapshotPrefix(n int) (*Table, error) {
	if n < 0 || n > t.n {
		return nil, fmt.Errorf("table: snapshot prefix %d out of range (rows=%d)", n, t.n)
	}
	cols := make([]*column, len(t.cols))
	for i, c := range t.cols {
		nc := &column{typ: c.typ}
		switch c.typ {
		case Int64:
			nc.ints = c.ints[: t.off+n : t.off+n]
		case String:
			nc.strs = c.strs[: t.off+n : t.off+n]
		}
		cols[i] = nc
	}
	snap := &Table{schema: t.schema, cols: cols, off: t.off, n: n, parent: t.root(), epoch: t.epoch}
	snap.skip.Store(t.skip.Load())
	return snap, nil
}

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// AppendRow appends a row given as one value per column. Values must be
// int64 for Int64 columns and string for String columns. The append is
// atomic: a type error leaves the table untouched (a partial append
// would leave ragged columns that misalign every later row).
func (t *Table) AppendRow(vals ...any) error {
	if t.parent != nil {
		return fmt.Errorf("table: cannot append to a view")
	}
	if len(vals) != len(t.cols) {
		return fmt.Errorf("table: AppendRow got %d values, schema has %d columns", len(vals), len(t.cols))
	}
	for i, v := range vals {
		switch t.cols[i].typ {
		case Int64:
			if _, ok := v.(int64); !ok {
				if _, ok2 := v.(int); !ok2 {
					return fmt.Errorf("table: column %q expects int64, got %T", t.schema[i].Name, v)
				}
			}
		case String:
			if _, ok := v.(string); !ok {
				return fmt.Errorf("table: column %q expects string, got %T", t.schema[i].Name, v)
			}
		}
	}
	for i, v := range vals {
		c := t.cols[i]
		switch c.typ {
		case Int64:
			iv, ok := v.(int64)
			if !ok {
				iv = int64(v.(int))
			}
			c.ints = append(c.ints, iv)
		case String:
			c.strs = append(c.strs, v.(string))
		}
	}
	t.n++
	t.version++
	return nil
}

// AppendInt64Row appends a row to a table whose columns are all Int64.
// It is the allocation-free fast path used by the workload generators.
func (t *Table) AppendInt64Row(vals ...int64) error {
	if t.parent != nil {
		return fmt.Errorf("table: cannot append to a view")
	}
	if len(vals) != len(t.cols) {
		return fmt.Errorf("table: AppendInt64Row got %d values, schema has %d columns", len(vals), len(t.cols))
	}
	for i := range vals {
		if t.cols[i].typ != Int64 {
			return fmt.Errorf("table: column %q is not int64", t.schema[i].Name)
		}
	}
	for i, v := range vals {
		t.cols[i].ints = append(t.cols[i].ints, v)
	}
	t.n++
	t.version++
	return nil
}

// Grow pre-allocates capacity for n additional rows.
func (t *Table) Grow(n int) {
	for _, c := range t.cols {
		switch c.typ {
		case Int64:
			if cap(c.ints)-len(c.ints) < n {
				ns := make([]int64, len(c.ints), len(c.ints)+n)
				copy(ns, c.ints)
				c.ints = ns
			}
		case String:
			if cap(c.strs)-len(c.strs) < n {
				ns := make([]string, len(c.strs), len(c.strs)+n)
				copy(ns, c.strs)
				c.strs = ns
			}
		}
	}
}

// ColumnType returns the type of column c without materializing the
// schema slice; hot loops use it to pick a typed column accessor once
// instead of consulting Schema() per row.
func (t *Table) ColumnType(c int) Type { return t.cols[c].typ }

// Int64At returns the integer value at row r of column c.
func (t *Table) Int64At(c, r int) int64 { return t.cols[c].ints[t.off+r] }

// StringAt returns the string value at row r of column c.
func (t *Table) StringAt(c, r int) string { return t.cols[c].strs[t.off+r] }

// ValueAt returns the value at row r of column c as an any.
func (t *Table) ValueAt(c, r int) any {
	if t.cols[c].typ == Int64 {
		return t.Int64At(c, r)
	}
	return t.StringAt(c, r)
}

// Int64Col returns the backing int64 slice for column c restricted to this
// view. The caller must not modify it. It panics if the column is not Int64.
func (t *Table) Int64Col(c int) []int64 {
	col := t.cols[c]
	if col.typ != Int64 {
		panic(fmt.Sprintf("table: column %q is %v, not int64", t.schema[c].Name, col.typ))
	}
	return col.ints[t.off : t.off+t.n]
}

// StringCol returns the backing string slice for column c restricted to
// this view. The caller must not modify it.
func (t *Table) StringCol(c int) []string {
	col := t.cols[c]
	if col.typ != String {
		panic(fmt.Sprintf("table: column %q is %v, not string", t.schema[c].Name, col.typ))
	}
	return col.strs[t.off : t.off+t.n]
}

// View returns a zero-copy view of rows [lo, hi).
func (t *Table) View(lo, hi int) (*Table, error) {
	if lo < 0 || hi < lo || hi > t.n {
		return nil, fmt.Errorf("table: view [%d,%d) out of range (rows=%d)", lo, hi, t.n)
	}
	v := &Table{
		schema: t.schema,
		cols:   t.cols,
		off:    t.off + lo,
		n:      hi - lo,
		parent: t.root(),
		epoch:  t.epoch,
	}
	v.skip.Store(t.skip.Load())
	return v, nil
}

// Partition splits the table into k contiguous zero-copy views of
// near-equal size, analogous to Spark data partitions assigned to workers.
func (t *Table) Partition(k int) ([]*Table, error) {
	if k <= 0 {
		return nil, fmt.Errorf("table: partition count %d must be positive", k)
	}
	parts := make([]*Table, 0, k)
	for i := 0; i < k; i++ {
		lo := i * t.n / k
		hi := (i + 1) * t.n / k
		v, err := t.View(lo, hi)
		if err != nil {
			return nil, err
		}
		parts = append(parts, v)
	}
	return parts, nil
}

// SortByInt64 sorts the table in place by the named Int64 column,
// ascending. Views cannot be sorted. The sort is used to create the
// "nearly sorted" benchmark tables (Rankings is roughly sorted on
// pageRank).
func (t *Table) SortByInt64(name string) error {
	if t.parent != nil {
		return fmt.Errorf("table: cannot sort a view")
	}
	ci := t.schema.Index(name)
	if ci < 0 {
		return fmt.Errorf("table: unknown column %q", name)
	}
	if t.cols[ci].typ != Int64 {
		return fmt.Errorf("table: sort column %q is not int64", name)
	}
	perm := make([]int, t.n)
	for i := range perm {
		perm[i] = i
	}
	key := t.cols[ci].ints
	sort.SliceStable(perm, func(a, b int) bool { return key[perm[a]] < key[perm[b]] })
	t.applyPermutation(perm)
	t.version++
	return nil
}

// Shuffle permutes the rows of the table in place using a deterministic
// Fisher–Yates shuffle driven by seed. The paper shuffles nearly sorted
// tables before filter/skyline queries ("we run the query on a random
// permutation of the table").
func (t *Table) Shuffle(seed uint64) error {
	if t.parent != nil {
		return fmt.Errorf("table: cannot shuffle a view")
	}
	perm := make([]int, t.n)
	for i := range perm {
		perm[i] = i
	}
	s := seed
	for i := t.n - 1; i > 0; i-- {
		s = hashutil.SplitMix64(s)
		j := int(hashutil.ReduceFull(s, uint64(i+1)))
		perm[i], perm[j] = perm[j], perm[i]
	}
	t.applyPermutation(perm)
	t.version++
	return nil
}

// applyPermutation reorders every column so row i becomes old row perm[i].
// Reordering invalidates everything derived from row positions — the skip
// index's block summaries, the co-partition's in-shard order, the
// fingerprint columns and dictionaries — so the slots are cleared, and the
// epoch moves so that no handle made before the reorder fills them again.
func (t *Table) applyPermutation(perm []int) {
	t.epoch++
	t.skip.Store(nil)
	t.keyShards.Store(nil)
	for c := range t.keyFPs {
		t.keyFPs[c].Store(nil)
		t.keyDicts[c].Store(nil)
	}
	for _, c := range t.cols {
		switch c.typ {
		case Int64:
			ns := make([]int64, len(c.ints))
			for i, p := range perm {
				ns[i] = c.ints[p]
			}
			c.ints = ns
		case String:
			ns := make([]string, len(c.strs))
			for i, p := range perm {
				ns[i] = c.strs[p]
			}
			c.strs = ns
		}
	}
}

// Row is a lightweight cursor over one row of a table.
type Row struct {
	t *Table
	r int
}

// RowAt returns a cursor for row r.
func (t *Table) RowAt(r int) Row { return Row{t: t, r: r} }

// Int64 returns the integer value of the named column in this row.
func (r Row) Int64(name string) int64 {
	return r.t.Int64At(r.t.schema.MustIndex(name), r.r)
}

// String returns the string value of the named column in this row.
func (r Row) String(name string) string {
	return r.t.StringAt(r.t.schema.MustIndex(name), r.r)
}

// Values returns all column values of the row in schema order.
func (r Row) Values() []any {
	out := make([]any, r.t.NumCols())
	for c := range out {
		out[c] = r.t.ValueAt(c, r.r)
	}
	return out
}

// AppendRowsFrom appends the given rows of src to t in order. Schemas
// must match in types (names may differ). It is the bulk counterpart
// of AppendRowFrom: the schema is checked once and each column is
// copied in one sweep — the master-side gather path of sharded
// executions, where survivor counts reach millions of rows.
func (t *Table) AppendRowsFrom(src *Table, rows []int) error {
	if t.parent != nil {
		return fmt.Errorf("table: cannot append to a view")
	}
	if len(t.cols) != len(src.cols) {
		return fmt.Errorf("table: column count mismatch %d vs %d", len(t.cols), len(src.cols))
	}
	for i := range t.cols {
		if t.cols[i].typ != src.cols[i].typ {
			return fmt.Errorf("table: column %d type mismatch", i)
		}
	}
	for i := range t.cols {
		switch t.cols[i].typ {
		case Int64:
			from := src.cols[i].ints[src.off : src.off+src.n]
			dst := t.cols[i].ints
			for _, r := range rows {
				dst = append(dst, from[r])
			}
			t.cols[i].ints = dst
		case String:
			from := src.cols[i].strs[src.off : src.off+src.n]
			dst := t.cols[i].strs
			for _, r := range rows {
				dst = append(dst, from[r])
			}
			t.cols[i].strs = dst
		}
	}
	t.n += len(rows)
	t.version++
	return nil
}

// AppendRowFrom appends row r of src to t. Schemas must be identical in
// types (names may differ).
func (t *Table) AppendRowFrom(src *Table, r int) error {
	if t.parent != nil {
		return fmt.Errorf("table: cannot append to a view")
	}
	if len(t.cols) != len(src.cols) {
		return fmt.Errorf("table: column count mismatch %d vs %d", len(t.cols), len(src.cols))
	}
	for i := range t.cols {
		if t.cols[i].typ != src.cols[i].typ {
			return fmt.Errorf("table: column %d type mismatch", i)
		}
		switch t.cols[i].typ {
		case Int64:
			t.cols[i].ints = append(t.cols[i].ints, src.Int64At(i, r))
		case String:
			t.cols[i].strs = append(t.cols[i].strs, src.StringAt(i, r))
		}
	}
	t.n++
	t.version++
	return nil
}
