package table

import (
	"fmt"
	"sort"
	"testing"

	"cheetah/internal/hashutil"
)

// testTable builds a small mixed-type table with deterministic contents.
func testTable(t testing.TB, rows int) *Table {
	t.Helper()
	tbl := MustNew(Schema{
		{Name: "id", Type: Int64},
		{Name: "name", Type: String},
		{Name: "score", Type: Int64},
	})
	s := uint64(42)
	for i := 0; i < rows; i++ {
		s = hashutil.SplitMix64(s)
		if err := tbl.AppendRow(int64(i), fmt.Sprintf("n%d", s%7), int64(s%1000)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// rowStrings renders every row of t canonically for multiset comparison.
func rowStrings(t *Table) []string {
	out := make([]string, 0, t.NumRows())
	for r := 0; r < t.NumRows(); r++ {
		key := ""
		for c := 0; c < t.NumCols(); c++ {
			key += fmt.Sprintf("%v\x00", t.ValueAt(c, r))
		}
		out = append(out, key)
	}
	return out
}

// assertMultisetEqual checks that the shards' rows together are exactly
// the original table's rows (the reassembly property).
func assertMultisetEqual(t *testing.T, orig *Table, shards []*Table) {
	t.Helper()
	want := rowStrings(orig)
	var got []string
	total := 0
	for _, sh := range shards {
		got = append(got, rowStrings(sh)...)
		total += sh.NumRows()
	}
	if total != orig.NumRows() {
		t.Fatalf("shards hold %d rows, original has %d", total, orig.NumRows())
	}
	sort.Strings(want)
	sort.Strings(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row multiset differs at %d: got %q want %q", i, got[i], want[i])
		}
	}
}

// ShardBy is the reference ShardKeys is held to: it splits the table into
// k shard tables, row r in shard hash(value) mod k (shardAssignments),
// each shard's rows in table order.
func (t *Table) ShardBy(col string, k int) ([]*Table, error) {
	ci := t.schema.Index(col)
	if ci < 0 {
		return nil, fmt.Errorf("table: unknown shard column %q", col)
	}
	assign, err := t.shardAssignments(ci, k)
	if err != nil {
		return nil, err
	}
	rows := make([][]int, k)
	for r, s := range assign {
		rows[s] = append(rows[s], r)
	}
	shards := make([]*Table, k)
	for s := range shards {
		if shards[s], err = New(t.schema); err == nil {
			err = shards[s].AppendRowsFrom(t, rows[s])
		}
		if err != nil {
			return nil, err
		}
	}
	return shards, nil
}

func TestShardByReassemblesMultiset(t *testing.T) {
	tbl := testTable(t, 500)
	for _, k := range []int{1, 2, 4, 7, 16} {
		for _, col := range []string{"id", "name"} {
			shards, err := tbl.ShardBy(col, k)
			if err != nil {
				t.Fatalf("ShardBy(%q, %d): %v", col, k, err)
			}
			if len(shards) != k {
				t.Fatalf("ShardBy(%q, %d) returned %d shards", col, k, len(shards))
			}
			assertMultisetEqual(t, tbl, shards)
		}
	}
}

func TestShardByCoLocatesEqualKeys(t *testing.T) {
	tbl := testTable(t, 300)
	shards, err := tbl.ShardBy("name", 4)
	if err != nil {
		t.Fatal(err)
	}
	home := map[string]int{}
	for i, sh := range shards {
		names := sh.StringCol(sh.Schema().MustIndex("name"))
		for _, n := range names {
			if prev, ok := home[n]; ok && prev != i {
				t.Fatalf("key %q appears in shards %d and %d", n, prev, i)
			}
			home[n] = i
		}
	}
}

func TestShardEdgeCases(t *testing.T) {
	tbl := testTable(t, 3)

	// k ≤ 0 errors for every split flavour.
	for _, k := range []int{0, -1} {
		if _, err := tbl.Partition(k); err == nil {
			t.Fatalf("Partition(%d): want error", k)
		}
		if _, err := tbl.ShardBy("id", k); err == nil {
			t.Fatalf("ShardBy(%d): want error", k)
		}
	}

	// k > rows: every flavour yields k splits, some empty.
	for name, split := range map[string]func(int) ([]*Table, error){
		"Partition": tbl.Partition,
		"ShardBy":   func(k int) ([]*Table, error) { return tbl.ShardBy("id", k) },
	} {
		parts, err := split(10)
		if err != nil {
			t.Fatalf("%s(10) on 3 rows: %v", name, err)
		}
		if len(parts) != 10 {
			t.Fatalf("%s(10) returned %d splits", name, len(parts))
		}
		assertMultisetEqual(t, tbl, parts)
	}

	// Empty table: k empty splits, no error.
	empty := MustNew(tbl.Schema())
	for name, split := range map[string]func(int) ([]*Table, error){
		"Partition": empty.Partition,
		"ShardBy":   func(k int) ([]*Table, error) { return empty.ShardBy("id", k) },
	} {
		parts, err := split(4)
		if err != nil {
			t.Fatalf("%s on empty table: %v", name, err)
		}
		if len(parts) != 4 {
			t.Fatalf("%s on empty table returned %d splits", name, len(parts))
		}
		for i, p := range parts {
			if p.NumRows() != 0 {
				t.Fatalf("%s empty-table split %d has %d rows", name, i, p.NumRows())
			}
		}
	}

	// An unknown column errors.
	if _, err := tbl.ShardBy("nope", 2); err == nil {
		t.Fatal("ShardBy(unknown column): want error")
	}
}

func TestShardByDeterministic(t *testing.T) {
	tbl := testTable(t, 200)
	a, err := tbl.ShardBy("name", 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tbl.ShardBy("name", 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		ra, rb := rowStrings(a[i]), rowStrings(b[i])
		if len(ra) != len(rb) {
			t.Fatalf("shard %d sizes differ: %d vs %d", i, len(ra), len(rb))
		}
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("shard %d row %d differs between runs", i, j)
			}
		}
	}
}

// TestPartitionViewsShareStorage pins Partition's zero-copy contract
// alongside the copying shards.
func TestPartitionViewsShareStorage(t *testing.T) {
	tbl := testTable(t, 100)
	parts, err := tbl.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		total += p.NumRows()
	}
	if total != tbl.NumRows() {
		t.Fatalf("partition rows %d != %d", total, tbl.NumRows())
	}
	assertMultisetEqual(t, tbl, parts)
	if err := parts[0].AppendRow(int64(1), "x", int64(2)); err == nil {
		t.Fatal("append to a view: want error")
	}
}

// TestAppendRowsFrom pins the bulk gather against the row-at-a-time
// reference, including from views and with type-mismatch rejection.
func TestAppendRowsFrom(t *testing.T) {
	src := testTable(t, 50)
	view, err := src.View(10, 40)
	if err != nil {
		t.Fatal(err)
	}
	rows := []int{0, 5, 5, 29, 17}
	bulk := MustNew(src.Schema())
	if err := bulk.AppendRowsFrom(view, rows); err != nil {
		t.Fatal(err)
	}
	ref := MustNew(src.Schema())
	for _, r := range rows {
		if err := ref.AppendRowFrom(view, r); err != nil {
			t.Fatal(err)
		}
	}
	got, want := rowStrings(bulk), rowStrings(ref)
	if len(got) != len(want) {
		t.Fatalf("bulk appended %d rows, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs: %q vs %q", i, got[i], want[i])
		}
	}
	if err := view.AppendRowsFrom(src, []int{0}); err == nil {
		t.Fatal("append to a view: want error")
	}
	other := MustNew(Schema{{Name: "x", Type: String}})
	if err := other.AppendRowsFrom(src, []int{0}); err == nil {
		t.Fatal("column count mismatch: want error")
	}
	mistyped := MustNew(Schema{
		{Name: "id", Type: String},
		{Name: "name", Type: String},
		{Name: "score", Type: Int64},
	})
	if err := mistyped.AppendRowsFrom(src, []int{0}); err == nil {
		t.Fatal("type mismatch: want error")
	}
}

// assertKeyShards checks ShardKeys' contract against ShardBy: list s names,
// increasing and in src's coordinates, exactly the rows of src that
// ShardBy places in shard s — row for row the shard's rows, in order, and
// every row of src in one list.
func assertKeyShards(t *testing.T, label string, src *Table, col string, got [][]uint32) {
	t.Helper()
	want, err := src.ShardBy(col, len(got))
	if err != nil {
		t.Fatal(err)
	}
	listed := make([]bool, src.NumRows())
	for s, rows := range got {
		if len(rows) != want[s].NumRows() {
			t.Fatalf("%s shard %d: %d rows, ShardBy places %d", label, s, len(rows), want[s].NumRows())
		}
		for i, r := range rows {
			if i > 0 && r <= rows[i-1] {
				t.Fatalf("%s shard %d row %d: source row %d after %d", label, s, i, r, rows[i-1])
			}
			if int(r) >= src.NumRows() || listed[r] {
				t.Fatalf("%s shard %d row %d: source row %d past the %d rows or listed twice", label, s, i, r, src.NumRows())
			}
			listed[r] = true
			for c := range src.Schema() {
				if g, w := src.ValueAt(c, int(r)), want[s].ValueAt(c, i); g != w {
					t.Fatalf("%s shard %d row %d: source row %d holds %v in column %d, ShardBy's row %v", label, s, i, r, g, c, w)
				}
			}
		}
	}
	for r, ok := range listed {
		if !ok {
			t.Fatalf("%s: row %d in no list", label, r)
		}
	}
}

// TestShardKeysMatchesShardBy: key shards list the rows ShardBy places in
// each shard, in its order, from a table, a view past row 0 and a
// snapshot, memoised or not, more shards than rows included.
func TestShardKeysMatchesShardBy(t *testing.T) {
	tbl := testTable(t, 300)
	view, err := tbl.View(17, 230)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := tbl.SnapshotPrefix(120)
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]*Table{"table": tbl, "view": view, "snapshot": snap, "tiny": testTable(t, 3), "empty": MustNew(tbl.Schema())}
	for name, src := range srcs {
		for _, col := range []string{"id", "name"} {
			for _, k := range []int{1, 2, 4, 7} {
				for pass := 0; pass < 2; pass++ { // the second call may be a memo hit
					got, err := src.ShardKeys(col, k)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != k {
						t.Fatalf("%s %s k=%d: %d shards", name, col, k, len(got))
					}
					assertKeyShards(t, fmt.Sprintf("%s %s k=%d pass=%d", name, col, k, pass), src, col, got)
				}
			}
		}
	}
	if _, err := tbl.ShardKeys("nope", 2); err == nil {
		t.Fatal("ShardKeys(unknown column): want error")
	}
	fresh := testTable(t, 5)
	if _, err := fresh.ShardKeys("id", 0); err == nil || fresh.keyShards.Load() != nil {
		t.Fatalf("ShardKeys(k=0): err %v, slot %v; want an error and no memo", err, fresh.keyShards.Load())
	}
}

// TestShardKeysMemo pins the memo's life cycle: a repeat returns the very
// same shards and allocates nothing; another column or k replaces the
// slot; every mutation of the table invalidates it, and what is rebuilt
// describes the mutated table.
func TestShardKeysMemo(t *testing.T) {
	tbl := testTable(t, 400)
	first, err := tbl.ShardKeys("name", 2)
	if err != nil {
		t.Fatal(err)
	}
	again, err := tbl.ShardKeys("name", 2)
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &again[0] {
		t.Fatal("memo hit returned a different shard slice")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := tbl.ShardKeys("name", 2); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("memo hit allocates %v times, want 0", allocs)
	}

	// Another k, then another column: each replaces the one slot.
	for _, c := range []struct {
		col string
		k   int
	}{{"name", 4}, {"id", 4}, {"name", 2}} {
		got, err := tbl.ShardKeys(c.col, c.k)
		if err != nil {
			t.Fatal(err)
		}
		m := tbl.keyShards.Load()
		if m == nil || &m.shards[0] != &got[0] || m.k != c.k || m.col != tbl.Schema().Index(c.col) {
			t.Fatalf("%s k=%d: slot %+v does not hold what was returned", c.col, c.k, m)
		}
		assertKeyShards(t, fmt.Sprintf("%s k=%d", c.col, c.k), tbl, c.col, got)
	}

	mutations := map[string]func() error{
		"AppendRowsFrom": func() error { return tbl.AppendRowsFrom(testTable(t, 9), []int{0, 3, 8}) },
		"AppendRow":      func() error { return tbl.AppendRow(int64(-1), "fresh", int64(5)) },
		"Shuffle":        func() error { return tbl.Shuffle(99) },
		"SortByInt64":    func() error { return tbl.SortByInt64("score") },
	}
	for name, mutate := range mutations {
		before, err := tbl.ShardKeys("name", 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		after, err := tbl.ShardKeys("name", 3)
		if err != nil {
			t.Fatal(err)
		}
		if &before[0] == &after[0] {
			t.Fatalf("%s: stale co-partition served after the mutation", name)
		}
		if m := tbl.keyShards.Load(); m == nil || m.epoch != tbl.epoch || m.rows != tbl.NumRows() || &m.shards[0] != &after[0] {
			t.Fatalf("%s: slot %+v not rebuilt at epoch %d, %d rows", name, m, tbl.epoch, tbl.NumRows())
		}
		assertKeyShards(t, name, tbl, "name", after)
	}
}

// TestShardKeysHandlesShareRootMemo: a handle that starts at the root's
// first row — a snapshot, a whole-table view — reads and publishes the
// root's slot under (rows, reorder epoch, column, k), never a slot of its
// own; a handle that starts further in, or was made before a reorder,
// neither reads nor writes one.
func TestShardKeysHandlesShareRootMemo(t *testing.T) {
	tbl := testTable(t, 200)
	view, err := tbl.View(0, tbl.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := tbl.SnapshotPrefix(tbl.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot builds; the table and the view get the same shards back.
	built, err := snap.ShardKeys("name", 2)
	if err != nil {
		t.Fatal(err)
	}
	if m := tbl.keyShards.Load(); m == nil || &m.shards[0] != &built[0] || snap.keyShards.Load() != nil {
		t.Fatal("a snapshot's co-partition did not land in the root's slot (or landed in its own)")
	}
	for name, h := range map[string]*Table{"table": tbl, "view": view, "snapshot": snap} {
		got, err := h.ShardKeys("name", 2)
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] != &built[0] {
			t.Fatalf("%s: covers the memoised rows, yet sharded again", name)
		}
	}
	// An append moves the row count: the old snapshot still covers the
	// rows the memo describes, the table no longer does.
	if err := tbl.AppendRow(int64(-1), "fresh", int64(5)); err != nil {
		t.Fatal(err)
	}
	if got, _ := snap.ShardKeys("name", 2); &got[0] != &built[0] {
		t.Fatal("an append invalidated the co-partition of the rows before it")
	}
	grown, err := tbl.ShardKeys("name", 2)
	if err != nil {
		t.Fatal(err)
	}
	if &grown[0] == &built[0] {
		t.Fatal("the grown table was served the shorter prefix's co-partition")
	}
	assertKeyShards(t, "grown", tbl, "name", grown)
	// A handle that starts further in shards per call and touches no slot.
	slot := tbl.keyShards.Load()
	inner, err := tbl.View(17, 150)
	if err != nil {
		t.Fatal(err)
	}
	a, err := inner.ShardKeys("name", 2)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := inner.ShardKeys("name", 2)
	if &a[0] == &b[0] || tbl.keyShards.Load() != slot || inner.keyShards.Load() != nil {
		t.Fatal("an inner view read or wrote a memo slot")
	}
	assertKeyShards(t, "inner view", inner, "name", a)
	// A reorder moves the epoch: the snapshot keeps its own rows and must
	// neither be served the reordered table's shards nor leave its own.
	if err := tbl.Shuffle(5); err != nil {
		t.Fatal(err)
	}
	reordered, err := tbl.ShardKeys("name", 2)
	if err != nil {
		t.Fatal(err)
	}
	slot = tbl.keyShards.Load()
	stale, err := snap.ShardKeys("name", 2)
	if err != nil {
		t.Fatal(err)
	}
	if &stale[0] == &reordered[0] || tbl.keyShards.Load() != slot {
		t.Fatal("a pre-reorder snapshot read or replaced the reordered root's co-partition")
	}
	assertKeyShards(t, "pre-reorder snapshot", snap, "name", stale)
}

// TestKeyShardColumns: each list's key columns hold, in the list's order,
// its rows' fingerprints and ids; a co-partition the root keeps keeps them
// for the latest seed — the same slices on a repeat, new ones, kept, for
// another seed — and a co-partition it does not keep (a replaced one, an
// inner view's) is gathered per call, leaving the root's as it was.
func TestKeyShardColumns(t *testing.T) {
	tbl := testTable(t, 300)
	columns := func(h *Table, shards [][]uint32, seed uint64) ([][]uint64, [][]uint32) {
		t.Helper()
		fps, _, ok := h.KeyFingerprints(1, seed)
		if !ok {
			fps = make([]uint64, h.NumRows())
			h.HashKeys(1, seed, fps)
		}
		dict, _, ok := h.KeyIDs(1, seed)
		if !ok {
			dict = h.BuildKeyIDs(1, fps, new(KeyIDScratch))
		}
		f, g := h.KeyShardColumns(shards, seed, fps, dict.IDs)
		for s, rows := range shards {
			if len(f[s]) != len(rows) || len(g[s]) != len(rows) {
				t.Fatalf("shard %d: %d fingerprints and %d ids for %d rows", s, len(f[s]), len(g[s]), len(rows))
			}
			for i, r := range rows {
				if f[s][i] != fps[r] || g[s][i] != dict.IDs[r] {
					t.Fatalf("shard %d position %d: (%#x, %d), row %d holds (%#x, %d)", s, i, f[s][i], g[s][i], r, fps[r], dict.IDs[r])
				}
			}
		}
		return f, g
	}
	shards, err := tbl.ShardKeys("name", 3)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := columns(tbl, shards, 7)
	if again, _ := columns(tbl, shards, 7); &again[0] != &f[0] {
		t.Fatal("a kept co-partition's columns were gathered again")
	}
	if d := tbl.DerivedBytes().KeyShards; d != (4+8+4)*tbl.NumRows() {
		t.Fatalf("co-partition with its columns accounts %d B, want %d", d, 16*tbl.NumRows())
	}
	other, _ := columns(tbl, shards, 8)
	if &other[0] == &f[0] || tbl.keyShards.Load().keys.Load().seed != 8 {
		t.Fatal("another seed did not replace the kept columns")
	}
	kept := tbl.keyShards.Load().keys.Load()
	if _, err := tbl.ShardKeys("name", 2); err != nil {
		t.Fatal(err)
	}
	slot := tbl.keyShards.Load()
	a, _ := columns(tbl, shards, 8) // the replaced co-partition's lists
	b, _ := columns(tbl, shards, 8)
	if &a[0] == &b[0] || &a[0] == &kept.fps[0] || tbl.keyShards.Load() != slot || slot.keys.Load() != nil {
		t.Fatal("a replaced co-partition's columns were kept, or touched the root's")
	}
	inner, err := tbl.View(17, 230)
	if err != nil {
		t.Fatal(err)
	}
	innerShards, err := inner.ShardKeys("name", 3)
	if err != nil {
		t.Fatal(err)
	}
	columns(inner, innerShards, 7)
	if tbl.keyShards.Load() != slot || slot.keys.Load() != nil {
		t.Fatal("an inner view's columns touched the root's slot")
	}
}
