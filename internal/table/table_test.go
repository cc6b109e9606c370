package table

import (
	"testing"
	"testing/quick"
)

func productsSchema() Schema {
	return Schema{
		{Name: "name", Type: String},
		{Name: "seller", Type: String},
		{Name: "price", Type: Int64},
	}
}

func productsTable(t *testing.T) *Table {
	t.Helper()
	tbl := MustNew(productsSchema())
	rows := []struct {
		name, seller string
		price        int64
	}{
		{"Burger", "McCheetah", 4},
		{"Pizza", "Papizza", 7},
		{"Fries", "McCheetah", 2},
		{"Jello", "JellyFish", 5},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r.name, r.seller, r.price); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestSchemaValidate(t *testing.T) {
	if err := (Schema{}).Validate(); err == nil {
		t.Fatal("empty schema must fail")
	}
	if err := (Schema{{Name: "a", Type: Int64}, {Name: "a", Type: String}}).Validate(); err == nil {
		t.Fatal("duplicate names must fail")
	}
	if err := (Schema{{Name: "", Type: Int64}}).Validate(); err == nil {
		t.Fatal("empty name must fail")
	}
	if err := productsSchema().Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
}

func TestSchemaIndex(t *testing.T) {
	s := productsSchema()
	if s.Index("seller") != 1 {
		t.Fatal("Index(seller)")
	}
	if s.Index("nope") != -1 {
		t.Fatal("Index(nope)")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustIndex should panic on unknown column")
		}
	}()
	s.MustIndex("nope")
}

func TestAppendAndAccess(t *testing.T) {
	tbl := productsTable(t)
	if tbl.NumRows() != 4 || tbl.NumCols() != 3 {
		t.Fatalf("dims = %d x %d", tbl.NumRows(), tbl.NumCols())
	}
	if got := tbl.StringAt(0, 1); got != "Pizza" {
		t.Fatalf("StringAt = %q", got)
	}
	if got := tbl.Int64At(2, 3); got != 5 {
		t.Fatalf("Int64At = %d", got)
	}
	row := tbl.RowAt(2)
	if row.String("seller") != "McCheetah" || row.Int64("price") != 2 {
		t.Fatalf("row values wrong: %v", row.Values())
	}
	if vals := row.Values(); len(vals) != 3 || vals[0].(string) != "Fries" {
		t.Fatalf("Values = %v", vals)
	}
}

func TestAppendRowTypeErrors(t *testing.T) {
	tbl := MustNew(productsSchema())
	if err := tbl.AppendRow("a", "b"); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if err := tbl.AppendRow("a", "b", "notint"); err == nil {
		t.Fatal("wrong type accepted")
	}
	if err := tbl.AppendRow(1, "b", int64(3)); err == nil {
		t.Fatal("int where string expected accepted")
	}
	// Plain int is accepted for Int64 columns for ergonomic literals.
	if err := tbl.AppendRow("a", "b", 3); err != nil {
		t.Fatalf("int literal rejected: %v", err)
	}
}

func TestAppendInt64Row(t *testing.T) {
	tbl := MustNew(Schema{{Name: "a", Type: Int64}, {Name: "b", Type: Int64}})
	if err := tbl.AppendInt64Row(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendInt64Row(1); err == nil {
		t.Fatal("wrong arity accepted")
	}
	mixed := MustNew(productsSchema())
	if err := mixed.AppendInt64Row(1, 2, 3); err == nil {
		t.Fatal("AppendInt64Row on string column accepted")
	}
	if got := tbl.Int64Col(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Int64Col = %v", got)
	}
}

func TestViewAndPartition(t *testing.T) {
	tbl := productsTable(t)
	v, err := tbl.View(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumRows() != 2 {
		t.Fatalf("view rows = %d", v.NumRows())
	}
	if v.StringAt(0, 0) != "Pizza" || v.StringAt(0, 1) != "Fries" {
		t.Fatal("view window incorrect")
	}
	if err := v.AppendRow("x", "y", int64(0)); err == nil {
		t.Fatal("append to view accepted")
	}
	// View of a view stays anchored to the root table.
	vv, err := v.View(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if vv.StringAt(0, 0) != "Fries" {
		t.Fatal("nested view window incorrect")
	}
	if _, err := tbl.View(3, 2); err == nil {
		t.Fatal("invalid range accepted")
	}

	parts, err := tbl.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		total += p.NumRows()
	}
	if total != tbl.NumRows() {
		t.Fatalf("partitions cover %d rows, want %d", total, tbl.NumRows())
	}
	if _, err := tbl.Partition(0); err == nil {
		t.Fatal("partition(0) accepted")
	}
}

func TestPartitionCoversAllRowsProperty(t *testing.T) {
	f := func(nRows, k uint8) bool {
		n := int(nRows)%200 + 1
		parts := int(k)%10 + 1
		tbl := MustNew(Schema{{Name: "v", Type: Int64}})
		for i := 0; i < n; i++ {
			if err := tbl.AppendInt64Row(int64(i)); err != nil {
				return false
			}
		}
		ps, err := tbl.Partition(parts)
		if err != nil {
			return false
		}
		// Concatenating partitions must reproduce the original order.
		idx := 0
		for _, p := range ps {
			for r := 0; r < p.NumRows(); r++ {
				if p.Int64At(0, r) != int64(idx) {
					return false
				}
				idx++
			}
		}
		return idx == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortByInt64(t *testing.T) {
	tbl := productsTable(t)
	if err := tbl.SortByInt64("price"); err != nil {
		t.Fatal(err)
	}
	prices := tbl.Int64Col(2)
	for i := 1; i < len(prices); i++ {
		if prices[i-1] > prices[i] {
			t.Fatalf("not sorted: %v", prices)
		}
	}
	// Row integrity: Fries must still cost 2.
	found := false
	for r := 0; r < tbl.NumRows(); r++ {
		if tbl.StringAt(0, r) == "Fries" {
			found = true
			if tbl.Int64At(2, r) != 2 {
				t.Fatal("sort broke row alignment")
			}
		}
	}
	if !found {
		t.Fatal("row lost in sort")
	}
	if err := tbl.SortByInt64("name"); err == nil {
		t.Fatal("sorting by string column via SortByInt64 accepted")
	}
	if err := tbl.SortByInt64("ghost"); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	tbl := MustNew(Schema{{Name: "v", Type: Int64}})
	const n = 1000
	for i := 0; i < n; i++ {
		if err := tbl.AppendInt64Row(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Shuffle(42); err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, n)
	moved := 0
	for r := 0; r < n; r++ {
		v := tbl.Int64At(0, r)
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("shuffle is not a permutation at row %d (v=%d)", r, v)
		}
		seen[v] = true
		if v != int64(r) {
			moved++
		}
	}
	if moved < n/2 {
		t.Fatalf("shuffle barely moved anything: %d/%d", moved, n)
	}
	// Determinism: same seed, same permutation.
	tbl2 := MustNew(Schema{{Name: "v", Type: Int64}})
	for i := 0; i < n; i++ {
		_ = tbl2.AppendInt64Row(int64(i))
	}
	_ = tbl2.Shuffle(42)
	tbl3 := MustNew(Schema{{Name: "v", Type: Int64}})
	for i := 0; i < n; i++ {
		_ = tbl3.AppendInt64Row(int64(i))
	}
	_ = tbl3.Shuffle(42)
	for r := 0; r < n; r++ {
		if tbl2.Int64At(0, r) != tbl3.Int64At(0, r) {
			t.Fatal("shuffle not deterministic for equal seeds")
		}
	}
}

func TestAppendRowFrom(t *testing.T) {
	src := productsTable(t)
	dst := MustNew(productsSchema())
	for r := 0; r < src.NumRows(); r++ {
		if err := dst.AppendRowFrom(src, r); err != nil {
			t.Fatal(err)
		}
	}
	if dst.NumRows() != src.NumRows() {
		t.Fatal("row count mismatch")
	}
	if dst.StringAt(0, 3) != "Jello" || dst.Int64At(2, 0) != 4 {
		t.Fatal("copied values wrong")
	}
	other := MustNew(Schema{{Name: "x", Type: Int64}})
	if err := other.AppendRowFrom(src, 0); err == nil {
		t.Fatal("mismatched schema accepted")
	}
}

// TestFromColumns pins the adopting constructor to the table AppendRow
// builds, Version included, and to refusing a column of the wrong type or
// length.
func TestFromColumns(t *testing.T) {
	want := productsTable(t)
	names := []string{"Burger", "Pizza", "Fries", "Jello"}
	prices := make([]int64, 4, 8)
	copy(prices, []int64{4, 7, 2, 5})
	got, err := FromColumns(productsSchema(), 4, []ColumnData{
		{Type: String, Strs: names},
		{Type: String, Strs: []string{"McCheetah", "Papizza", "McCheetah", "JellyFish"}},
		{Type: Int64, Ints: prices},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 4 || got.Version() != want.Version() {
		t.Fatalf("rows %d version %d, want 4 and %d", got.NumRows(), got.Version(), want.Version())
	}
	for r := 0; r < 4; r++ {
		for c := 0; c < 3; c++ {
			if got.ValueAt(c, r) != want.ValueAt(c, r) {
				t.Fatalf("cell (%d,%d) %v, want %v", c, r, got.ValueAt(c, r), want.ValueAt(c, r))
			}
		}
	}
	// An append after adoption writes no further into the caller's array.
	if err := got.AppendRow("Tea", "Leaf", int64(1)); err != nil {
		t.Fatal(err)
	}
	if prices[:5][4] != 0 || got.Int64At(2, 4) != 1 {
		t.Fatal("an append wrote into the adopted column's spare capacity")
	}
	for _, bad := range [][]ColumnData{
		{{Type: String, Strs: names}, {Type: String, Strs: names}},
		{{Type: String, Strs: names}, {Type: String, Strs: names}, {Type: String, Strs: names}},
		{{Type: String, Strs: names}, {Type: String, Strs: names[:3]}, {Type: Int64, Ints: prices[:4]}},
	} {
		if _, err := FromColumns(productsSchema(), 4, bad); err == nil {
			t.Fatalf("FromColumns accepted %+v", bad)
		}
	}
}

func TestGrowPreservesData(t *testing.T) {
	tbl := productsTable(t)
	tbl.Grow(1000)
	if tbl.NumRows() != 4 || tbl.StringAt(0, 0) != "Burger" {
		t.Fatal("Grow corrupted table")
	}
}

func TestInt64ColPanicsOnWrongType(t *testing.T) {
	tbl := productsTable(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Int64Col on string column should panic")
		}
	}()
	tbl.Int64Col(0)
}

func TestStringColPanicsOnWrongType(t *testing.T) {
	tbl := productsTable(t)
	defer func() {
		if recover() == nil {
			t.Fatal("StringCol on int column should panic")
		}
	}()
	tbl.StringCol(2)
}

func BenchmarkAppendInt64Row(b *testing.B) {
	tbl := MustNew(Schema{{Name: "a", Type: Int64}, {Name: "b", Type: Int64}})
	tbl.Grow(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tbl.AppendInt64Row(int64(i), int64(i*2))
	}
}

func BenchmarkInt64ColScan(b *testing.B) {
	tbl := MustNew(Schema{{Name: "a", Type: Int64}})
	const n = 1 << 16
	for i := 0; i < n; i++ {
		_ = tbl.AppendInt64Row(int64(i))
	}
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		col := tbl.Int64Col(0)
		for _, v := range col {
			sink += v
		}
	}
	_ = sink
}
