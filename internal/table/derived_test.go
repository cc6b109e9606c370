package table

import "testing"

// TestDerivedBytes follows one root's account through an index build, a
// keyed query, a JOIN's key map, a co-partition, an append and a reorder.
func TestDerivedBytes(t *testing.T) {
	const rows, br, seed = 400, 64, 7
	tb := testTable(t, rows) // id Int64, name String (7 keys), score Int64
	if d := tb.DerivedBytes(); d != (DerivedBytes{}) {
		t.Fatalf("fresh table accounts %+v", d)
	}
	if err := tb.BuildSkipIndex(br); err != nil {
		t.Fatal(err)
	}
	// A block holds 16 B of zone maps and an 8·br-bit Bloom per column.
	perBlock := 3 * (16 + br)
	want := DerivedBytes{Skip: 7 * perBlock}
	if d := tb.DerivedBytes(); d != want {
		t.Fatalf("after BuildSkipIndex: %+v, want %+v", d, want)
	}

	// A keyed query over name: one fingerprint and one id per row, a first
	// row and a tag per key, the minimum index, and the ranks once ordered;
	// then a JOIN of name with another table's: 4 B per right key, kept on
	// this, the left, dictionary.
	if _, _, ok := tb.KeyFingerprints(1, seed); !ok {
		t.Fatal("root refused its own fingerprints")
	}
	k, _, ok := tb.KeyIDs(1, seed)
	if !ok || k.Len() != 7 {
		t.Fatalf("dictionary: ok=%v keys=%d", ok, k.Len())
	}
	k.Order()
	right := testTable(t, 50)
	rk, _, _ := right.KeyIDs(1, seed)
	if _, probed, cold := k.Map(rk, nil); probed == 0 || !cold {
		t.Fatalf("first key map: probed %d cold %v", probed, cold)
	}
	if right.DerivedBytes().KeyMaps != 0 {
		t.Fatal("the right table accounts the key map its partner keeps")
	}
	keyCap := cap(tb.keyDicts[1].Load().first) + cap(tb.keyDicts[1].Load().tags)
	want.KeyFingerprints = 8 * rows
	want.KeyIDs = 4*rows + 4*keyCap + 8*dictIndexSlots(7) + 4*7
	want.KeyMaps = 4 * rk.Len()
	if _, err := tb.ShardKeys("name", 2); err != nil {
		t.Fatal(err)
	}
	// A string header and a source row per row, the bytes shared.
	want.KeyShards = (16 + 4) * rows
	if d := tb.DerivedBytes(); d != want {
		t.Fatalf("after a keyed query: %+v, want %+v", d, want)
	}
	if v, _ := tb.View(100, 200); v.DerivedBytes() != want {
		t.Fatal("a view does not report its root's account")
	}

	// 100 more rows of a known key: one more block, and memos that move
	// keep an eighth of growing room.
	for i := 0; i < 100; i++ {
		if err := tb.AppendRow(int64(rows+i), "n3", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tb.RefreshSkipIndex()
	if _, _, ok := tb.KeyFingerprints(1, seed); !ok {
		t.Fatal("root refused to extend its fingerprints")
	}
	if _, _, ok := tb.KeyIDs(1, seed); !ok {
		t.Fatal("root refused to extend its dictionary")
	}
	if _, err := tb.ShardKeys("name", 2); err != nil {
		t.Fatal(err)
	}
	const grown = 500 + 500/8
	want = DerivedBytes{
		Skip:            8 * perBlock,
		KeyFingerprints: 8 * grown,
		KeyIDs:          4*grown + 4*keyCap + 8*dictIndexSlots(7) + 4*7,
		KeyMaps:         4 * rk.Len(),
		KeyShards:       (16 + 4) * 500,
	}
	if d := tb.DerivedBytes(); d != want {
		t.Fatalf("after an append: %+v, want %+v", d, want)
	}

	if err := tb.Shuffle(1); err != nil {
		t.Fatal(err)
	}
	if d := tb.DerivedBytes(); d != (DerivedBytes{}) {
		t.Fatalf("after Shuffle: %+v, want nothing", d)
	}
}
