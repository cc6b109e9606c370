package table

import (
	"sync"
	"testing"
)

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
	// A row number per row.
	want.KeyShards = 4 * rows
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
		KeyShards:       4 * 500,
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

// TestKeyShardsConcurrentDerivedBytes: goroutines alternate one root's
// memoised co-partition between k = 2 and k = 3, and gather its key
// columns, through the table and a snapshot of it, while others read
// DerivedBytes, which promises to be safe beside queries. Every
// co-partition handed out lists every row once, and the account only ever
// sees a whole one: none, 4 B a row, or 16 with its key columns.
func TestKeyShardsConcurrentDerivedBytes(t *testing.T) {
	const rows, rounds = 3000, 200
	tb := testTable(t, rows)
	snap, err := tb.SnapshotPrefix(rows)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := []*Table{tb, snap}[g%2]
			fps, _, ok := h.KeyFingerprints(1, 7)
			dict, _, ok2 := h.KeyIDs(1, 7)
			if !ok || !ok2 {
				t.Errorf("writer %d: the root refused its key memos", g)
				return
			}
			for i := 0; i < rounds; i++ {
				k := 2 + (g+i)%2
				shards, err := h.ShardKeys("name", k)
				if err != nil {
					t.Error(err)
					return
				}
				f, _ := h.KeyShardColumns(shards, 7, fps, dict.IDs)
				n := 0
				for s, l := range shards {
					n += len(l)
					if len(f[s]) != len(l) {
						t.Errorf("writer %d: %d fingerprints for %d rows", g, len(f[s]), len(l))
						return
					}
				}
				if len(shards) != k || n != rows {
					t.Errorf("writer %d: %d lists of %d rows, want %d of %d", g, len(shards), n, k, rows)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				d := tb.DerivedBytes()
				if ks := d.KeyShards; ks != 0 && ks != 4*rows && ks != 16*rows {
					t.Errorf("reader %d: co-partition of %d B, want 0, %d or %d", g, ks, 4*rows, 16*rows)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
