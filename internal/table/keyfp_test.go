package table

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"testing"

	"cheetah/internal/hashutil"
)

// refFingerprint is the test's own statement of a single-column key
// fingerprint, written from the cell up and sharing no code with the fill.
func refFingerprint(t *Table, c, r int, seed uint64) uint64 {
	var cell uint64
	if t.ColumnType(c) == Int64 {
		cell = hashutil.HashUint64(uint64(t.Int64At(c, r)), seed)
	} else {
		cell = hashutil.HashString64(t.StringAt(c, r), seed)
	}
	return hashutil.Mix64(seed ^ 0xfeedface ^ cell)
}

// fpSchedule runs a schedule of table operations, decoded from data, over
// one root and the handles derived from it, and after every step asks
// every live handle for a fingerprint column and for key ids and checks
// them — the property test, the hand cases and the fuzz target are all
// this interpreter.
//
// What must hold at every step, for every handle h of the root:
//
//   - a column h gets (from the memo, or hashed into scratch when the memo
//     turns it away) equals a fresh hash of h's own rows;
//   - key ids h gets (from the dictionary, or built into scratch when the
//     dictionary turns it away) are equal exactly where h's cells are;
//     every id's first row comes no later than any row carrying it and
//     holds the same cell; and the ids' ranks order their cells byte-wise
//     as rendered (keyIDsError);
//   - a handle made before the root's latest reorder is turned away;
//   - a turned-away handle leaves the slot as it found it, and a served
//     one moves it by exactly the rows it reports hashed or built;
//   - a slice served earlier still holds what it held (extension never
//     rewrites or pulls away a published prefix);
//   - the fingerprint memo holds at most 8 bytes per row per column, the
//     dictionary at most 4.5 bytes per row plus 48 per key and half a
//     kilobyte, growing room included.
type fpSchedule struct {
	t       testing.TB
	root    *Table
	handles []*Table
	donor   *Table
	// served and servedIDs remember slices handed out earlier with a copy
	// of their contents at the time.
	served    [][2][]uint64
	servedIDs [][2][]uint32
}

var fpSeeds = [2]uint64{7, 0xfeedbeef}

func newFPSchedule(t testing.TB, rows int) *fpSchedule {
	s := &fpSchedule{t: t, root: testTable(t, rows), donor: testTable(t, 64)}
	s.handles = []*Table{s.root}
	return s
}

// pick maps a schedule byte onto [0, n).
func pick(b byte, n int) int {
	if n <= 0 {
		return 0
	}
	return int(b) % n
}

// step applies one operation: op selects it, a and b parameterise it.
func (s *fpSchedule) step(op, a, b byte) {
	t := s.t
	h := s.handles[pick(a, len(s.handles))]
	var made []*Table
	switch op % 8 {
	case 0:
		if err := s.root.AppendRow(int64(a), fmt.Sprintf("n%d", b%11), int64(b)); err != nil {
			t.Fatal(err)
		}
	case 1:
		rows := make([]int, 1+pick(b, 40))
		for i := range rows {
			rows[i] = (int(a) + i) % s.donor.NumRows()
		}
		if err := s.root.AppendRowsFrom(s.donor, rows); err != nil {
			t.Fatal(err)
		}
	case 2:
		lo := pick(b, h.NumRows()+1)
		hi := lo + pick(a^b, h.NumRows()-lo+1)
		v, err := h.View(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		made = []*Table{v}
	case 3:
		parts, err := h.Partition(1 + pick(b, 3))
		if err != nil {
			t.Fatal(err)
		}
		made = parts
	case 4:
		snap, err := h.SnapshotPrefix(pick(b, h.NumRows()+1))
		if err != nil {
			t.Fatal(err)
		}
		made = []*Table{snap}
	case 5:
		if err := s.root.Shuffle(uint64(a)<<8 | uint64(b)); err != nil {
			t.Fatal(err)
		}
	case 6:
		if err := s.root.SortByInt64("score"); err != nil {
			t.Fatal(err)
		}
	case 7:
		// A read alone: check runs below.
	}
	s.handles = append(s.handles, made...)
	if extra := len(s.handles) - 12; extra > 0 {
		// The root stays; the oldest derived handles go.
		s.handles = append(s.handles[:1], s.handles[1+extra:]...)
	}
	c, seed := pick(a+b, s.root.NumCols()), fpSeeds[pick(op>>3, len(fpSeeds))]
	s.check(c, seed)
	s.checkIDs(c, seed)
}

// check asks every live handle for column c under seed.
func (s *fpSchedule) check(c int, seed uint64) {
	t, root := s.t, s.root
	for i, h := range s.handles {
		before := root.keyFPs[c].Load()
		covered := len(before.prefix(root.epoch, seed))
		fps, hashed, ok := h.KeyFingerprints(c, seed)
		after := root.keyFPs[c].Load()
		label := fmt.Sprintf("handle %d [%d,%d) col %d seed %#x", i, h.off, h.off+h.n, c, seed)
		if h.epoch != root.epoch && ok {
			t.Fatalf("%s: made at epoch %d, served a column at epoch %d", label, h.epoch, root.epoch)
		}
		if !ok {
			if after != before {
				t.Fatalf("%s: turned away, yet the slot moved", label)
			}
			if h.epoch == root.epoch && h.off <= covered {
				t.Fatalf("%s: turned away though the memo reaches row %d", label, covered)
			}
			fps = make([]uint64, h.NumRows())
			h.HashKeys(c, seed, fps)
		} else {
			if len(fps) != h.NumRows() || cap(fps) != len(fps) {
				t.Fatalf("%s: served len %d cap %d for %d rows", label, len(fps), cap(fps), h.NumRows())
			}
			if want := max(h.off+h.n-covered, 0); hashed != want {
				t.Fatalf("%s: reports %d rows hashed, memo reached %d", label, hashed, covered)
			}
			if reached := len(after.prefix(root.epoch, seed)); reached != max(covered, h.off+h.n) {
				t.Fatalf("%s: memo reaches %d after the call, want %d", label, reached, max(covered, h.off+h.n))
			}
			s.served = append(s.served, [2][]uint64{fps, slices.Clone(fps)})
		}
		for r, fp := range fps {
			if want := refFingerprint(h, c, r, seed); fp != want {
				t.Fatalf("%s row %d: fingerprint %#x, a fresh hash gives %#x", label, r, fp, want)
			}
		}
	}
	for _, sv := range s.served {
		if !slices.Equal(sv[0], sv[1]) {
			t.Fatal("a column served earlier changed under its reader")
		}
	}
	if len(s.served) > 64 {
		s.served = s.served[len(s.served)-64:]
	}
	var held int
	for c := range root.keyFPs {
		if m := root.keyFPs[c].Load(); m != nil {
			if len(m.fps) > root.NumRows() || cap(m.fps) > root.NumRows()+root.NumRows()/8 {
				t.Fatalf("col %d: memo len %d cap %d over %d rows", c, len(m.fps), cap(m.fps), root.NumRows())
			}
			held += 8 * len(m.fps)
		}
	}
	if bound := 8 * root.NumRows() * root.NumCols(); held > bound {
		t.Fatalf("memo holds %d bytes, bound %d", held, bound)
	}
}

// checkIDs asks every live handle for column c's key ids under seed.
func (s *fpSchedule) checkIDs(c int, seed uint64) {
	t, root := s.t, s.root
	for i, h := range s.handles {
		before := root.keyDicts[c].Load()
		covered := before.valid(root.epoch, seed).rows()
		k, built, ok := h.KeyIDs(c, seed)
		after := root.keyDicts[c].Load()
		label := fmt.Sprintf("handle %d [%d,%d) col %d seed %#x", i, h.off, h.off+h.n, c, seed)
		if h.epoch != root.epoch && ok {
			t.Fatalf("%s: made at epoch %d, served ids at epoch %d", label, h.epoch, root.epoch)
		}
		if !ok {
			if after != before {
				t.Fatalf("%s: turned away, yet the dictionary moved", label)
			}
			if h.epoch == root.epoch && h.off <= covered {
				t.Fatalf("%s: turned away though the dictionary reaches row %d", label, covered)
			}
			fps := make([]uint64, h.NumRows())
			h.HashKeys(c, seed, fps)
			k = h.BuildKeyIDs(c, fps, new(KeyIDScratch))
		} else {
			if len(k.IDs) != h.NumRows() || cap(k.IDs) != len(k.IDs) {
				t.Fatalf("%s: served len %d cap %d for %d rows", label, len(k.IDs), cap(k.IDs), h.NumRows())
			}
			if want := max(h.off+h.n-covered, 0); built != want {
				t.Fatalf("%s: reports %d rows built, dictionary reached %d", label, built, covered)
			}
			if reached := after.valid(root.epoch, seed).rows(); reached != max(covered, h.off+h.n) {
				t.Fatalf("%s: dictionary reaches %d after the call, want %d", label, reached, max(covered, h.off+h.n))
			}
			s.servedIDs = append(s.servedIDs, [2][]uint32{k.IDs, slices.Clone(k.IDs)})
		}
		if err := keyIDsError(h, c, k); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	for _, sv := range s.servedIDs {
		if !slices.Equal(sv[0], sv[1]) {
			t.Fatal("key ids served earlier changed under their reader")
		}
	}
	if len(s.servedIDs) > 64 {
		s.servedIDs = s.servedIDs[len(s.servedIDs)-64:]
	}
	for c := range root.keyDicts {
		d := root.keyDicts[c].Load()
		if d == nil {
			continue
		}
		held := 4*cap(d.ids) + 4*cap(d.first) + 4*cap(d.tags) + 8*len(d.lin.index.slots)
		if r := d.lin.ranks.Load(); r != nil {
			held += 4 * cap(r.order)
		}
		if bound := 4*root.NumRows() + root.NumRows()/2 + 48*len(d.first) + 512; held > bound {
			t.Fatalf("col %d: dictionary of %d keys over %d rows holds %d bytes, bound %d", c, len(d.first), root.NumRows(), held, bound)
		}
	}
}

// rendered is row r's cell of col as a result renders it.
func rendered(col column, r int) string {
	if col.typ == String {
		return col.strs[r]
	}
	return strconv.FormatInt(col.ints[r], 10)
}

// keyIDsError checks k, h's key ids of column c: equal ids exactly where
// the cells are equal, every id below Len, its first row no later than
// any row carrying it and holding the same cell, and ranks ordering the
// ids below Len strictly by rendered cell, byte-wise.
func keyIDsError(h *Table, c int, k KeyIDs) error {
	byCell, byID := map[string]uint32{}, map[uint32]string{}
	col := h.colPrefix(c, h.off+h.n)
	for r, id := range k.IDs {
		cell := rendered(col, h.off+r)
		if other, seen := byCell[cell]; seen && other != id {
			return fmt.Errorf("row %d: cell %q has ids %d and %d", r, cell, other, id)
		}
		if other, seen := byID[id]; seen && other != cell {
			return fmt.Errorf("row %d: id %d has cells %q and %q", r, id, other, cell)
		}
		byCell[cell], byID[id] = id, cell
		if int(id) >= k.Len() {
			return fmt.Errorf("row %d: id %d, dictionary of %d", r, id, k.Len())
		}
		if f := int(k.first[id]); f > h.off+r || rendered(col, f) != cell {
			return fmt.Errorf("row %d: id %d first seen at row %d", r, id, f-h.off)
		}
	}
	if k.Len() == 0 {
		return nil
	}
	order := k.Order()
	var byRank []uint32
	for _, id := range order {
		if int(id) < k.Len() {
			byRank = append(byRank, id)
		}
	}
	if len(byRank) != k.Len() {
		return fmt.Errorf("order lists %d of the %d ids below Len", len(byRank), k.Len())
	}
	for i, id := range byRank {
		if cell := rendered(col, int(k.first[id])); cell != k.Cell(id) {
			return fmt.Errorf("id %d: Cell renders %q, its first row holds %q", id, k.Cell(id), cell)
		}
		cell := rendered(col, int(k.first[id]))
		if i > 0 && rendered(col, int(k.first[byRank[i-1]])) >= cell {
			return fmt.Errorf("ranks put %q before %q", rendered(col, int(k.first[byRank[i-1]])), cell)
		}
	}
	return nil
}

// run interprets data three bytes at a time.
func (s *fpSchedule) run(data []byte) {
	for ; len(data) >= 3; data = data[3:] {
		s.step(data[0], data[1], data[2])
	}
}

// fpHandCases are schedules written to walk the memo's edges; they are
// the fuzz target's corpus too. Opcodes: 0 AppendRow, 1 AppendRowsFrom,
// 2 View, 3 Partition, 4 SnapshotPrefix, 5 Shuffle, 6 SortByInt64, 7 read;
// +8 selects the second seed.
var fpHandCases = map[string][]byte{
	"build-then-extend":        {7, 0, 1, 1, 5, 39, 7, 0, 1, 0, 9, 9, 7, 0, 1},
	"partition-cold-then-warm": {3, 0, 2, 7, 1, 0, 7, 2, 0, 7, 0, 1},
	"snapshot-then-reorder":    {7, 0, 1, 4, 0, 200, 5, 3, 4, 7, 0, 1, 7, 1, 0},
	"view-then-sort":           {2, 0, 17, 7, 0, 1, 6, 0, 0, 7, 0, 1},
	"second-seed-replaces":     {7, 0, 1, 15, 0, 1, 7, 0, 1, 15, 0, 1},
	"second-column":            {7, 0, 0, 7, 0, 1, 7, 0, 2, 7, 1, 1},
	"append-under-snapshots":   {4, 0, 255, 1, 3, 30, 4, 0, 255, 2, 1, 9, 1, 7, 39, 7, 2, 2, 7, 0, 1},
	"views-of-views":           {3, 0, 2, 2, 1, 5, 2, 3, 1, 4, 2, 9, 7, 0, 1, 1, 0, 20, 7, 0, 1},
}

// TestKeyFingerprintMemoSchedules runs the hand cases and then random
// schedules from a seed.
func TestKeyFingerprintMemoSchedules(t *testing.T) {
	for name, data := range fpHandCases {
		t.Run(name, func(t *testing.T) { newFPSchedule(t, 300).run(data) })
	}
	rng := uint64(0x5eed)
	for round := 0; round < 40; round++ {
		data := make([]byte, 3*60)
		for i := range data {
			rng = hashutil.SplitMix64(rng)
			data[i] = byte(rng)
		}
		newFPSchedule(t, int(rng>>8)%400).run(data)
	}
}

// FuzzKeyFingerprintMemo is the property test with the schedule decoded
// from the fuzz input.
func FuzzKeyFingerprintMemo(f *testing.F) {
	for _, data := range fpHandCases {
		f.Add(uint16(300), data)
	}
	f.Fuzz(func(t *testing.T, rows uint16, data []byte) {
		if len(data) > 3*200 {
			data = data[:3*200]
		}
		newFPSchedule(t, int(rows%1000)).run(data)
	})
}

// TestKeyFingerprintCells pins the fill on the cells where a hasher is
// likeliest to slip, against the reference written from the cell up.
func TestKeyFingerprintCells(t *testing.T) {
	tb := MustNew(Schema{{Name: "s", Type: String}, {Name: "i", Type: Int64}})
	strs := []string{"", "a", "a\x00", "\x00", "a\x00b", "user0042", string(make([]byte, 300))}
	ints := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 42, -42}
	for i := range strs {
		if err := tb.AppendRow(strs[i], ints[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, seed := range []uint64{0, 1, 0xfeedface, math.MaxUint64} {
		for c := 0; c < tb.NumCols(); c++ {
			fps, hashed, ok := tb.KeyFingerprints(c, seed)
			if !ok || hashed != tb.NumRows() {
				t.Fatalf("col %d seed %#x: ok=%v hashed=%d", c, seed, ok, hashed)
			}
			for r, fp := range fps {
				if want := refFingerprint(tb, c, r, seed); fp != want {
					t.Fatalf("col %d row %d seed %#x: %#x, want %#x", c, r, seed, fp, want)
				}
			}
		}
	}
}

// TestKeyFingerprintGapLeavesSlotEmpty: a handle that starts past the
// memo's end is turned away and builds nothing — not the rows before its
// own, not its own.
func TestKeyFingerprintGapLeavesSlotEmpty(t *testing.T) {
	tb := testTable(t, 400)
	parts, err := tb.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := parts[1].KeyFingerprints(1, 7); ok || tb.keyFPs[1].Load() != nil {
		t.Fatalf("cold shard 1: ok=%v, slot filled=%v; want a refusal and an empty slot", ok, tb.keyFPs[1].Load() != nil)
	}
	if _, hashed, ok := parts[0].KeyFingerprints(1, 7); !ok || hashed != 200 {
		t.Fatalf("cold shard 0: ok=%v hashed=%d, want the first 200 rows built", ok, hashed)
	}
	// Contiguous now: shard 1 extends, and a third pass reads.
	if _, hashed, ok := parts[1].KeyFingerprints(1, 7); !ok || hashed != 200 {
		t.Fatalf("shard 1 after shard 0: ok=%v hashed=%d, want an extension by 200", ok, hashed)
	}
	for i, p := range parts {
		if _, hashed, ok := p.KeyFingerprints(1, 7); !ok || hashed != 0 {
			t.Fatalf("warm shard %d: ok=%v hashed=%d, want a plain hit", i, ok, hashed)
		}
	}
}

// TestKeyFingerprintSnapshotAcrossReorder: a snapshot taken before a
// reorder keeps its own rows, so it must never read the column hashed
// over the rows that replaced them — nor leave its own for the root.
func TestKeyFingerprintSnapshotAcrossReorder(t *testing.T) {
	tb := testTable(t, 300)
	snap, err := tb.SnapshotPrefix(300)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := snap.KeyFingerprints(1, 7); !ok {
		t.Fatal("a fresh snapshot builds the memo")
	}
	if err := tb.Shuffle(3); err != nil {
		t.Fatal(err)
	}
	if tb.keyFPs[1].Load() != nil {
		t.Fatal("Shuffle left the fingerprint column in place")
	}
	if _, _, ok := snap.KeyFingerprints(1, 7); ok || tb.keyFPs[1].Load() != nil {
		t.Fatal("a pre-reorder snapshot used or filled the root's slot")
	}
	fps, _, ok := tb.KeyFingerprints(1, 7)
	if !ok {
		t.Fatal("the reordered root builds afresh")
	}
	for r, fp := range fps {
		if want := refFingerprint(tb, 1, r, 7); fp != want {
			t.Fatalf("row %d after Shuffle: %#x, want %#x", r, fp, want)
		}
	}
	if _, _, ok := snap.KeyFingerprints(1, 7); ok {
		t.Fatal("a pre-reorder snapshot read the post-reorder column")
	}
}

// TestKeyFingerprintExtensionKeepsOldReaders: a reader holds a served
// column while appends push the memo past its capacity more than once;
// what the reader holds never changes, and small extensions do not copy
// the column each time.
func TestKeyFingerprintExtensionKeepsOldReaders(t *testing.T) {
	tb := testTable(t, 1000)
	held, _, _ := tb.KeyFingerprints(1, 7)
	want := slices.Clone(held)
	moves := 0
	for batch := 0; batch < 64; batch++ {
		for i := 0; i < 32; i++ {
			if err := tb.AppendRow(int64(i), fmt.Sprintf("late%d", i%5), int64(batch)); err != nil {
				t.Fatal(err)
			}
		}
		before := tb.keyFPs[1].Load().fps
		fps, hashed, ok := tb.KeyFingerprints(1, 7)
		if !ok || hashed != 32 || len(fps) != tb.NumRows() {
			t.Fatalf("batch %d: ok=%v hashed=%d len=%d", batch, ok, hashed, len(fps))
		}
		if &fps[0] != &before[0] {
			moves++
		}
		if !slices.Equal(held, want) {
			t.Fatalf("batch %d: the column an older reader holds changed", batch)
		}
	}
	// 2048 rows appended to 1000 at an eighth of headroom per move.
	if moves == 0 || moves > 16 {
		t.Fatalf("64 extensions moved the column %d times", moves)
	}
}

// TestKeyFingerprintConcurrentAppend is the ingestor's shape under the
// race detector: one appender commits 256-row batches under a lock while
// readers snapshot under the same lock and then, outside it, ask the
// snapshot and a delta view of it for the same columns' fingerprints, key
// ids and ranks, and for the snapshot's co-partition and the root's
// derived bytes while the appender refreshes the skip index.
func TestKeyFingerprintConcurrentAppend(t *testing.T) {
	tb := testTable(t, 512)
	if err := tb.BuildSkipIndex(64); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex // the ingestor's: commits and snapshots
	const batches, readers = 24, 4
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen := 0
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one last look at the final table
				default:
				}
				mu.Lock()
				snap, err := tb.SnapshotPrefix(tb.NumRows())
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				handles := []*Table{snap}
				if seen < snap.NumRows() {
					delta, err := snap.View(seen, snap.NumRows())
					if err != nil {
						t.Error(err)
						return
					}
					handles = append(handles, delta)
				}
				seen = snap.NumRows()
				for _, h := range handles {
					c := 1 + g%2
					fps, _, ok := h.KeyFingerprints(c, 7)
					if !ok {
						fps = make([]uint64, h.NumRows())
						h.HashKeys(c, 7, fps)
					}
					for r, fp := range fps {
						if want := refFingerprint(h, c, r, 7); fp != want {
							t.Errorf("reader %d rows [%d,%d) row %d: %#x, want %#x", g, h.off, h.off+h.n, r, fp, want)
							return
						}
					}
					k, _, ok := h.KeyIDs(c, 7)
					if !ok {
						k = h.BuildKeyIDs(c, fps, new(KeyIDScratch))
					}
					if err := keyIDsError(h, c, k); err != nil {
						t.Errorf("reader %d rows [%d,%d): %v", g, h.off, h.off+h.n, err)
						return
					}
				}
				if _, err := snap.ShardKeys("name", 2); err != nil {
					t.Error(err)
					return
				}
				if d := tb.DerivedBytes(); d.Skip == 0 || d.KeyShards == 0 {
					t.Errorf("reader %d: derived bytes %+v miss the skip index or the co-partition", g, d)
					return
				}
			}
		}(g)
	}
	for b := 0; b < batches; b++ {
		mu.Lock()
		for i := 0; i < 256; i++ {
			if err := tb.AppendRow(int64(i), fmt.Sprintf("n%d", (b*256+i)%97), int64(b)); err != nil {
				mu.Unlock()
				t.Fatal(err)
			}
		}
		tb.RefreshSkipIndex()
		mu.Unlock()
	}
	close(done)
	wg.Wait()
	for c := 1; c <= 2; c++ {
		if m := tb.keyFPs[c].Load(); m == nil || len(m.fps) != tb.NumRows() {
			t.Fatalf("col %d: the readers' last look did not bring the memo to %d rows", c, tb.NumRows())
		}
	}
}

// TestKeyIDsCollisions builds key ids from forced fingerprints — all
// equal, pairwise equal, equal in the high half the index is placed by,
// honest — over the cells where building ids is likeliest to slip, and
// requires ids equal exactly where the cells are: a fingerprint only
// preselects, the cells decide.
func TestKeyIDsCollisions(t *testing.T) {
	tb := MustNew(Schema{{Name: "s", Type: String}, {Name: "i", Type: Int64}})
	strs := []string{"", "a", "a\x00", "\x00", "a\x00b", "ab", "b", "user0042", "user00420"}
	ints := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, -10, 10, 9, -9}
	for rep := 0; rep < 7; rep++ {
		for i := range strs {
			j := (i*5 + rep) % len(strs)
			if err := tb.AppendRow(strs[j], ints[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	forced := map[string]func(c, r int) uint64{
		"all-equal": func(int, int) uint64 { return 7 },
		"pairwise":  func(c, r int) uint64 { return hashutil.Mix64(uint64(keyIndex(tb, c, r) / 2)) },
		"high-half": func(c, r int) uint64 { return uint64(keyIndex(tb, c, r)) },
		"honest":    func(c, r int) uint64 { return refFingerprint(tb, c, r, 3) },
	}
	for name, fp := range forced {
		for c := 0; c < tb.NumCols(); c++ {
			fps := make([]uint64, tb.NumRows())
			for r := range fps {
				fps[r] = fp(c, r)
			}
			k := tb.BuildKeyIDs(c, fps, new(KeyIDScratch))
			if err := keyIDsError(tb, c, k); err != nil {
				t.Fatalf("%s col %d: %v", name, c, err)
			}
			if k.Len() != len(strs) {
				t.Fatalf("%s col %d: %d ids for %d keys", name, c, k.Len(), len(strs))
			}
		}
	}
}

// keyIndex is the position of row r's cell of column c among the first
// distinct cells of tb — a stand-in key number to force fingerprints from.
func keyIndex(tb *Table, c, r int) int {
	col := tb.colPrefix(c, tb.NumRows())
	for i := 0; ; i++ {
		if col.same(i, r) {
			return i
		}
	}
}

// TestCompareRendered pins compareRendered to the byte-wise order of the
// rendered integers.
func TestCompareRendered(t *testing.T) {
	vals := []int64{0, 1, -1, 9, 10, -9, -10, 99, 100, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 123456789, -123456789}
	for _, a := range vals {
		for _, b := range vals {
			sa, sb := strconv.FormatInt(a, 10), strconv.FormatInt(b, 10)
			want := 0
			if sa < sb {
				want = -1
			} else if sa > sb {
				want = 1
			}
			if got := compareRendered(a, b); got != want {
				t.Fatalf("compareRendered(%d, %d) = %d, rendered order says %d", a, b, got, want)
			}
		}
	}
}

// TestKeyIDsDistinct: a dictionary reports its rows distinct exactly when
// every row it covers started a key — over root rows [0, end of the
// handle) for a memo's handle, over its own rows for a scratch build — so
// a handle whose rows repeat a key is never called distinct, even when it
// has as many rows as its dictionary has ids.
func TestKeyIDsDistinct(t *testing.T) {
	const seed = 5
	tb := MustNew(Schema{{Name: "s", Type: String}, {Name: "i", Type: Int64}})
	// Rows 0–99 unique in both columns; rows 100–101 repeat row 99's
	// string and row 98's integer.
	for r := 0; r < 100; r++ {
		if err := tb.AppendRow(fmt.Sprintf("k%03d", r), int64(r)); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []int{99, 98} {
		if err := tb.AppendRow(fmt.Sprintf("k%03d", r), int64(r)); err != nil {
			t.Fatal(err)
		}
	}
	handle := func(lo, hi int) *Table {
		v, err := tb.View(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cases := []struct {
		name string
		t    *Table
		want bool
	}{
		{"unique prefix", handle(0, 100), true},
		{"unique view past row 0", handle(40, 100), true},
		{"empty view", handle(50, 50), true},
		{"repeats", handle(0, 102), false},
		// 2 rows, 1 key of its own rows, yet root rows [0, 101) hold 100
		// keys: the memo's dictionary covers more than the view.
		{"repeating view", handle(99, 101), false},
	}
	for _, c := range cases {
		for col := 0; col < 2; col++ {
			fps := make([]uint64, c.t.NumRows())
			c.t.HashKeys(col, seed, fps)
			scratch := c.t.BuildKeyIDs(col, fps, new(KeyIDScratch))
			if got := scratch.Distinct(); got != c.want {
				t.Errorf("%s col %d: scratch build Distinct %v, want %v", c.name, col, got, c.want)
			}
			k, _, ok := c.t.KeyIDs(col, seed)
			if !ok {
				t.Fatalf("%s col %d: the dictionary turned the handle away", c.name, col)
			}
			if got := k.Distinct(); got != c.want {
				t.Errorf("%s col %d: memo Distinct %v, want %v", c.name, col, got, c.want)
			}
		}
	}
}
