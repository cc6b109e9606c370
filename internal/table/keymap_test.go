package table

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cheetah/internal/hashutil"
)

// mapSchedule runs a schedule of table operations over two roots, a JOIN's
// left and right, and the handles derived from them, and after every step
// maps the key ids of every live right handle to those of every live left
// handle — the property test, the hand cases and the fuzz target are all
// this interpreter. A step may draw its right handles from the left
// root's instead, so the schedules join a table with itself (one
// lineage), two columns of one table and a table with its own views and
// snapshots too. Right handles are mapped newest first, so an older one
// meets a map a newer one has moved past (the map then serves it from
// scratch).
//
// What must hold at every step, for every pair of handles:
//
//   - the map, read through Left for every right id below the right
//     handle's Len, equals a fresh build into scratch and a brute-force
//     map by rendered cell over the left ids below the left handle's Len:
//     so no right key maps to a left id the handle does not cover;
//   - a plain hit probed nothing and was not cold;
//   - a map served earlier still reads as it did (an extension never
//     rewrites an entry a reader holds);
//   - a published map holds at most 4.5 bytes per right key it covers.
type mapSchedule struct {
	t           testing.TB
	left, right *Table
	lefts       []*Table
	rights      []*Table
	donor       *Table
	served      []servedMap
}

// servedMap is a map handed out earlier and what it read then.
type servedMap struct {
	m    KeyMap
	want []int64 // per right id: the left id, or -1
}

func newMapSchedule(t testing.TB, lrows, rrows int) *mapSchedule {
	s := &mapSchedule{t: t, left: testTable(t, lrows), right: testTable(t, rrows), donor: testTable(t, 64)}
	s.lefts, s.rights = []*Table{s.left}, []*Table{s.right}
	return s
}

// step applies one operation: op selects it and which root it acts on, a
// and b parameterise it.
func (s *mapSchedule) step(op, a, b byte) {
	t := s.t
	root, handles := s.left, &s.lefts
	if op&0x10 != 0 {
		root, handles = s.right, &s.rights
	}
	h := (*handles)[pick(a, len(*handles))]
	var made *Table
	var err error
	switch op % 8 {
	case 0:
		err = root.AppendRow(int64(a%13), fmt.Sprintf("n%d", b%11), int64(b%9))
	case 1:
		rows := make([]int, 1+pick(b, 40))
		for i := range rows {
			rows[i] = (int(a) + i) % s.donor.NumRows()
		}
		err = root.AppendRowsFrom(s.donor, rows)
	case 2:
		lo := pick(b, h.NumRows()+1)
		made, err = h.View(lo, lo+pick(a^b, h.NumRows()-lo+1))
	case 3, 4:
		made, err = h.SnapshotPrefix(pick(b, h.NumRows()+1))
	case 5:
		err = root.Shuffle(uint64(a)<<8 | uint64(b))
	case 6:
		err = root.SortByInt64("score")
	case 7:
		// A read alone: check runs below.
	}
	if err != nil {
		t.Fatal(err)
	}
	if made != nil {
		*handles = append(*handles, made)
		if extra := len(*handles) - 5; extra > 0 {
			// The root stays; the oldest derived handles go.
			*handles = append((*handles)[:1], (*handles)[1+extra:]...)
		}
	}
	// Columns 0 and 2 are both Int64: a pair of them is a JOIN of two
	// columns of one table when the right handle is the left's.
	lc := pick(a+b, 3)
	rc := lc
	if lc != 1 && op&0x20 != 0 {
		rc = 2 - lc
	}
	rights := s.rights
	if op&0x80 != 0 {
		rights = s.lefts
	}
	s.check(lc, rc, fpSeeds[pick(op>>6, len(fpSeeds))], rights)
}

// ids returns h's key ids of column c under seed: the dictionary's, or
// its own rows' built into scratch when the dictionary turns h away.
func ids(h *Table, c int, seed uint64) KeyIDs {
	if k, _, ok := h.KeyIDs(c, seed); ok {
		return k
	}
	fps := make([]uint64, h.NumRows())
	h.HashKeys(c, seed, fps)
	return h.BuildKeyIDs(c, fps, new(KeyIDScratch))
}

// check maps the ids of column rc of every handle of rights to those of
// column lc of every live left handle under seed.
func (s *mapSchedule) check(lc, rc int, seed uint64, rights []*Table) {
	t := s.t
	for i, lh := range s.lefts {
		lk := ids(lh, lc, seed)
		for j := len(rights) - 1; j >= 0; j-- {
			rh := rights[j]
			rk := ids(rh, rc, seed)
			label := fmt.Sprintf("left %d [%d,%d) col %d, right %d [%d,%d) col %d, seed %#x",
				i, lh.off, lh.off+lh.n, lc, j, rh.off, rh.off+rh.n, rc, seed)
			m, probed, cold := lk.Map(rk, new(KeyMapScratch))
			if probed == 0 && cold && lk.Len() > 0 && rk.Len() > 0 {
				t.Fatalf("%s: a cold map probed nothing", label)
			}
			fresh, _, _ := lk.mapInto(rk, new(KeyMapScratch))
			want := bruteMap(lk, rk)
			if err := mapError(m, want); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := mapError(fresh, want); err != nil {
				t.Fatalf("%s: a fresh build: %v", label, err)
			}
			// Two dictionaries' handles publish the map, unless it reaches
			// past one handle's keys while lagging the other's.
			x := lk.lin.xmap.Load()
			serves := x.serves(rk.lin.seq, lk.Len(), rk.Len())
			if lk.lin.guard != nil && rk.lin.guard != nil && !serves &&
				(x == nil || x.right != rk.lin.seq || (x.left <= lk.Len() && len(x.toLeft) <= rk.Len())) {
				t.Fatalf("%s: the map was not published", label)
			}
			again, probed, cold := lk.Map(rk, new(KeyMapScratch))
			if serves && (probed != 0 || cold) {
				t.Fatalf("%s: the published map serves, yet a second call probed %d (cold %v)", label, probed, cold)
			}
			if err := mapError(again, want); err != nil {
				t.Fatalf("%s: a second call: %v", label, err)
			}
			s.served = append(s.served, servedMap{m, want})
		}
	}
	for _, sv := range s.served {
		if err := mapError(sv.m, sv.want); err != nil {
			t.Fatalf("a map served earlier changed under its reader: %v", err)
		}
	}
	if len(s.served) > 64 {
		s.served = s.served[len(s.served)-64:]
	}
	for _, root := range []*Table{s.left, s.right} {
		for c := range root.keyDicts {
			d := root.keyDicts[c].Load()
			if d == nil {
				continue
			}
			if x := d.lin.xmap.Load(); x != nil && cap(x.toLeft) > len(x.toLeft)+len(x.toLeft)/8 {
				t.Fatalf("col %d: a key map of %d right keys holds %d", c, len(x.toLeft), cap(x.toLeft))
			}
		}
	}
}

// bruteMap maps r's ids to l's by rendered cell, over the ids below each
// handle's Len: -1 where l holds no such key.
func bruteMap(l, r KeyIDs) []int64 {
	byCell := map[string]int64{}
	for id := 0; id < l.Len(); id++ {
		byCell[l.Cell(uint32(id))] = int64(id)
	}
	want := make([]int64, r.Len())
	for id := range want {
		lid, ok := byCell[r.Cell(uint32(id))]
		if !ok {
			lid = -1
		}
		want[id] = lid
	}
	return want
}

// mapError compares m, read for every right id, with want (-1: no match).
func mapError(m KeyMap, want []int64) error {
	for rid, w := range want {
		got := int64(-1)
		if lid, ok := m.Left(uint32(rid)); ok {
			got = int64(lid)
		}
		if got != w {
			return fmt.Errorf("right id %d: left id %d, want %d (-1: no match)", rid, got, w)
		}
	}
	return nil
}

// run interprets data three bytes at a time.
func (s *mapSchedule) run(data []byte) {
	for ; len(data) >= 3; data = data[3:] {
		s.step(data[0], data[1], data[2])
	}
}

// mapHandCases are schedules written to walk the map's edges; they are the
// fuzz target's corpus too. Opcodes: 0 AppendRow, 1 AppendRowsFrom, 2
// View, 3 and 4 SnapshotPrefix, 5 Shuffle, 6 SortByInt64, 7 read; +0x10
// acts on the right root, +0x20 pairs the two Int64 columns, +0x40 selects
// the second seed, +0x80 draws the right handles from the left root's.
// The key column is (a+b) mod 3: 1 is the String one, whose keys n0…n6
// an AppendRow of b mod 11 ≥ 7 extends.
var mapHandCases = map[string][]byte{
	"build-then-hit":          {7, 0, 1, 7, 0, 1},
	"append-left-new-keys":    {7, 0, 1, 0, 2, 8, 7, 0, 1, 0, 5, 5, 0, 0, 10, 7, 0, 1},
	"append-right-new-keys":   {7, 0, 1, 0x10, 2, 8, 7, 0, 1, 0x10, 0, 10, 7, 0, 1},
	"append-both":             {7, 0, 1, 0, 2, 8, 0x10, 0, 10, 7, 0, 1, 0x10, 2, 8, 0, 0, 10, 7, 0, 1},
	"snapshot-lags":           {0x14, 0, 199, 0x10, 2, 8, 0, 0, 10, 7, 0, 1},
	"reorder-left":            {7, 0, 1, 5, 3, 4, 7, 0, 1, 0, 2, 8},
	"reorder-right":           {7, 0, 1, 0x15, 3, 4, 7, 0, 1, 0x16, 0, 1, 0x10, 2, 8},
	"view-past-memo":          {7, 0, 1, 0x10, 0, 8, 0x12, 5, 200, 7, 0, 1},
	"int-columns-of-one":      {0xa7, 0, 0, 0xa7, 0, 3, 0xa0, 0, 3, 0xa7, 0, 3},
	"seed-change":             {7, 0, 1, 0x47, 0, 1, 7, 0, 1, 0, 2, 8},
	"self-join-after-appends": {0x87, 0, 1, 0x84, 0, 255, 0x80, 2, 8, 0x87, 0, 1},
}

// TestJoinKeyMapSchedules runs the hand cases and then random schedules
// from a seed.
func TestJoinKeyMapSchedules(t *testing.T) {
	for name, data := range mapHandCases {
		t.Run(name, func(t *testing.T) { newMapSchedule(t, 300, 200).run(data) })
	}
	rng := uint64(0x3a9)
	for round := 0; round < 30; round++ {
		data := make([]byte, 3*40)
		for i := range data {
			rng = hashutil.SplitMix64(rng)
			data[i] = byte(rng)
		}
		newMapSchedule(t, int(rng>>8)%400, int(rng>>20)%300).run(data)
	}
}

// FuzzJoinKeyMap is the property test with the schedule decoded from the
// fuzz input.
func FuzzJoinKeyMap(f *testing.F) {
	for _, data := range mapHandCases {
		f.Add(uint16(300), uint16(200), data)
	}
	f.Fuzz(func(t *testing.T, lrows, rrows uint16, data []byte) {
		if len(data) > 3*100 {
			data = data[:3*100]
		}
		newMapSchedule(t, int(lrows%600), int(rrows%600)).run(data)
	})
}

// TestJoinKeyMapConcurrentExtend is the key map's concurrency shape, for
// the race detector: readers map a static right table's keys to
// snapshots of a left table taken under the appender's lock and read
// every entry of what they get, while the appender commits rows whose new
// keys match right keys the map already covers — so an extension that
// rewrote an entry instead of copying it would race with a reader of the
// version before. Every map equals the brute-force one.
func TestJoinKeyMapConcurrentExtend(t *testing.T) {
	const seed = 7
	keyTable := func(keys int) *Table {
		tb := MustNew(Schema{{Name: "k", Type: String}})
		for i := 0; i < keys; i++ {
			if err := tb.AppendRow(fmt.Sprintf("k%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	left, right := keyTable(50), keyTable(400)
	var mu sync.Mutex // the appender's: commits and snapshots
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				l, err := left.SnapshotPrefix(left.NumRows())
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				lk, rk := ids(l, 0, seed), ids(right, 0, seed)
				m, _, _ := lk.Map(rk, new(KeyMapScratch))
				if err := mapError(m, bruteMap(lk, rk)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for from := 50; from < 400; from += 10 {
		mu.Lock()
		for i := from; i < from+10; i++ {
			if err := left.AppendRow(fmt.Sprintf("k%d", i)); err != nil {
				mu.Unlock()
				t.Fatal(err)
			}
		}
		mu.Unlock()
		time.Sleep(200 * time.Microsecond)
	}
	close(done)
	wg.Wait()
}
