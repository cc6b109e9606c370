package table

// The key dictionary: for one key column, which rows hold equal cells and
// how the cells order. Both depend on the stored column alone — like its
// fingerprints (keyfp.go), not on any query — so a root keeps one per
// column beside its fingerprint column, under the same rules: built by the
// first handle that asks, extended contiguously over appended rows, one
// slot per column and one seed per slot, dropped by a reorder.
//
// What it holds, over root rows [0, rows):
//
//   - ids[r]: row r's key id. Equal ids ⇔ equal cells, for both column
//     types, so a reader groups, counts and matches rows by a 32-bit
//     integer instead of by the key's bytes.
//   - first[id]: the row that first carried id, and tags[id], the high
//     half of its key's fingerprint: where the index placed it, and what
//     another dictionary's index is probed with (the key map, keymap.go).
//   - the fingerprint → id index a build probes: each new row's
//     fingerprint finds the ids whose keys might be its own, and one cell
//     comparison, against the id's first row, decides. That comparison is
//     paid once per row per table, not once per row per query. Only the
//     extender touches the index, under the root's lock.
//   - ranks, computed when a reader first asks: the ids in the canonical
//     order of the keys (byte-wise by rendered cell — the order
//     Result.Sort gives a one-column result). A reader walks its keys in
//     that order instead of sorting key strings.
//
// Who does not read it. A handle whose rows start past the dictionary's
// end, or that was made before the root's latest reorder, is turned away
// and builds a dictionary of its own rows alone into scratch (BuildKeyIDs)
// — the same build over the same kind of storage, so there is one code
// path; such ids are comparable only among themselves. The engine builds
// so too for a handle that is small beside the dictionary and reaches past
// it (a subscription's delta): its keys compare among its own rows, in
// cache, instead of with older rows of theirs, out of it.
//
// Bounds. ids is 4 bytes per row (plus an eighth of growing room while
// the table is appended to); first, tags, the index and the ranks
// together are at most 48 bytes per distinct key, half a kilobyte of
// minimum index aside. So a column's dictionary holds at most 4.5 bytes
// per row plus 48 per key, and goes with the table. The key map a JOIN
// keeps on the left column's dictionary (keymap.go) adds 4 bytes per
// right key, an eighth of growing room included while either side grows.

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"cheetah/internal/radix"
)

// keyDict is one published version of a column's dictionary over root
// rows [0, len(ids)). Immutable once published; a longer version shares
// ids and first when the rows fit their capacity, writing only past every
// published length.
type keyDict struct {
	epoch, seed uint64
	lin         *dictLineage
	ids         []uint32
	first       []uint32 // increasing: ids are given in row order
	tags        []uint32
}

// dictLineage is what every version of one build shares: the identity
// that makes ids read from two versions comparable, the index only the
// extender touches, the latest ranks anyone asked for, and the key map
// to the latest right partner of a JOIN (keymap.go).
type dictLineage struct {
	index dictIndex
	// guard is the lock the extender holds over index: the root's, or nil
	// for a scratch build, which only its builder reads. seq names a
	// root's lineage to the key maps that point at it without pinning it.
	guard *sync.Mutex
	seq   uint64
	mu    sync.Mutex // serialises rankers and key-map extenders
	ranks atomic.Pointer[keyRanks]
	xmap  atomic.Pointer[keyMap]
}

// lineages numbers the roots' dictionary lineages.
var lineages atomic.Uint64

// valid returns d if a handle at epoch, reading under seed, may use it.
func (d *keyDict) valid(epoch, seed uint64) *keyDict {
	if d == nil || d.epoch != epoch || d.seed != seed {
		return nil
	}
	return d
}

// rows is how many root rows d covers.
func (d *keyDict) rows() int {
	if d == nil {
		return 0
	}
	return len(d.ids)
}

// view returns t's rows' ids, t covering root rows [lo, hi).
func (d *keyDict) view(t *Table, c, lo, hi int) KeyIDs {
	first := d.first
	if hi < len(d.ids) {
		// Another handle took d further: t sees the ids born below hi.
		first = first[:sort.Search(len(first), func(i int) bool { return int(first[i]) >= hi })]
	}
	return KeyIDs{IDs: d.ids[lo:hi:hi], lin: d.lin, first: first, tags: d.tags[:len(first)], col: t.colPrefix(c, hi)}
}

// dictSlot is one slot of a dictIndex: the high half of a key's
// fingerprint, which also places it, and the key's id + 1 (0: empty).
type dictSlot struct{ tag, ent uint32 }

// dictIndex finds the id of a key from its fingerprint: open addressing
// with linear probing, at most 3/4 full. A fingerprint only preselects;
// the cells decide.
type dictIndex struct{ slots []dictSlot }

const dictIndexMinSlots = 64

// dictIndexSlots is how many slots an index of keys keys has: the least
// power of two from dictIndexMinSlots that keeps it at most 3/4 full.
func dictIndexSlots(keys int) int {
	n := dictIndexMinSlots
	for 3*n < 4*keys {
		n *= 2
	}
	return n
}

// same reports whether rows a and b of c hold equal cells.
func (c *column) same(a, b int) bool {
	if c.typ == String {
		return c.strs[a] == c.strs[b]
	}
	return c.ints[a] == c.ints[b]
}

// add gives rows [from, from+len(fps)) of col — fps[i] is row from+i's key
// fingerprint — their ids, appended to ids, and appends to first and tags
// the row and the tag of every id it creates. Equal cells have equal
// fingerprints, so a row whose key is already known meets that key's slot
// on its probe run and is confirmed by one cell comparison; two keys that
// merely share a fingerprint stay two ids.
func (x *dictIndex) add(col *column, fps []uint64, from int, ids, first, tags []uint32) ([]uint32, []uint32, []uint32) {
	if x.slots == nil {
		x.slots = make([]dictSlot, dictIndexMinSlots)
	}
	mask := uint32(len(x.slots) - 1)
	for i, fp := range fps {
		r := from + i
		tag := uint32(fp >> 32)
		for h := tag & mask; ; h = (h + 1) & mask {
			s := &x.slots[h]
			if s.ent == 0 {
				id := uint32(len(first))
				ids, first, tags = append(ids, id), append(first, uint32(r)), append(tags, tag)
				*s = dictSlot{tag: tag, ent: id + 1}
				if 4*len(first) > 3*len(x.slots) {
					x.grow()
					mask = uint32(len(x.slots) - 1)
				}
				break
			}
			if s.tag == tag && col.same(int(first[s.ent-1]), r) {
				ids = append(ids, s.ent-1)
				break
			}
		}
	}
	return ids, first, tags
}

// grow doubles the slot array; ids are distinct, so re-placing them needs
// no comparison.
func (x *dictIndex) grow() {
	old := x.slots
	x.slots = make([]dictSlot, 2*len(old))
	mask := uint32(len(x.slots) - 1)
	for _, s := range old {
		if s.ent == 0 {
			continue
		}
		h := s.tag & mask
		for x.slots[h].ent != 0 {
			h = (h + 1) & mask
		}
		x.slots[h] = s
	}
}

// keyRanks orders ids canonically: order lists them byte-wise by rendered
// cell.
type keyRanks struct {
	order []uint32
}

// ranks returns ranks covering at least k's ids — the lineage's latest,
// or new ones extending them.
func (k KeyIDs) ranks() *keyRanks {
	lin, n := k.lin, len(k.first)
	if r := lin.ranks.Load(); r != nil && len(r.order) >= n {
		return r
	}
	lin.mu.Lock()
	defer lin.mu.Unlock()
	old := lin.ranks.Load()
	if old != nil && len(old.order) >= n {
		return old
	}
	r := k.rankFrom(old)
	lin.ranks.Store(r)
	return r
}

// rankFrom ranks k's ids, extending old — the ranks of a prefix of them —
// rather than starting over: the ids old lacks are radix-sorted among
// themselves by their rendered cells, and each is placed into old's order
// by binary search, so an append that brought a handful of new keys costs
// a handful of comparisons per key and one linear pass.
func (k KeyIDs) rankFrom(old *keyRanks) *keyRanks {
	var prev []uint32
	if old != nil {
		prev = old.order
	}
	n := len(k.first)
	keys, fresh := make([]string, n-len(prev)), make([]int32, n-len(prev))
	var digits []byte
	var ends []int
	for i := range fresh {
		fresh[i] = int32(len(prev) + i)
		r := k.first[fresh[i]]
		if k.col.typ == String {
			keys[i] = k.col.strs[r]
		} else {
			digits = strconv.AppendInt(digits, k.col.ints[r], 10)
			ends = append(ends, len(digits))
		}
	}
	if k.col.typ == Int64 {
		// One string holds every rendering; the keys are slices of it.
		all, lo := string(digits), 0
		for i, end := range ends {
			keys[i], lo = all[lo:end], end
		}
	}
	new(radix.Sorter).Sort(keys, fresh)
	order := make([]uint32, 0, n)
	for _, id := range fresh {
		at := sort.Search(len(prev), func(i int) bool { return k.compare(prev[i], uint32(id)) > 0 })
		order = append(append(order, prev[:at]...), uint32(id))
		prev = prev[at:]
	}
	order = append(order, prev...)
	return &keyRanks{order: order}
}

// compare orders ids a and b by their keys' rendered cells.
func (k KeyIDs) compare(a, b uint32) int {
	ra, rb := k.first[a], k.first[b]
	if k.col.typ == String {
		return strings.Compare(k.col.strs[ra], k.col.strs[rb])
	}
	return compareRendered(k.col.ints[ra], k.col.ints[rb])
}

// compareRendered orders two integers as their decimal renderings order
// byte-wise ("-1" < "-10" < "-2" < "0" < "10" < "9"): the order of an
// integer key column in a result.
func compareRendered(a, b int64) int {
	var ba, bb [20]byte
	return bytes.Compare(strconv.AppendInt(ba[:0], a, 10), strconv.AppendInt(bb[:0], b, 10))
}

// KeyIDs is a handle's rows' key ids, read off a key dictionary: IDs[r] is
// the id of row r's cell, and two rows hold equal cells exactly when their
// ids are equal — rows of two handles too, when their ids come from one
// dictionary: the memo of one root column, at one reorder epoch, under
// one seed. The zero KeyIDs holds none.
type KeyIDs struct {
	IDs []uint32 // shared with every other reader: read, never write
	lin *dictLineage
	// first[id] and tags[id] for the ids below Len, and col, the handle's
	// key column over the rows they were born in: what ranking and the key
	// map read. They are the handle's to hold, not the dictionary's, so a
	// published dictionary pins no column storage an append has since
	// moved.
	first, tags []uint32
	col         column
}

// Len is the number of keys of the dictionary born in the rows up to the
// end of k's: every id in IDs is below it.
func (k KeyIDs) Len() int { return len(k.first) }

// Distinct reports whether every row the dictionary covers — root rows
// [0, end of k's rows), or a scratch build's own — started a key of its
// own: a column of unique keys, like a dimension table's key. Then k's
// rows carry distinct ids too. first lists the covered rows that started
// a key, increasing from the first covered row, so they are all of them
// exactly when there are as many as covered rows.
func (k KeyIDs) Distinct() bool {
	n := len(k.first)
	return n == 0 || n == k.col.len()-int(k.first[0])
}

// Order returns ids in the canonical order of their keys — byte-wise by
// rendered cell — covering at least the ids below Len (ids past it, which
// another reader's rows brought, may be listed too). It ranks, once per
// dictionary, what no reader ranked yet. The slice is shared: read, never
// write.
func (k KeyIDs) Order() []uint32 { return k.ranks().order }

// Cell renders the key cell of id, an id below Len, from the row that
// first carried it: what every row carrying id holds.
func (k KeyIDs) Cell(id uint32) string {
	r := k.first[id]
	if k.col.typ == String {
		return k.col.strs[r]
	}
	return strconv.FormatInt(k.col.ints[r], 10)
}

// len is the number of rows c holds.
func (c *column) len() int {
	if c.typ == String {
		return len(c.strs)
	}
	return len(c.ints)
}

// colPrefix returns column c over root rows [0, hi), its header clamped.
func (t *Table) colPrefix(c, hi int) column {
	col := column{typ: t.cols[c].typ}
	if col.typ == String {
		col.strs = t.cols[c].strs[:hi:hi]
	} else {
		col.ints = t.cols[c].ints[:hi:hi]
	}
	return col
}

// KeyIDs returns the key ids of column c's rows of t from the root's
// dictionary under seed, after extending it over whichever of t's rows it
// did not reach yet; built is how many those were (0 on a plain hit). ok
// is false, and nothing was read or built, when t cannot use the
// dictionary: its rows start past the dictionary's end, or the root was
// reordered after t was made.
//
// Safe for concurrent use by handles that are themselves safe to read — in
// particular by snapshots while the root is being appended to.
func (t *Table) KeyIDs(c int, seed uint64) (k KeyIDs, built int, ok bool) {
	root := t.root()
	if !t.sameOrder(root) {
		return KeyIDs{}, 0, false
	}
	lo, hi := t.off, t.off+t.n
	slot := &root.keyDicts[c]
	// Hits and refusals take no lock, as for the fingerprint column.
	d := slot.Load().valid(t.epoch, seed)
	if d != nil && hi <= d.rows() {
		return d.view(t, c, lo, hi), 0, true
	}
	if lo > d.rows() {
		return KeyIDs{}, 0, false
	}
	root.fpMu.Lock()
	defer root.fpMu.Unlock()
	d = slot.Load().valid(t.epoch, seed)
	if d != nil && hi <= d.rows() {
		return d.view(t, c, lo, hi), 0, true
	}
	if lo > d.rows() {
		return KeyIDs{}, 0, false
	}
	from := d.rows()
	nd := &keyDict{epoch: t.epoch, seed: seed}
	if d != nil {
		nd.lin, nd.ids, nd.first, nd.tags = d.lin, d.ids, d.first, d.tags
	} else {
		nd.lin = &dictLineage{guard: &root.fpMu, seq: lineages.Add(1)}
	}
	if cap(nd.ids) < hi {
		// Sized exactly on a first build; room to grow once it has to move.
		room := hi
		if from > 0 {
			room += hi / 8
		}
		ids := make([]uint32, from, room)
		copy(ids, nd.ids)
		nd.ids = ids
	}
	// The pass that asks has read the fingerprint column already; a
	// column another seed has replaced since is hashed here for the new
	// rows alone.
	fps := root.keyFPs[c].Load().prefix(t.epoch, seed)
	if len(fps) >= hi {
		fps = fps[from:hi]
	} else {
		fps = make([]uint64, hi-from)
		hashKeys(fps, t.cols[c], from, hi, seed)
	}
	col := t.colPrefix(c, hi)
	nd.ids, nd.first, nd.tags = nd.lin.index.add(&col, fps, from, nd.ids[:from], nd.first, nd.tags)
	slot.Store(nd)
	return nd.view(t, c, lo, hi), hi - from, true
}

// KeyMemoStats is how many root rows the memos of one key column cover,
// as published: the fingerprint column (Hashed) and the dictionary (IDs).
type KeyMemoStats struct{ Hashed, IDs int }

// KeyMemoStats returns what the memos of column c under seed that t may
// read cover — zeros where there are none — building and extending
// nothing: what a reader weighs before it asks.
func (t *Table) KeyMemoStats(c int, seed uint64) KeyMemoStats {
	root := t.root()
	if !t.sameOrder(root) {
		return KeyMemoStats{}
	}
	return KeyMemoStats{
		Hashed: len(root.keyFPs[c].Load().prefix(t.epoch, seed)),
		IDs:    root.keyDicts[c].Load().valid(t.epoch, seed).rows(),
	}
}

// KeyIDScratch is the storage of a dictionary of one handle's rows
// (BuildKeyIDs), reused from one build to the next.
type KeyIDScratch struct {
	ids, first, tags []uint32
	slots            []dictSlot
}

// Cap returns the largest capacity s holds, in elements.
func (s *KeyIDScratch) Cap() int { return max(cap(s.ids), cap(s.first), cap(s.tags), cap(s.slots)) }

// BuildKeyIDs builds a dictionary of t's own rows of column c into s and
// returns their ids — what a handle KeyIDs turns away reads instead.
// fps are the key fingerprints of t's rows under one seed. The ids are
// comparable only among themselves, and valid until s is built into again.
func (t *Table) BuildKeyIDs(c int, fps []uint64, s *KeyIDScratch) KeyIDs {
	if len(fps) != t.n {
		panic(fmt.Sprintf("table: BuildKeyIDs from %d fingerprints, table has %d rows", len(fps), t.n))
	}
	// At most 3/4 full whatever the keys, so the index never grows.
	n := dictIndexSlots(t.n)
	if cap(s.slots) < n {
		s.slots = make([]dictSlot, n)
	} else {
		s.slots = s.slots[:n]
		clear(s.slots)
	}
	if cap(s.ids) < t.n {
		s.ids = make([]uint32, 0, t.n)
	}
	k := KeyIDs{lin: &dictLineage{index: dictIndex{slots: s.slots}}, col: t.colPrefix(c, t.off+t.n)}
	s.ids, s.first, s.tags = k.lin.index.add(&k.col, fps, t.off, s.ids[:0], s.first[:0], s.tags[:0])
	k.IDs, k.first, k.tags = s.ids, s.first, s.tags
	return k
}
