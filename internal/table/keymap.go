package table

// The cross-table key map: for a JOIN's two key dictionaries under one
// seed, which left id, if any, carries each right id's key. Like the
// dictionaries themselves it depends on the two stored columns alone, not
// on any query, so the left dictionary keeps it (dictLineage.xmap) and a
// JOIN's master joins its two sides' survivor counts by one array read per
// distinct key instead of matching keys again on every query.
//
// What it holds: toLeft[rid], for a right id rid, is the id + 1 of the
// left key equal to rid's key, or 0 when the left ids it was built over
// hold none — 4 bytes per right key. A reader whose left handle covers
// fewer left ids than the map treats an entry past them as no match
// (KeyMap.Left): the key is not in its rows.
//
// How it is built: each id of one side is looked up, by its key's tag, in
// the other side's dictionary index, and one cell comparison against the
// candidate's first row decides — the dictionary's own rule, so two keys
// that share a fingerprint stay two keys and the map is exact. The side
// with fewer ids is the one looked up. An append that brings new ids on
// either side extends the map by those ids alone.
//
// Who keeps it: the left lineage, in one slot for its latest right
// partner, named by the partner's seq so that the map pins nothing of it.
// A reorder or a seed change of either side makes a new lineage, so the
// map of the old ones is never read again. A handle whose ids come from
// scratch (BuildKeyIDs) — a delta, a small view past the memo — builds
// the same map into KeyMapScratch with the same function. So does a
// reader the published map reaches past on one side while it lags on the
// other: its handles cannot compare the keys the map has and they lack.
// The slot's versions are immutable once published; an extender copies
// the entries a new left key might change, and writes only past every
// published length otherwise.

// keyMap is one published version of a left lineage's map to the right
// lineage numbered right: toLeft covers the right ids below len(toLeft)
// against the left ids below left.
type keyMap struct {
	right  uint64
	left   int
	toLeft []uint32
}

// serves reports whether x covers the first nl ids of its left lineage and
// the first nr of the right lineage numbered right.
func (x *keyMap) serves(right uint64, nl, nr int) bool {
	return x != nil && x.right == right && x.left >= nl && len(x.toLeft) >= nr
}

// KeyMap is a right handle's key ids mapped to a left handle's: what
// KeyIDs.Map returns.
type KeyMap struct {
	toLeft []uint32 // shared with every other reader: read, never write
	left   uint32   // the left handle's Len
}

// Left returns the left handle's id of the key that right id rid — an id
// below the right handle's Len — carries, and false when the left
// handle's rows hold no such key.
func (m KeyMap) Left(rid uint32) (uint32, bool) {
	l := m.toLeft[rid]
	return l - 1, l != 0 && l <= m.left
}

// KeyMapScratch is the storage of a key map built for one query, reused
// from one build to the next.
type KeyMapScratch struct{ toLeft []uint32 }

// Cap returns the capacity s holds, in elements.
func (s *KeyMapScratch) Cap() int { return cap(s.toLeft) }

// Map returns the map from r's ids to l's, both key ids of one column type
// under one seed: the left dictionary's memo after extending it over
// whichever ids of either handle it lacked, or — when either handle's ids
// come from scratch, or the memo cannot serve these two handles — a map
// built into s, valid until s is built into again. probed is how many ids
// this call looked up (0 on a plain hit), and cold is whether it built
// the map from nothing rather than extended it.
//
// Safe for concurrent use by handles that are themselves safe to read.
func (l KeyIDs) Map(r KeyIDs, s *KeyMapScratch) (m KeyMap, probed int, cold bool) {
	if l.col.typ != r.col.typ {
		panic("table: a key map between key columns of two types")
	}
	nl, nr := l.Len(), r.Len()
	lin := l.lin
	if lin.guard == nil || r.lin.guard == nil {
		return l.mapInto(r, s)
	}
	// A hit takes no lock, as for the dictionary.
	if x := lin.xmap.Load(); x.serves(r.lin.seq, nl, nr) {
		return x.view(nl, nr), 0, false
	}
	lin.mu.Lock()
	defer lin.mu.Unlock()
	x := lin.xmap.Load()
	switch {
	case x.serves(r.lin.seq, nl, nr):
		return x.view(nl, nr), 0, false
	case x == nil || x.right != r.lin.seq:
		x = nil
	case x.left > nl || len(x.toLeft) > nr:
		return l.mapInto(r, s)
	}
	nx, probed := x.extend(l, r)
	lin.xmap.Store(nx)
	return nx.view(nl, nr), probed, x == nil
}

// view is x read through handles of nl left and nr right ids.
func (x *keyMap) view(nl, nr int) KeyMap {
	return KeyMap{toLeft: x.toLeft[:nr:nr], left: uint32(nl)}
}

// mapInto builds the map from r's ids to l's into s, as Map returns it.
func (l KeyIDs) mapInto(r KeyIDs, s *KeyMapScratch) (m KeyMap, probed int, cold bool) {
	if cap(s.toLeft) < r.Len() {
		s.toLeft = make([]uint32, r.Len())
	}
	s.toLeft = s.toLeft[:r.Len()]
	clear(s.toLeft)
	probed = link(s.toLeft, l, r, 0, 0)
	return KeyMap{toLeft: s.toLeft, left: uint32(l.Len())}, probed, true
}

// extend returns x — a map of r's lineage's ids below len(x.toLeft) to
// l's below x.left, or nil for none — extended over all of l's and r's
// ids, and how many ids that looked up. x itself is left as it was.
func (x *keyMap) extend(l, r KeyIDs) (*keyMap, int) {
	nl, nr := l.Len(), r.Len()
	var l0 int
	var to []uint32
	if x != nil {
		l0, to = x.left, x.toLeft
	}
	r0 := len(to)
	if cap(to) < nr || (nl > l0 && r0 > 0) {
		// Sized exactly on a first build; room to grow once it has to move.
		// A new left key may be an older right key's match, so the entries
		// readers hold are copied, never rewritten.
		room := nr
		if r0 > 0 {
			room += nr / 8
		}
		to = append(make([]uint32, 0, room), to...)
	}
	to = to[:nr]
	clear(to[r0:])
	probed := link(to, l, r, l0, r0)
	return &keyMap{right: r.lin.seq, left: nl, toLeft: to}, probed
}

// link completes to, the map from r's ids to l's whose entries below r0
// hold their match among l's ids below l0 (the rest zero), over all of
// both handles' ids, and returns how many ids it looked up. Every pair of
// ids not both old meets once, in one of two ways: the new left ids
// against every right id and the new right ids against the old left ones,
// or the new right ids against every left id and the new left ids against
// the old right ones; it takes the one that looks up fewer ids — from
// nothing, the side with fewer keys.
func link(to []uint32, l, r KeyIDs, l0, r0 int) int {
	nl, nr := l.Len(), r.Len()
	byLeft := lookups(l0, nl, nr) + lookups(r0, nr, l0)
	byRight := lookups(r0, nr, nl) + lookups(l0, nl, r0)
	leftFound := func(lid, rid uint32) { to[rid] = lid + 1 }
	rightFound := func(rid, lid uint32) { to[rid] = lid + 1 }
	if byLeft <= byRight {
		match(l, l0, r, nr, leftFound)
		match(r, r0, l, l0, rightFound)
		return byLeft
	}
	match(r, r0, l, nl, rightFound)
	match(l, l0, r, r0, leftFound)
	return byRight
}

// lookups is how many ids match looks up: a's ids from lo to n, when b
// has ids below nb to meet.
func lookups(lo, n, nb int) int {
	if nb == 0 {
		return 0
	}
	return n - lo
}

// match looks each of a's ids from lo to a.Len() up in b's index and calls
// set(id, bid) for each whose key b's id bid, one below nb, carries. A tag
// only preselects; the cells decide.
func match(a KeyIDs, lo int, b KeyIDs, nb int, set func(id, bid uint32)) {
	if lookups(lo, a.Len(), nb) == 0 {
		return
	}
	if g := b.lin.guard; g != nil {
		// The index is the extender's: read it under the extender's lock.
		g.Lock()
		defer g.Unlock()
	}
	slots := b.lin.index.slots
	mask := uint32(len(slots) - 1)
	for id := uint32(lo); int(id) < a.Len(); id++ {
		tag := a.tags[id]
		for h := tag & mask; slots[h].ent != 0; h = (h + 1) & mask {
			if s := slots[h]; s.tag == tag && int(s.ent) <= nb && a.sameKey(id, b, s.ent-1) {
				set(id, s.ent-1)
				break
			}
		}
	}
}

// sameKey reports whether id a of k and id b of o carry equal keys.
func (k KeyIDs) sameKey(a uint32, o KeyIDs, b uint32) bool {
	ra, rb := k.first[a], o.first[b]
	if k.col.typ == String {
		return k.col.strs[ra] == o.col.strs[rb]
	}
	return k.col.ints[ra] == o.col.ints[rb]
}
