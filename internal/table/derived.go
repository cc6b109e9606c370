package table

// DerivedBytes is what a root table's derived structures hold, in bytes
// of their arrays, by structure. Every one of them is rebuildable from
// the columns, so this is memory the table could give back at the price
// of time alone.
type DerivedBytes struct {
	Skip            int // zone maps and Bloom bits of the skip index's blocks
	KeyFingerprints int // fingerprint columns, growing room included
	KeyIDs          int // dictionaries: ids, first rows, tags, index slots, ranks
	KeyMaps         int // the key maps the dictionaries keep to a JOIN partner's
	KeyShards       int // the memoised co-partition's row lists and their key columns
}

// Total sums the parts.
func (d DerivedBytes) Total() int {
	return d.Skip + d.KeyFingerprints + d.KeyIDs + d.KeyMaps + d.KeyShards
}

// DerivedBytes accounts the derived structures of t's root as published.
// It reads only the atomic slots and what they hold, which nothing
// rewrites, so it is safe beside appends and queries; it walks the skip
// index's blocks and nothing else row-sized.
func (t *Table) DerivedBytes() DerivedBytes {
	root := t.root()
	var d DerivedBytes
	if ix := root.skip.Load(); ix != nil {
		for _, m := range ix.blocks {
			d.Skip += 8 * (cap(m.mins) + cap(m.maxs))
			for _, b := range m.blooms {
				d.Skip += b.SizeBits() / 8
			}
		}
	}
	for c := range root.keyFPs {
		if m := root.keyFPs[c].Load(); m != nil {
			d.KeyFingerprints += 8 * cap(m.fps)
		}
		if k := root.keyDicts[c].Load(); k != nil {
			// The index belongs to the extender; its size follows from the
			// keys this version holds.
			d.KeyIDs += 4*(cap(k.ids)+cap(k.first)+cap(k.tags)) + 8*dictIndexSlots(len(k.first))
			if r := k.lin.ranks.Load(); r != nil {
				d.KeyIDs += 4 * cap(r.order)
			}
			if x := k.lin.xmap.Load(); x != nil {
				d.KeyMaps += 4 * cap(x.toLeft)
			}
		}
	}
	if m := root.keyShards.Load(); m != nil {
		for _, rows := range m.shards {
			d.KeyShards += 4 * cap(rows)
		}
		if c := m.keys.Load(); c != nil {
			for s := range c.fps {
				d.KeyShards += 8*cap(c.fps[s]) + 4*cap(c.ids[s])
			}
		}
	}
	return d
}
