package table

// The key-fingerprint column: what a CWorker puts on the wire in place of
// a wide or variable-width key (the paper's §4 fingerprints; Theorem 4's
// 1-δ is stated over them). A fingerprint is a function of the stored cell
// and the session's seed and of nothing in the query, so the table keeps
// the column — one slot per column, beside the skip index and the JOIN
// co-partition — and every pass over it, whatever the kind, predicate,
// threshold or join partner, reads instead of hashing.
//
// Who builds. Nobody up front: the first handle that asks for a column
// whose rows start at or before the memo's end hashes what is missing and
// publishes the longer column. Committed rows are never rewritten, so a
// published prefix is immutable; an append only leaves the memo short, and
// the next reader that extends it — a one-shot query's snapshot — hashes
// just the new rows, once, for everyone. (The engine does not ask on
// behalf of a handle that is small beside the memo and reaches past it, a
// subscription's 256-row delta view: it hashes the delta into scratch
// instead of growing the memo by it; KeyMemoStats is what it weighs.)
//
// Who does not. A handle whose rows start past the memo's end (shard 1 of
// a cold table, a delta view over a column nobody has read in full) gets
// no column and hashes its own rows into its own scratch (HashKeys):
// filling the gap would make a 256-row pass pay for every row before it.
// So does a handle made before the root's latest reorder, whose rows are
// no longer the root's.
//
// Bounds. One slot per column and one seed per slot — another seed
// replaces the column, as another k replaces the co-partition — so the
// memo holds at most 8 bytes per row per column (plus an eighth of growing
// room while the table is being appended to) and goes with the table.

import (
	"fmt"

	"cheetah/internal/hashutil"
)

// keyFPs is one column's memoised fingerprints: fps[r] is root row r's,
// for every row the memo has reached. Immutable once published; a longer
// column shares the array when the rows fit its capacity, writing only
// past every published length.
type keyFPs struct {
	epoch uint64 // the root's reorder epoch the rows were hashed at
	seed  uint64
	fps   []uint64
}

// prefix returns the fingerprints a handle at epoch, hashing under seed,
// may rely on: m's, or none when m is missing or was hashed at another
// epoch or under another seed.
func (m *keyFPs) prefix(epoch, seed uint64) []uint64 {
	if m == nil || m.epoch != epoch || m.seed != seed {
		return nil
	}
	return m.fps
}

// hashKeys writes the key fingerprints of col's rows [lo, hi) to
// dst[:hi-lo]. It is the definition of a single-column key fingerprint —
// the engine's scalar reference (fingerprintRow) computes the same value
// per cell and a test pins the two together.
func hashKeys(dst []uint64, col *column, lo, hi int, seed uint64) {
	h0 := seed ^ 0xfeedface
	switch col.typ {
	case Int64:
		for i, v := range col.ints[lo:hi] {
			dst[i] = hashutil.Mix64(h0 ^ hashutil.HashUint64(uint64(v), seed))
		}
	case String:
		for i, s := range col.strs[lo:hi] {
			dst[i] = hashutil.Mix64(h0 ^ hashutil.HashString64(s, seed))
		}
	}
}

// HashKeys writes the key fingerprint of every row of column c under seed
// to dst, which must hold NumRows values. It touches no memo: it is what
// a handle KeyFingerprints turns away hashes its rows with.
func (t *Table) HashKeys(c int, seed uint64, dst []uint64) {
	if len(dst) != t.n {
		panic(fmt.Sprintf("table: HashKeys into %d values, table has %d rows", len(dst), t.n))
	}
	hashKeys(dst, t.cols[c], t.off, t.off+t.n, seed)
}

// KeyFingerprints returns the key fingerprints of column c under seed, one
// per row of t, from the root's memoised column, after hashing into it
// whichever of t's rows it did not reach yet; hashed is how many those
// were (0 on a plain hit). The slice is shared with every other reader and
// must not be written. ok is false, and nothing was read or hashed, when t
// cannot use the memo: its rows start past the memo's end, or the root was
// reordered after t was made.
//
// Safe for concurrent use by handles that are themselves safe to read — in
// particular by snapshots while the root is being appended to.
func (t *Table) KeyFingerprints(c int, seed uint64) (fps []uint64, hashed int, ok bool) {
	root := t.root()
	if !t.sameOrder(root) {
		return nil, 0, false
	}
	lo, hi := t.off, t.off+t.n
	slot := &root.keyFPs[c]
	// Hits and refusals take no lock: a warm reader only loads the slot,
	// and shard 1 of a cold table goes off to hash its own rows beside
	// shard 0 instead of queueing behind shard 0's fill.
	have := slot.Load().prefix(t.epoch, seed)
	if hi <= len(have) {
		return have[lo:hi:hi], 0, true
	}
	if lo > len(have) {
		return nil, 0, false
	}
	root.fpMu.Lock()
	defer root.fpMu.Unlock()
	// Another handle may have published while this one waited.
	have = slot.Load().prefix(t.epoch, seed)
	if hi <= len(have) {
		return have[lo:hi:hi], 0, true
	}
	if lo > len(have) {
		return nil, 0, false
	}
	from := len(have)
	ext := have
	if cap(ext) < hi {
		// A first build is sized exactly — most tables never grow; a column
		// that has to move leaves room, so that a stream of small appends
		// copies it a bounded number of times, not once per batch.
		room := hi
		if from > 0 {
			room += hi / 8
		}
		ext = make([]uint64, from, room)
		copy(ext, have)
	}
	ext = ext[:hi]
	hashKeys(ext[from:], t.cols[c], from, hi, seed)
	slot.Store(&keyFPs{epoch: t.epoch, seed: seed, fps: ext})
	return ext[lo:hi:hi], hi - from, true
}
