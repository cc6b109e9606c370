package table

import "cheetah/internal/sketch"

// blockState returns what block b of ix holds: its row count, zone maps
// and Blooms, shared with the index — read, never write.
func (ix *SkipIndex) blockState(b int) (rows int, mins, maxs []int64, blooms []*sketch.Bloom) {
	m := ix.blocks[b]
	return m.rows, m.mins, m.maxs, m.blooms
}
