package table

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cheetah/internal/hashutil"
	"cheetah/internal/sketch"
)

// skipSchedule is one fuzzed table and append schedule for
// FuzzSkipRefreshMatchesBuild. shape picks 1–4 columns and their types,
// blockRows the index's block size (1–64). steps[0] is the row count the
// index is built over; each later byte is one batch appended and then
// refreshed: its low two bits pick the kind, the rest an argument a.
//
//	0: a rows (0–63)
//	1: exactly the rows up to the next block boundary (a whole block at one)
//	2: no rows
//	3: a jump across 2–5 blocks: (2 + a%4)·blockRows + a/4 rows
type skipSchedule struct {
	shape, blockRows uint8
	steps            []byte
}

func (s skipSchedule) schema() Schema {
	var sc Schema
	for c := 0; c < 1+int(s.shape%4); c++ {
		typ := Int64
		if s.shape>>(2+c)&1 == 1 {
			typ = String
		}
		sc = append(sc, ColumnDef{Name: fmt.Sprintf("c%d", c), Type: typ})
	}
	return sc
}

// batch returns how many rows step b appends to a table of rows rows.
func (s skipSchedule) batch(b byte, rows, br int) int {
	a := int(b >> 2)
	switch b & 3 {
	case 0:
		return a
	case 1:
		return br - rows%br
	case 2:
		return 0
	default:
		return (2+a%4)*br + a/4
	}
}

// appendSkipRows appends n generated rows to every table in tbs: small
// domains so that blocks repeat values, with the extremes and the empty
// string mixed in.
func appendSkipRows(t *testing.T, n int, tbs ...*Table) {
	t.Helper()
	sc := tbs[0].Schema()
	vals := make([]any, len(sc))
	for i := 0; i < n; i++ {
		r := tbs[0].NumRows()
		for c, def := range sc {
			h := hashutil.SplitMix64(uint64(r)<<8 | uint64(c))
			if def.Type == Int64 {
				switch {
				case h%31 == 0:
					vals[c] = int64(math.MinInt64)
				case h%37 == 0:
					vals[c] = int64(math.MaxInt64)
				default:
					vals[c] = int64(h%17) - 8
				}
			} else if h%11 == 0 {
				vals[c] = ""
			} else {
				vals[c] = fmt.Sprintf("k%d", h%13)
			}
		}
		for _, tb := range tbs {
			if err := tb.AppendRow(vals...); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sameSkipIndex fails t unless got and want hold the same blocks.
func sameSkipIndex(t *testing.T, step int, got, want *SkipIndex) {
	t.Helper()
	if got.Rows() != want.Rows() || got.BlockRows() != want.BlockRows() || got.NumBlocks() != want.NumBlocks() {
		t.Fatalf("step %d: refreshed index rows=%d blockRows=%d blocks=%d, built rows=%d blockRows=%d blocks=%d",
			step, got.Rows(), got.BlockRows(), got.NumBlocks(), want.Rows(), want.BlockRows(), want.NumBlocks())
	}
	for b := 0; b < got.NumBlocks(); b++ {
		gr, gmin, gmax, gbl := got.blockState(b)
		wr, wmin, wmax, wbl := want.blockState(b)
		if gr != wr || !slices.Equal(gmin, wmin) || !slices.Equal(gmax, wmax) {
			t.Fatalf("step %d block %d: refreshed rows=%d mins=%v maxs=%v, built rows=%d mins=%v maxs=%v",
				step, b, gr, gmin, gmax, wr, wmin, wmax)
		}
		for c := range gbl {
			if !gbl[c].Equal(wbl[c]) {
				t.Fatalf("step %d block %d column %d: refreshed Bloom (count %d) differs from the built one (count %d)",
					step, b, c, gbl[c].Count(), wbl[c].Count())
			}
		}
	}
}

func (s skipSchedule) run(t *testing.T) {
	if len(s.steps) == 0 {
		return
	}
	if len(s.steps) > 48 {
		s.steps = s.steps[:48]
	}
	br := 1 + int(s.blockRows%64)
	tb, ref := MustNew(s.schema()), MustNew(s.schema())
	appendSkipRows(t, int(s.steps[0]), tb, ref)
	if err := tb.BuildSkipIndex(br); err != nil {
		t.Fatal(err)
	}
	// What each snapshot taken before a refresh captured: its index, and
	// copies of its tail block's Blooms.
	type captured struct {
		snap   *Table
		ix     *SkipIndex
		blooms []*sketch.Bloom
	}
	var snaps []captured
	for step, b := range s.steps[1:] {
		snap, err := tb.SnapshotPrefix(tb.NumRows())
		if err != nil {
			t.Fatal(err)
		}
		cp := captured{snap: snap, ix: snap.SkipIndex()}
		if n := cp.ix.NumBlocks(); n > 0 {
			_, _, _, bl := cp.ix.blockState(n - 1)
			for _, bloom := range bl {
				cp.blooms = append(cp.blooms, bloom.Clone())
			}
		}
		snaps = append(snaps, cp)

		n := s.batch(b, tb.NumRows(), br)
		if tb.NumRows()+n > 4096 {
			break
		}
		appendSkipRows(t, n, tb, ref)
		tb.RefreshSkipIndex()
		if err := ref.BuildSkipIndex(br); err != nil {
			t.Fatal(err)
		}
		sameSkipIndex(t, step, tb.SkipIndex(), ref.SkipIndex())

		for i, cp := range snaps {
			if cp.snap.SkipIndex() != cp.ix {
				t.Fatalf("step %d: snapshot %d lost the index it captured", step, i)
			}
			if len(cp.blooms) == 0 {
				continue
			}
			_, _, _, bl := cp.ix.blockState(cp.ix.NumBlocks() - 1)
			for c, bloom := range bl {
				if !bloom.Equal(cp.blooms[c]) {
					t.Fatalf("step %d: snapshot %d's tail Bloom of column %d was written", step, i, c)
				}
			}
		}
	}
}

// FuzzSkipRefreshMatchesBuild: an index refreshed over any append
// schedule is the index BuildSkipIndex builds over the same rows — rows,
// blocks, zone maps, Bloom bits and counts — and no refresh writes what a
// snapshot taken before it captured.
func FuzzSkipRefreshMatchesBuild(f *testing.F) {
	const intStr = 1 | 2<<2 // {Int64, String}, the shape of the tests above
	for _, seed := range []skipSchedule{
		{intStr, 3, []byte{0, 1 << 2}},         // EmptyTable: grow from empty by one row
		{intStr, 0, []byte{5, 1 << 2, 2}},      // SingleRowBlocks
		{intStr, 3, []byte{0, 4 << 2, 4 << 2}}, // BlockBoundaryAppends
		{intStr, 3, []byte{6, 1 << 2, 1 << 2}}, // PartialTailRefresh, SnapshotMidTailBlock
		{intStr, 63, []byte{10, 1, 7<<2 | 3}},  // to the boundary, then a jump
		{3 | 0xa<<2, 6, []byte{3, 2, 1 << 2, 1, 0x33, 5 << 2}},
	} {
		f.Add(seed.shape, seed.blockRows, seed.steps)
	}
	f.Fuzz(func(t *testing.T, shape, blockRows uint8, steps []byte) {
		skipSchedule{shape, blockRows, steps}.run(t)
	})
}

// visitsLike returns rows rows shaped like the benchmark's visits table:
// 3 Int64 and 6 String columns of mixed cardinality.
func visitsLike(rows int) *Table {
	tb := MustNew(Schema{
		{Name: "sourceIP", Type: String}, {Name: "destURL", Type: String},
		{Name: "visitDate", Type: Int64}, {Name: "adRevenue", Type: Int64},
		{Name: "userAgent", Type: String}, {Name: "countryCode", Type: String},
		{Name: "languageCode", Type: String}, {Name: "searchWord", Type: String},
		{Name: "duration", Type: Int64},
	})
	for r := 0; r < rows; r++ {
		h := hashutil.SplitMix64(uint64(r))
		err := tb.AppendRow(
			fmt.Sprintf("10.%d.%d.%d", h>>56, h>>48&0xff, h>>40&0xff), fmt.Sprintf("url%d", h%100000),
			int64(h>>8%10000), int64(h>>16%100000),
			fmt.Sprintf("agent%d", h>>24%50), fmt.Sprintf("c%d", h>>32%200),
			fmt.Sprintf("l%d", h>>36%40), fmt.Sprintf("word%d", h>>20%10000),
			int64(h>>44%1000))
		if err != nil {
			panic(err)
		}
	}
	return tb
}

// BenchmarkRefreshSkipIndex times one RefreshSkipIndex after a 256-row
// append to a 65 536-row visits-shaped table with a default-sized index:
// what a subscription delta waits for before it runs. Every 256 batches
// the table starts over from 65 536 rows, outside the timer.
func BenchmarkRefreshSkipIndex(b *testing.B) {
	const base, batch, cycle = 65536, 256, 256
	src := visitsLike(base + cycle*batch)
	rows := make([]int, base)
	var tb *Table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := i % cycle
		if k == 0 {
			for j := range rows {
				rows[j] = j
			}
			tb = MustNew(src.Schema())
			if err := tb.AppendRowsFrom(src, rows); err != nil {
				b.Fatal(err)
			}
			if err := tb.BuildSkipIndex(0); err != nil {
				b.Fatal(err)
			}
		}
		next := rows[:batch]
		for j := range next {
			next[j] = base + k*batch + j
		}
		if err := tb.AppendRowsFrom(src, next); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		tb.RefreshSkipIndex()
	}
}
