package prune

import (
	"testing"

	"cheetah/internal/boolexpr"
	"cheetah/internal/cache"
	"cheetah/internal/hashutil"
	"cheetah/internal/switchsim"
)

// makeStream builds a deterministic pseudo-random column-major stream of
// n entries with the given column value ranges (range 0 keeps the column
// zero, e.g. a side marker filled by the caller).
func makeStream(n int, ranges []uint64, seed uint64) [][]uint64 {
	cols := make([][]uint64, len(ranges))
	for i := range cols {
		cols[i] = make([]uint64, n)
	}
	s := seed
	for j := 0; j < n; j++ {
		for i, r := range ranges {
			if r == 0 {
				continue
			}
			s = hashutil.SplitMix64(s)
			cols[i][j] = s % r
		}
	}
	return cols
}

// runScalar feeds the stream entry by entry through Process.
func runScalar(p Pruner, cols [][]uint64, n int) []switchsim.Decision {
	dec := make([]switchsim.Decision, n)
	vals := make([]uint64, len(cols))
	for j := 0; j < n; j++ {
		for i := range cols {
			vals[i] = cols[i][j]
		}
		dec[j] = p.Process(vals)
	}
	return dec
}

// runBatch feeds the same stream through the chunk driver,
// switchsim.ProcessBatchOf, in uneven chunks, so its gather and the
// program's state carry-over across chunk boundaries are exercised.
func runBatch(p Pruner, cols [][]uint64, n int) []switchsim.Decision {
	dec := make([]switchsim.Decision, n)
	chunks := []int{1, 7, 64, 1000, n} // cumulative boundaries, clamped
	lo := 0
	for _, hi := range chunks {
		if hi > n {
			hi = n
		}
		if hi <= lo {
			continue
		}
		sub := make([][]uint64, len(cols))
		for i := range cols {
			sub[i] = cols[i][lo:hi]
		}
		b := &switchsim.Batch{Cols: sub, N: hi - lo}
		switchsim.ProcessBatchOf(p, b, dec[lo:hi])
		lo = hi
	}
	return dec
}

func compareRuns(t *testing.T, name string, scalar, batch Pruner, cols [][]uint64, n int) {
	t.Helper()
	// Copy the stream for the batch run: GroupBySum rewrites in place.
	colsB := make([][]uint64, len(cols))
	for i := range cols {
		colsB[i] = append([]uint64(nil), cols[i]...)
	}
	ds := runScalar(scalar, cols, n)
	db := runBatch(batch, colsB, n)
	for j := 0; j < n; j++ {
		if ds[j] != db[j] {
			t.Fatalf("%s: entry %d: scalar=%v batch=%v", name, j, ds[j], db[j])
		}
	}
	if scalar.Stats() != batch.Stats() {
		t.Fatalf("%s: stats diverge: scalar=%+v batch=%+v", name, scalar.Stats(), batch.Stats())
	}
}

func TestBatchMatchesScalarFilter(t *testing.T) {
	mk := func() Pruner {
		f, err := NewFilter(FilterConfig{
			Predicates: []Predicate{
				{ValIdx: 0, Op: OpGT, Const: 500},
				{ValIdx: 1, Op: OpLE, Const: 100},
				{ValIdx: 2, Precomputed: true},
			},
			Formula: boolexpr.Or{boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}}, boolexpr.Leaf{V: 2}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	cols := makeStream(5000, []uint64{1000, 200, 2}, 0xf1)
	compareRuns(t, "filter", mk(), mk(), cols, 5000)
}

func TestBatchMatchesScalarDistinct(t *testing.T) {
	for _, pol := range []cache.Policy{cache.FIFO, cache.LRU} {
		mk := func() Pruner {
			d, err := NewDistinct(DistinctConfig{Rows: 64, Cols: 2, Policy: pol, Seed: 0xd1})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		cols := makeStream(5000, []uint64{300}, 0xd2)
		compareRuns(t, "distinct-"+pol.String(), mk(), mk(), cols, 5000)
	}
}

func TestBatchMatchesScalarDetTopN(t *testing.T) {
	mk := func() Pruner {
		d, err := NewDetTopN(DetTopNConfig{N: 50, Thresholds: 4})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cols := makeStream(5000, []uint64{1 << 20}, 0x71)
	compareRuns(t, "topn-det", mk(), mk(), cols, 5000)
}

func TestBatchMatchesScalarRandTopN(t *testing.T) {
	mk := func() Pruner {
		r, err := NewRandTopN(RandTopNConfig{N: 50, Rows: 32, Cols: 4, Seed: 0x72})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cols := makeStream(5000, []uint64{1 << 20}, 0x73)
	compareRuns(t, "topn-rand", mk(), mk(), cols, 5000)
}

func TestBatchMatchesScalarGroupBy(t *testing.T) {
	for _, min := range []bool{false, true} {
		mk := func() Pruner {
			g, err := NewGroupBy(GroupByConfig{Rows: 32, Cols: 4, Min: min, Seed: 0x91})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		cols := makeStream(5000, []uint64{200, 1 << 16}, 0x92)
		compareRuns(t, "groupby", mk(), mk(), cols, 5000)
	}
}

func TestBatchMatchesScalarHaving(t *testing.T) {
	for _, agg := range []HavingAgg{HavingSum, HavingCount} {
		mk := func() Pruner {
			h, err := NewHaving(HavingConfig{Agg: agg, Threshold: 1000, Rows: 3, CountersPerRow: 64, Seed: 0xa1})
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		cols := makeStream(5000, []uint64{150, 100}, 0xa2)
		compareRuns(t, "having-"+agg.String(), mk(), mk(), cols, 5000)
	}
}

func TestBatchMatchesScalarJoin(t *testing.T) {
	for _, asym := range []bool{false, true} {
		mk := func() *Join {
			j, err := NewJoin(JoinConfig{FilterBits: 1 << 12, Hashes: 3, Asymmetric: asym, Seed: 0xb1})
			if err != nil {
				t.Fatal(err)
			}
			return j
		}
		cols := makeStream(4000, []uint64{0, 500}, 0xb2)
		// Half side A, half side B.
		for j := 2000; j < 4000; j++ {
			cols[0][j] = uint64(SideB)
		}
		s, b := mk(), mk()
		// Build pass on the first half, probe pass on the second.
		compareRuns(t, "join-build", s, b, [][]uint64{cols[0][:2000], cols[1][:2000]}, 2000)
		s.StartProbe()
		b.StartProbe()
		compareRuns(t, "join-probe", s, b, [][]uint64{cols[0][2000:], cols[1][2000:]}, 2000)
	}
}

func TestBatchMatchesScalarSkyline(t *testing.T) {
	for _, h := range []SkylineHeuristic{SkylineSum, SkylineAPH, SkylineBaseline} {
		mk := func() Pruner {
			s, err := NewSkyline(SkylineConfig{Dims: 2, Points: 8, Heuristic: h})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		cols := makeStream(3000, []uint64{1 << 16, 1 << 16, 1 << 30}, 0xc1)
		compareRuns(t, "skyline-"+h.String(), mk(), mk(), cols, 3000)
	}
}

// TestBatchGroupBySumRewrite checks the chunk driver's in-place packet
// rewriting for an Emitter: forwarded slots must carry the same evicted
// aggregates that ProcessEmit returns, and absorbed state must drain
// identically.
func TestBatchGroupBySumRewrite(t *testing.T) {
	mk := func() *GroupBySum {
		g, err := NewGroupBySum(GroupBySumConfig{Rows: 16, Cols: 2, Seed: 0xe1})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	const n = 5000
	cols := makeStream(n, []uint64{300, 1 << 10}, 0xe2)
	s, b := mk(), mk()

	// Scalar reference via ProcessEmit.
	type emitted struct{ key, sum uint64 }
	var wantEmits []emitted
	vals := make([]uint64, 2)
	dec := make([]switchsim.Decision, n)
	for j := 0; j < n; j++ {
		vals[0], vals[1] = cols[0][j], cols[1][j]
		d, out := s.ProcessEmit(vals)
		dec[j] = d
		if d == switchsim.Forward {
			wantEmits = append(wantEmits, emitted{out[0], out[1]})
		}
	}

	colsB := [][]uint64{append([]uint64(nil), cols[0]...), append([]uint64(nil), cols[1]...)}
	decB := make([]switchsim.Decision, n)
	switchsim.ProcessBatchOf(b, &switchsim.Batch{Cols: colsB, N: n}, decB)
	var gotEmits []emitted
	for j := 0; j < n; j++ {
		if dec[j] != decB[j] {
			t.Fatalf("entry %d: scalar=%v batch=%v", j, dec[j], decB[j])
		}
		if decB[j] == switchsim.Forward {
			gotEmits = append(gotEmits, emitted{colsB[0][j], colsB[1][j]})
		}
	}
	if len(wantEmits) != len(gotEmits) {
		t.Fatalf("emit count: scalar=%d batch=%d", len(wantEmits), len(gotEmits))
	}
	for i := range wantEmits {
		if wantEmits[i] != gotEmits[i] {
			t.Fatalf("emit %d: scalar=%+v batch=%+v", i, wantEmits[i], gotEmits[i])
		}
	}
	sd, bd := s.Drain(), b.Drain()
	if len(sd) != len(bd) {
		t.Fatalf("drain size: scalar=%d batch=%d", len(sd), len(bd))
	}
	for i := range sd {
		if sd[i][0] != bd[i][0] || sd[i][1] != bd[i][1] {
			t.Fatalf("drain %d: scalar=%v batch=%v", i, sd[i], bd[i])
		}
	}
	if s.Stats() != b.Stats() {
		t.Fatalf("stats diverge: scalar=%+v batch=%+v", s.Stats(), b.Stats())
	}
}
