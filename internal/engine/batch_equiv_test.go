package engine

import (
	"fmt"
	"slices"
	"testing"

	"cheetah/internal/boolexpr"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
)

// newTestJoinPruner builds a join pruner with a small filter for the
// asymmetric equivalence test.
func newTestJoinPruner(asym bool, seed uint64) (*prune.Join, error) {
	return prune.NewJoin(prune.JoinConfig{FilterBits: 1 << 16, Hashes: 3, Asymmetric: asym, Seed: seed})
}

// equivTable builds a small mixed-type table with skewed keys, duplicate
// values and a nearly-sorted numeric column, so every pruner sees hits,
// misses, evictions and ties.
func equivTable(t *testing.T, rows int, seed uint64) *table.Table {
	t.Helper()
	tb := table.MustNew(table.Schema{
		{Name: "name", Type: table.String},
		{Name: "score", Type: table.Int64},
		{Name: "group", Type: table.String},
		{Name: "val", Type: table.Int64},
		{Name: "dim1", Type: table.Int64},
		{Name: "dim2", Type: table.Int64},
	})
	s := seed
	next := func(mod int64) int64 {
		s = s*6364136223846793005 + 1442695040888963407
		v := int64(s >> 33)
		if v < 0 {
			v = -v
		}
		return v % mod
	}
	for i := 0; i < rows; i++ {
		name := fmt.Sprintf("user%04d", next(500))
		group := fmt.Sprintf("g%02d", next(37))
		if err := tb.AppendRow(name, next(100_000)+1, group, next(1000), next(5000)+1, next(5000)+1); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// equivQueries returns one query per kind over tb (joins use rt as the
// probe side).
func equivQueries(tb, rt *table.Table) map[string]*Query {
	return map[string]*Query{
		"filter": {
			Kind:  KindFilter,
			Table: tb,
			Predicates: []FilterPred{
				{Col: "score", Op: prune.OpGT, Const: 40_000},
				{Col: "val", Op: prune.OpLT, Const: 700},
				{Col: "name", Like: "user0%"},
			},
			Formula: boolexpr.Or{boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}}, boolexpr.Leaf{V: 2}},
		},
		"filter-count": {
			Kind:  KindFilter,
			Table: tb,
			Predicates: []FilterPred{
				{Col: "score", Op: prune.OpGT, Const: 60_000},
			},
			Formula:   boolexpr.Leaf{V: 0},
			CountOnly: true,
		},
		"distinct-string": {Kind: KindDistinct, Table: tb, DistinctCols: []string{"name"}},
		"distinct-multi":  {Kind: KindDistinct, Table: tb, DistinctCols: []string{"group", "val"}},
		"topn":            {Kind: KindTopN, Table: tb, OrderCol: "score", N: 50},
		"groupby-max":     {Kind: KindGroupByMax, Table: tb, KeyCol: "group", AggCol: "score"},
		"groupby-sum":     {Kind: KindGroupBySum, Table: tb, KeyCol: "group", AggCol: "val"},
		"having":          {Kind: KindHaving, Table: tb, KeyCol: "name", AggCol: "val", Threshold: 2000},
		"join":            {Kind: KindJoin, Table: tb, Right: rt, LeftKey: "name", RightKey: "name"},
		"skyline":         {Kind: KindSkyline, Table: tb, SkylineCols: []string{"dim1", "dim2"}},
	}
}

// TestBatchMatchesScalarExec is the batch-vs-scalar equivalence suite:
// for every query kind, worker count and seed, the batched pipeline must
// produce identical Result, Traffic and Stats to the legacy per-row
// path. Every batched leg in this file pins NoFuse — the chunked
// pipeline is the subject under test here; the fused compiler has its
// own equivalence suite (fuse_test.go).
func TestBatchMatchesScalarExec(t *testing.T) {
	tb := equivTable(t, 5000, 0x5eed)
	rt := equivTable(t, 1777, 0x0dd)
	queries := withAggEdges(equivQueries(tb, rt))
	// Worker counts straddle the partition-size edge cases: 1 (no
	// interleave), even/odd splits, and more workers than divides
	// evenly (unequal partitions with a partial final cycle).
	for name, q := range queries {
		for _, workers := range []int{1, 2, 3, 5, 8} {
			for _, seed := range []uint64{1, 0xfeed} {
				scalar, err := scalarRef(q, CheetahOptions{Workers: workers, Seed: seed})
				if err != nil {
					t.Fatalf("%s w=%d seed=%d scalar: %v", name, workers, seed, err)
				}
				batch, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: seed, NoFuse: true})
				if err != nil {
					t.Fatalf("%s w=%d seed=%d batch: %v", name, workers, seed, err)
				}
				if batch.PrunerName != scalar.PrunerName {
					t.Fatalf("%s w=%d seed=%d: pruner name %q vs %q", name, workers, seed, batch.PrunerName, scalar.PrunerName)
				}
				if batch.Traffic != scalar.Traffic {
					t.Fatalf("%s w=%d seed=%d: traffic diverges\nscalar: %+v\nbatch:  %+v", name, workers, seed, scalar.Traffic, batch.Traffic)
				}
				if batch.Stats != scalar.Stats {
					t.Fatalf("%s w=%d seed=%d: stats diverge\nscalar: %+v\nbatch:  %+v", name, workers, seed, scalar.Stats, batch.Stats)
				}
				if !batch.Result.Equal(scalar.Result) {
					t.Fatalf("%s w=%d seed=%d: results diverge\nscalar:\n%s\nbatch:\n%s", name, workers, seed, scalar.Result, batch.Result)
				}
				// Row-for-row order must match too: both paths emit
				// Result.Sort order.
				for i := range scalar.Result.Rows {
					for j := range scalar.Result.Rows[i] {
						if scalar.Result.Rows[i][j] != batch.Result.Rows[i][j] {
							t.Fatalf("%s w=%d seed=%d: row %d cell %d: %q vs %q",
								name, workers, seed, i, j, scalar.Result.Rows[i][j], batch.Result.Rows[i][j])
						}
					}
				}
			}
		}
	}
}

// TestBatchTinyTables exercises the stream's degenerate layouts: empty
// tables, fewer rows than workers, and single rows — and the multi-column
// DISTINCT key's NUL case: ["a\x00b", "c"] and ["a", "b\x00c"] join to
// one string around a NUL separator, yet are two tuples.
func TestBatchTinyTables(t *testing.T) {
	queries := map[string]*Query{}
	for _, rows := range []int{0, 1, 2, 3, 7} {
		tb := equivTable(t, rows, 0x11)
		queries[fmt.Sprintf("rows=%d", rows)] = &Query{Kind: KindDistinct, Table: tb, DistinctCols: []string{"name"}}
	}
	nul := table.MustNew(table.Schema{{Name: "s", Type: table.String}, {Name: "t", Type: table.String}})
	for _, r := range [][2]string{{"a\x00b", "c"}, {"a", "b\x00c"}} {
		if err := nul.AppendRow(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	queries["nul-tuples"] = &Query{Kind: KindDistinct, Table: nul, DistinctCols: []string{"s", "t"}}
	for name, q := range queries {
		want, err := ExecDirect(q)
		if err != nil {
			t.Fatalf("%s direct: %v", name, err)
		}
		if name == "nul-tuples" && len(want.Rows) != 2 {
			t.Fatalf("nul-tuples direct: %d tuples, want 2: %q", len(want.Rows), want.Rows)
		}
		for _, workers := range []int{1, 4, 16} {
			scalar, err := scalarRef(q, CheetahOptions{Workers: workers, Seed: 3})
			if err != nil {
				t.Fatalf("%s w=%d scalar: %v", name, workers, err)
			}
			batch, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 3, NoFuse: true})
			if err != nil {
				t.Fatalf("%s w=%d batch: %v", name, workers, err)
			}
			if batch.Traffic != scalar.Traffic || !batch.Result.Equal(scalar.Result) {
				t.Fatalf("%s w=%d: diverges (traffic %+v vs %+v)", name, workers, scalar.Traffic, batch.Traffic)
			}
			if !scalar.Result.Equal(want) {
				t.Fatalf("%s w=%d: scalar reference wrong vs direct\ndirect:\n%s\nscalar:\n%s", name, workers, want, scalar.Result)
			}
		}
	}
}

// TestBatchAsymmetricJoin covers the small-table optimization's
// unpruned build pass in the batched pipeline.
func TestBatchAsymmetricJoin(t *testing.T) {
	tb := equivTable(t, 900, 0x21)
	rt := equivTable(t, 4000, 0x22)
	q := &Query{Kind: KindJoin, Table: tb, Right: rt, LeftKey: "name", RightKey: "name"}
	for _, workers := range []int{1, 5} {
		mk := func() (a, b *ShardedRun, err error) {
			pa, err := newTestJoinPruner(true, 7)
			if err != nil {
				return nil, nil, err
			}
			pb, err := newTestJoinPruner(true, 7)
			if err != nil {
				return nil, nil, err
			}
			a, err = scalarRef(q, CheetahOptions{Workers: workers, Seed: 7, Pruner: pa})
			if err != nil {
				return nil, nil, err
			}
			b, err = ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 7, Pruner: pb, NoFuse: true})
			return a, b, err
		}
		scalar, batch, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if batch.Traffic != scalar.Traffic || batch.Stats != scalar.Stats || !batch.Result.Equal(scalar.Result) {
			t.Fatalf("asymmetric join w=%d diverges: traffic %+v vs %+v", workers, scalar.Traffic, batch.Traffic)
		}
	}
}

// TestBatchJoinEdgeCases runs the chunked JOIN passes and their
// completion (fingerprints recomputed from the survivor row lists) over
// the degenerate input shapes: identical Result, Traffic and Stats to
// the scalar path, and — Skip being batched-only — the same Result as
// ExecDirect with skipping on.
func TestBatchJoinEdgeCases(t *testing.T) {
	for _, intKeys := range []bool{false, true} {
		for _, c := range joinEdgeCases() {
			q := joinEdgeQuery(t, c, intKeys)
			direct, err := ExecDirect(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, asym := range []bool{false, true} {
				label := fmt.Sprintf("%s int=%v asym=%v", c.name, intKeys, asym)
				run := func(exec func(*Query, CheetahOptions) (*ShardedRun, error), opts CheetahOptions) *ShardedRun {
					p, err := newTestJoinPruner(asym, 7)
					if err != nil {
						t.Fatal(err)
					}
					opts.Workers, opts.Seed, opts.Pruner = 3, 7, p
					r, err := exec(q, opts)
					if err != nil {
						t.Fatalf("%s %+v: %v", label, opts, err)
					}
					return r
				}
				scalar, batch := run(scalarRef, CheetahOptions{}), run(ExecCheetah, CheetahOptions{NoFuse: true})
				if batch.Traffic != scalar.Traffic || batch.Stats != scalar.Stats || !batch.Result.Equal(scalar.Result) {
					t.Fatalf("%s: batch diverges from scalar: traffic %+v vs %+v", label, scalar.Traffic, batch.Traffic)
				}
				if !batch.Result.Equal(direct) {
					t.Fatalf("%s: batch join wrong vs direct\ndirect:\n%s\nbatch:\n%s", label, direct, batch.Result)
				}
				if skip := run(ExecCheetah, CheetahOptions{NoFuse: true, Skip: true}); !skip.Result.Equal(direct) {
					t.Fatalf("%s: batch join with skipping wrong vs direct\ndirect:\n%s\nbatch:\n%s", label, direct, skip.Result)
				}
			}
		}
	}
}

// TestBatchMultiChunk shrinks the chunk size so the 5000-row stream
// spans many chunks, checking state carry-over and the partial final
// cycle across chunk boundaries for every kind.
func TestBatchMultiChunk(t *testing.T) {
	old := chunkEntries
	chunkEntries = 256
	defer func() { chunkEntries = old }()
	tb := equivTable(t, 5000, 0x41)
	rt := equivTable(t, 1777, 0x42)
	for name, q := range withAggEdges(equivQueries(tb, rt)) {
		for _, workers := range []int{1, 5, 7} {
			scalar, err := scalarRef(q, CheetahOptions{Workers: workers, Seed: 11})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			batch, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 11, NoFuse: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if batch.Traffic != scalar.Traffic || batch.Stats != scalar.Stats || !batch.Result.Equal(scalar.Result) {
				t.Fatalf("%s w=%d multi-chunk diverges\nscalar traffic %+v stats %+v\nbatch  traffic %+v stats %+v",
					name, workers, scalar.Traffic, scalar.Stats, batch.Traffic, batch.Stats)
			}
		}
	}
}

// streamRecorder is a BatchDataplane that records the positions of every
// batch it is sent — batchStreamEnc writes them into column 0 — and
// forwards the positions that are not multiples of three.
type streamRecorder struct{ batches [][]int }

func (d *streamRecorder) ProcessBatch(b *switchsim.Batch, dec []switchsim.Decision) {
	rows := make([]int, b.N)
	for j := range rows {
		rows[j] = int(b.Cols[0][j])
		dec[j] = switchsim.Forward
		if rows[j]%3 == 0 {
			dec[j] = switchsim.Prune
		}
	}
	d.batches = append(d.batches, rows)
}

func batchStreamEnc(dst [][]uint64, rows []int) {
	for j, r := range rows {
		dst[0][j] = uint64(r)
	}
}

// TestBatchStream pins the chunked pipeline's stream itself. Each span is
// its own segment: its positions arrive in the scalar reference's
// interleave order over the span, in batches of whole round-robin cycles
// — ⌊chunkEntries/workers⌋ of them, at least one — with the partial final
// cycle in the segment's last batch; and keep sees exactly the forwarded
// entries, in stream order, at their index in the batch.
func TestBatchStream(t *testing.T) {
	defer func(n int) { chunkEntries = n }(chunkEntries)
	tb := table.MustNew(table.Schema{{Name: "v", Type: table.Int64}})
	for r := 0; r < 5003; r++ {
		if err := tb.AppendRow(int64(r)); err != nil {
			t.Fatal(err)
		}
	}
	for _, chunk := range []int{256, chunkEntries} {
		chunkEntries = chunk
		for _, w := range []int{1, 2, 3, 5, 7, 11} {
			for _, n := range []int{0, 1, w - 1, w, w + 1, 5003} {
				a := min(1, n)
				b := max(a, n/2)
				for _, spans := range [][]span{{{0, n}}, {{a, b}, {min(b+1, n), n}}} {
					label := fmt.Sprintf("chunk=%d w=%d n=%d spans=%v", chunk, w, n, spans)
					var wantRows []int
					var wantLens []int
					for _, sp := range spans {
						v, err := tb.View(sp.lo, sp.hi)
						if err != nil {
							t.Fatal(err)
						}
						interleave(v, w, func(r int) { wantRows = append(wantRows, sp.lo+r) })
						m := sp.hi - sp.lo
						if m == 0 {
							continue
						}
						cycles := max(1, chunk/w) // in a batch
						batches := max(1, (m/w+cycles-1)/cycles)
						for range batches - 1 {
							wantLens = append(wantLens, cycles*w)
						}
						wantLens = append(wantLens, m-(batches-1)*cycles*w)
					}
					dp := &streamRecorder{}
					var kept []int
					sent, fwd := batchPass(spans, w, 1, batchStreamEnc, dp, func(cols [][]uint64, j, row int) {
						if cols[0][j] != uint64(row) {
							t.Fatalf("%s: keep got row %d at index %d, the batch holds %d", label, row, j, cols[0][j])
						}
						kept = append(kept, row)
					})
					var gotRows, gotLens, wantKept []int
					for _, rows := range dp.batches {
						gotRows = append(gotRows, rows...)
						gotLens = append(gotLens, len(rows))
					}
					for _, r := range gotRows {
						if r%3 != 0 {
							wantKept = append(wantKept, r)
						}
					}
					if !slices.Equal(gotRows, wantRows) {
						t.Fatalf("%s: positions %v, want interleave's %v", label, gotRows, wantRows)
					}
					if !slices.Equal(gotLens, wantLens) {
						t.Fatalf("%s: batch lengths %v, want %v", label, gotLens, wantLens)
					}
					if !slices.Equal(kept, wantKept) || sent != len(wantRows) || fwd != len(wantKept) {
						t.Fatalf("%s: sent %d forwarded %d kept %v, want %d, %d, %v", label, sent, fwd, kept, len(wantRows), len(wantKept), wantKept)
					}
				}
			}
		}
	}
}

// TestBatchCustomPrunerFilterExactCompletion: a caller-supplied filter
// pruner may forward false positives; the batch path must fall back to
// the master's exact formula re-check, matching the scalar path.
func TestBatchCustomPrunerFilterExactCompletion(t *testing.T) {
	tb := equivTable(t, 3000, 0x61)
	for _, countOnly := range []bool{false, true} {
		q := &Query{
			Kind:  KindFilter,
			Table: tb,
			Predicates: []FilterPred{
				{Col: "score", Op: prune.OpGT, Const: 50_000},
				{Col: "val", Op: prune.OpLT, Const: 500},
			},
			Formula:   boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}},
			CountOnly: countOnly,
		}
		mk := func() prune.Pruner {
			// A weaker switch program: only the first predicate runs on
			// the switch, so it forwards rows failing the second one.
			f, err := prune.NewFilter(prune.FilterConfig{
				Predicates: []prune.Predicate{{ValIdx: 0, Op: prune.OpGT, Const: 50_000}},
				Formula:    boolexpr.Leaf{V: 0},
			})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		scalar, err := scalarRef(q, CheetahOptions{Workers: 3, Seed: 5, Pruner: mk()})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := ExecCheetah(q, CheetahOptions{Workers: 3, Seed: 5, Pruner: mk(), NoFuse: true})
		if err != nil {
			t.Fatal(err)
		}
		if !batch.Result.Equal(scalar.Result) || batch.Traffic != scalar.Traffic {
			t.Fatalf("countOnly=%v: custom-pruner filter diverges\nscalar: %+v\n%s\nbatch: %+v\n%s",
				countOnly, scalar.Traffic, scalar.Result, batch.Traffic, batch.Result)
		}
		// The weak pruner must actually forward false positives for
		// this test to mean anything.
		direct, err := ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		if !batch.Result.Equal(direct) {
			t.Fatalf("countOnly=%v: batch result wrong vs direct", countOnly)
		}
		if batch.Traffic.Forwarded <= len(direct.Rows) && !countOnly {
			t.Fatalf("weak pruner forwarded %d ≤ %d true matches; test is vacuous", batch.Traffic.Forwarded, len(direct.Rows))
		}
	}
}

// TestBatchChunkBoundaryOrder uses prime row counts so every worker
// count leaves unequal partitions and a partial final cycle.
func TestBatchChunkBoundaryOrder(t *testing.T) {
	// 5003 is prime: every worker count > 1 yields unequal partitions.
	tb := equivTable(t, 5003, 0x31)
	q := &Query{Kind: KindTopN, Table: tb, OrderCol: "score", N: 25}
	for _, workers := range []int{2, 3, 5, 7, 11} {
		scalar, err := scalarRef(q, CheetahOptions{Workers: workers, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 9, NoFuse: true})
		if err != nil {
			t.Fatal(err)
		}
		if batch.Traffic != scalar.Traffic || batch.Stats != scalar.Stats {
			t.Fatalf("w=%d: traffic/stats diverge: %+v vs %+v", workers, scalar.Traffic, batch.Traffic)
		}
	}
}
