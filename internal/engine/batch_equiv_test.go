package engine

import (
	"fmt"
	"testing"

	"cheetah/internal/boolexpr"
	"cheetah/internal/prune"
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
				scalar, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: seed, Scalar: true})
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

// TestBatchTinyTables exercises the scatter's degenerate layouts: empty
// tables, fewer rows than workers, and single rows.
func TestBatchTinyTables(t *testing.T) {
	for _, rows := range []int{0, 1, 2, 3, 7} {
		tb := equivTable(t, rows, 0x11)
		q := &Query{Kind: KindDistinct, Table: tb, DistinctCols: []string{"name"}}
		for _, workers := range []int{1, 4, 16} {
			scalar, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 3, Scalar: true})
			if err != nil {
				t.Fatalf("rows=%d w=%d scalar: %v", rows, workers, err)
			}
			batch, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 3, NoFuse: true})
			if err != nil {
				t.Fatalf("rows=%d w=%d batch: %v", rows, workers, err)
			}
			if batch.Traffic != scalar.Traffic || !batch.Result.Equal(scalar.Result) {
				t.Fatalf("rows=%d w=%d: diverges (traffic %+v vs %+v)", rows, workers, scalar.Traffic, batch.Traffic)
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
			a, err = ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 7, Scalar: true, Pruner: pa})
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
				run := func(opts CheetahOptions) *ShardedRun {
					p, err := newTestJoinPruner(asym, 7)
					if err != nil {
						t.Fatal(err)
					}
					opts.Workers, opts.Seed, opts.Pruner = 3, 7, p
					r, err := ExecCheetah(q, opts)
					if err != nil {
						t.Fatalf("%s %+v: %v", label, opts, err)
					}
					return r
				}
				scalar, batch := run(CheetahOptions{Scalar: true}), run(CheetahOptions{NoFuse: true})
				if batch.Traffic != scalar.Traffic || batch.Stats != scalar.Stats || !batch.Result.Equal(scalar.Result) {
					t.Fatalf("%s: batch diverges from scalar: traffic %+v vs %+v", label, scalar.Traffic, batch.Traffic)
				}
				if !batch.Result.Equal(direct) {
					t.Fatalf("%s: batch join wrong vs direct\ndirect:\n%s\nbatch:\n%s", label, direct, batch.Result)
				}
				if skip := run(CheetahOptions{NoFuse: true, Skip: true}); !skip.Result.Equal(direct) {
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
			scalar, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 11, Scalar: true})
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

// TestBatchParallelEncode forces the concurrent per-worker encode
// branch (normally gated on chunk size and real CPU parallelism) and
// checks the scattered stream still reproduces interleave order for
// every kind.
func TestBatchParallelEncode(t *testing.T) {
	oldMin, oldGate := parallelEncodeMin, encodeInParallel
	parallelEncodeMin, encodeInParallel = 1, true
	defer func() { parallelEncodeMin, encodeInParallel = oldMin, oldGate }()
	tb := equivTable(t, 5003, 0x51)
	rt := equivTable(t, 1777, 0x52)
	for name, q := range equivQueries(tb, rt) {
		for _, workers := range []int{2, 5} {
			scalar, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 13, Scalar: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			batch, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 13, NoFuse: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if batch.Traffic != scalar.Traffic || batch.Stats != scalar.Stats || !batch.Result.Equal(scalar.Result) {
				t.Fatalf("%s w=%d parallel encode diverges: traffic %+v vs %+v", name, workers, scalar.Traffic, batch.Traffic)
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
		scalar, err := ExecCheetah(q, CheetahOptions{Workers: 3, Seed: 5, Scalar: true, Pruner: mk()})
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
		scalar, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 9, Scalar: true})
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
