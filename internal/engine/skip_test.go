package engine

import (
	"fmt"
	"testing"

	"cheetah/internal/boolexpr"
	"cheetah/internal/prune"
	"cheetah/internal/table"
)

// skipBlockRows is small relative to the 5000-row equivalence tables so
// the suites exercise many blocks, a partial tail block, and block
// boundaries that do not divide the row count.
const skipBlockRows = 256

// TestSkipEqualsDirect is the tentpole invariant: with a skip index
// attached, every skipping path — direct, batched Cheetah, sharded —
// returns results bit-identical to the no-skip ExecDirect for every
// query kind, while the bookkeeping accounts for every block.
func TestSkipEqualsDirect(t *testing.T) {
	tb := equivTable(t, 5000, 0x5eed)
	rt := equivTable(t, 1777, 0x0dd)
	if err := tb.BuildSkipIndex(skipBlockRows); err != nil {
		t.Fatal(err)
	}
	if err := rt.BuildSkipIndex(skipBlockRows); err != nil {
		t.Fatal(err)
	}
	for name, q := range equivQueries(tb, rt) {
		direct, err := ExecDirect(q)
		if err != nil {
			t.Fatalf("%s direct: %v", name, err)
		}

		res, st, err := ExecDirectSkip(q)
		if err != nil {
			t.Fatalf("%s direct-skip: %v", name, err)
		}
		if !res.Equal(direct) {
			t.Fatalf("%s: direct-skip diverges from direct\nwant:\n%s\ngot:\n%s", name, direct, res)
		}
		assertSkipStats(t, name+" direct-skip", q, st)

		for _, seed := range []uint64{1, 0xfeed} {
			run, err := ExecCheetah(q, CheetahOptions{Workers: 3, Seed: seed, Skip: true})
			if err != nil {
				t.Fatalf("%s cheetah skip seed=%d: %v", name, seed, err)
			}
			if !run.Result.Equal(direct) {
				t.Fatalf("%s seed=%d: cheetah skip diverges from direct", name, seed)
			}
			assertSkipStats(t, fmt.Sprintf("%s cheetah seed=%d", name, seed), q, run.Skipped)

			for _, shards := range []int{2, 4} {
				srun, err := ExecSharded(q, ShardedOptions{
					Shards: shards, Workers: 3, Seed: seed, Skip: true,
				})
				if err != nil {
					t.Fatalf("%s sharded=%d skip seed=%d: %v", name, shards, seed, err)
				}
				if !srun.Result.Equal(direct) {
					t.Fatalf("%s shards=%d seed=%d: sharded skip diverges from direct", name, shards, seed)
				}
			}
		}
	}
}

// assertSkipStats checks the per-kind bookkeeping contract: eligible
// kinds (FILTER/TOP N/JOIN) see every block and skip at most what they
// saw; ineligible kinds report zero.
func assertSkipStats(t *testing.T, label string, q *Query, st SkipStats) {
	t.Helper()
	switch q.Kind {
	case KindFilter, KindTopN, KindJoin:
		if st.BlocksSeen == 0 {
			t.Fatalf("%s: eligible kind saw no blocks (%+v)", label, st)
		}
		if st.BlocksSkipped > st.BlocksSeen {
			t.Fatalf("%s: skipped more blocks than seen (%+v)", label, st)
		}
	default:
		if st != (SkipStats{}) {
			t.Fatalf("%s: ineligible kind reported skip stats %+v", label, st)
		}
	}
}

// TestSkipActuallySkips pins that the index does real work on selective
// queries: a narrow zone-map range, a tight TOP N threshold, and a join
// against a right table with disjoint key ranges must all skip blocks.
func TestSkipActuallySkips(t *testing.T) {
	// score falls monotonically so zone maps partition the value space
	// cleanly across blocks — and the first block saturates a TOP N
	// heap, letting the running threshold skip every later block.
	tb := table.MustNew(table.Schema{
		{Name: "score", Type: table.Int64},
		{Name: "key", Type: table.String},
	})
	for i := 0; i < 4096; i++ {
		if err := tb.AppendRow(int64(4096-i), fmt.Sprintf("k%05d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.BuildSkipIndex(skipBlockRows); err != nil {
		t.Fatal(err)
	}

	filter := &Query{
		Kind:  KindFilter,
		Table: tb,
		Predicates: []FilterPred{
			{Col: "score", Op: prune.OpLT, Const: 100},
		},
		Formula: boolexpr.Leaf{V: 0},
	}
	if err := filter.Validate(); err != nil {
		t.Fatal(err)
	}
	res, st, err := ExecDirectSkip(filter)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 99 {
		t.Fatalf("filter returned %d rows, want 99", len(res.Rows))
	}
	if st.BlocksSkipped == 0 || st.RowsSkipped == 0 {
		t.Fatalf("selective filter skipped nothing: %+v", st)
	}

	topn := &Query{Kind: KindTopN, Table: tb, OrderCol: "score", N: 10}
	_, st, err = ExecDirectSkip(topn)
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksSkipped == 0 {
		t.Fatalf("top-n over sorted data skipped nothing: %+v", st)
	}

	// The build side's score range [0, 255] overlaps exactly one probe
	// block's zone-map range, so Int64 key zone maps exclude the rest.
	rt := table.MustNew(tb.Schema())
	for i := 0; i < 256; i++ {
		if err := rt.AppendRow(int64(i), fmt.Sprintf("k%05d", i)); err != nil {
			t.Fatal(err)
		}
	}
	join := &Query{Kind: KindJoin, Table: rt, Right: tb, LeftKey: "score", RightKey: "score"}
	direct, err := ExecDirect(join)
	if err != nil {
		t.Fatal(err)
	}
	jres, st, err := ExecDirectSkip(join)
	if err != nil {
		t.Fatal(err)
	}
	if !jres.Equal(direct) {
		t.Fatal("join skip diverges from direct")
	}
	if st.BlocksSkipped == 0 {
		t.Fatalf("join with disjoint right blocks skipped nothing: %+v", st)
	}
}

// TestSkipPropertyAppendInterleave is the property test: under a random
// interleaving of appends and queries (refreshing the index between
// some, not all, batches so stale-index spans stay exercised), every
// skipping path must match a from-scratch no-skip execution.
func TestSkipPropertyAppendInterleave(t *testing.T) {
	tb := table.MustNew(table.Schema{
		{Name: "name", Type: table.String},
		{Name: "score", Type: table.Int64},
		{Name: "group", Type: table.String},
		{Name: "val", Type: table.Int64},
		{Name: "dim1", Type: table.Int64},
		{Name: "dim2", Type: table.Int64},
	})
	if err := tb.BuildSkipIndex(64); err != nil {
		t.Fatal(err)
	}
	rt := equivTable(t, 333, 0x0dd)
	if err := rt.BuildSkipIndex(64); err != nil {
		t.Fatal(err)
	}

	s := uint64(0xdecade)
	next := func(mod int64) int64 {
		s = s*6364136223846793005 + 1442695040888963407
		v := int64(s >> 33)
		if v < 0 {
			v = -v
		}
		return v % mod
	}
	appendRows := func(n int64) {
		for i := int64(0); i < n; i++ {
			name := fmt.Sprintf("user%04d", next(500))
			group := fmt.Sprintf("g%02d", next(37))
			if err := tb.AppendRow(name, next(100_000)+1, group, next(1000), next(5000)+1, next(5000)+1); err != nil {
				t.Fatal(err)
			}
		}
	}

	for round := 0; round < 30; round++ {
		// Random batch sizes straddle block boundaries: empty batches,
		// sub-block, exactly one block, and multi-block appends.
		appendRows(next(150))
		if next(3) != 0 {
			tb.RefreshSkipIndex() // sometimes stale, sometimes fresh
		}
		for name, q := range equivQueries(tb, rt) {
			direct, err := ExecDirect(q)
			if err != nil {
				t.Fatalf("round %d %s direct: %v", round, name, err)
			}
			res, _, err := ExecDirectSkip(q)
			if err != nil {
				t.Fatalf("round %d %s direct-skip: %v", round, name, err)
			}
			if !res.Equal(direct) {
				t.Fatalf("round %d %s: direct-skip diverges (rows=%d, index rows=%d)",
					round, name, tb.NumRows(), tb.SkipIndex().Rows())
			}
			run, err := ExecCheetah(q, CheetahOptions{Workers: 2, Seed: uint64(round), Skip: true})
			if err != nil {
				t.Fatalf("round %d %s cheetah skip: %v", round, name, err)
			}
			if !run.Result.Equal(direct) {
				t.Fatalf("round %d %s: cheetah skip diverges", round, name)
			}
		}
	}
}
