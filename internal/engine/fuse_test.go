package engine

import (
	"fmt"
	"testing"

	"cheetah/internal/boolexpr"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
)

// This file is the fused-vs-batched equivalence suite (the fused-vs-
// scalar oracle composes transitively through batch_equiv_test.go's
// batch-vs-scalar suite). The contract under test: the fused compiler
// produces bit-identical Results for every kind, and bit-identical
// Traffic and Stats for every kind except randomized TOP N, whose
// counter-indexed RNG draws different (equally sound) prune decisions
// than the scalar chain. The streaming-delta leg lives in
// internal/stream's incremental suite, which drives ExecCheetah with
// default options and therefore the fused path.

// fusedTrafficExempt marks the kinds whose Traffic/Stats may diverge
// between the fused and batched paths.
func fusedTrafficExempt(name string) bool { return name == "topn" }

func TestFusedMatchesBatchExec(t *testing.T) {
	tb := equivTable(t, 4000, 0x5eed)
	rt := equivTable(t, 1500, 0x0dd)
	for name, q := range withAggEdges(equivQueries(tb, rt)) {
		for _, workers := range []int{1, 3, 5} {
			for _, seed := range []uint64{1, 0xfeed, 42} {
				fused, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: seed})
				if err != nil {
					t.Fatalf("%s w=%d seed=%d fused: %v", name, workers, seed, err)
				}
				batch, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: seed, NoFuse: true})
				if err != nil {
					t.Fatalf("%s w=%d seed=%d batch: %v", name, workers, seed, err)
				}
				if fused.PrunerName != batch.PrunerName {
					t.Fatalf("%s w=%d seed=%d: pruner name %q vs %q", name, workers, seed, fused.PrunerName, batch.PrunerName)
				}
				if !fusedTrafficExempt(name) {
					if fused.Traffic != batch.Traffic {
						t.Fatalf("%s w=%d seed=%d: traffic diverges\nbatch: %+v\nfused: %+v", name, workers, seed, batch.Traffic, fused.Traffic)
					}
					if fused.Stats != batch.Stats {
						t.Fatalf("%s w=%d seed=%d: stats diverge\nbatch: %+v\nfused: %+v", name, workers, seed, batch.Stats, fused.Stats)
					}
				}
				if !fused.Result.Equal(batch.Result) {
					t.Fatalf("%s w=%d seed=%d: results diverge\nbatch:\n%s\nfused:\n%s", name, workers, seed, batch.Result, fused.Result)
				}
				for i := range batch.Result.Rows {
					for j := range batch.Result.Rows[i] {
						if batch.Result.Rows[i][j] != fused.Result.Rows[i][j] {
							t.Fatalf("%s w=%d seed=%d: row %d cell %d: %q vs %q",
								name, workers, seed, i, j, batch.Result.Rows[i][j], fused.Result.Rows[i][j])
						}
					}
				}
			}
		}
	}
}

func TestFusedMatchesDirect(t *testing.T) {
	tb := equivTable(t, 4000, 0x71)
	rt := equivTable(t, 1500, 0x72)
	for name, q := range withAggEdges(equivQueries(tb, rt)) {
		fused, err := ExecCheetah(q, CheetahOptions{Workers: 4, Seed: 0xfeed})
		if err != nil {
			t.Fatalf("%s fused: %v", name, err)
		}
		direct, err := ExecDirect(q)
		if err != nil {
			t.Fatalf("%s direct: %v", name, err)
		}
		if !fused.Result.Equal(direct) {
			t.Fatalf("%s: fused result wrong vs direct\ndirect:\n%s\nfused:\n%s", name, direct, fused.Result)
		}
	}
}

// TestFusedSharded runs the scatter/gather fabric with and without the
// fused per-shard kernels: identical Results everywhere, identical
// per-switch Traffic except randomized TOP N.
func TestFusedSharded(t *testing.T) {
	tb := equivTable(t, 4000, 0x81)
	rt := equivTable(t, 1500, 0x82)
	for name, q := range withAggEdges(equivQueries(tb, rt)) {
		for _, shards := range []int{2, 4} {
			fused, err := ExecSharded(q, ShardedOptions{Shards: shards, Workers: 3, Seed: 0xfeed})
			if err != nil {
				t.Fatalf("%s shards=%d fused: %v", name, shards, err)
			}
			batch, err := ExecSharded(q, ShardedOptions{Shards: shards, Workers: 3, Seed: 0xfeed, NoFuse: true})
			if err != nil {
				t.Fatalf("%s shards=%d batch: %v", name, shards, err)
			}
			if !fused.Result.Equal(batch.Result) {
				t.Fatalf("%s shards=%d: results diverge\nbatch:\n%s\nfused:\n%s", name, shards, batch.Result, fused.Result)
			}
			if !fusedTrafficExempt(name) {
				if fused.Traffic != batch.Traffic {
					t.Fatalf("%s shards=%d: traffic diverges\nbatch: %+v\nfused: %+v", name, shards, batch.Traffic, fused.Traffic)
				}
				if fused.Stats != batch.Stats {
					t.Fatalf("%s shards=%d: stats diverge\nbatch: %+v\nfused: %+v", name, shards, batch.Stats, fused.Stats)
				}
				for s := range fused.PerSwitch {
					if fused.PerSwitch[s] != batch.PerSwitch[s] {
						t.Fatalf("%s shards=%d: switch %d traffic diverges\nbatch: %+v\nfused: %+v",
							name, shards, s, batch.PerSwitch[s], fused.PerSwitch[s])
					}
				}
			}
			direct, err := ExecDirect(q)
			if err != nil {
				t.Fatal(err)
			}
			if !fused.Result.Equal(direct) {
				t.Fatalf("%s shards=%d: fused sharded result wrong vs direct", name, shards)
			}
		}
	}
}

// TestFusedSkip checks the fused loops compose with block skipping for
// the kinds with a sound block bound: same Results with and without
// Skip, and the fused skip stats match the batched path's.
func TestFusedSkip(t *testing.T) {
	tb := equivTable(t, 4096, 0x91)
	rt := equivTable(t, 1536, 0x92)
	if err := tb.BuildSkipIndex(128); err != nil {
		t.Fatal(err)
	}
	if err := rt.BuildSkipIndex(128); err != nil {
		t.Fatal(err)
	}
	queries := equivQueries(tb, rt)
	for _, name := range []string{"filter", "filter-count", "topn", "join"} {
		q := queries[name]
		skip, err := ExecCheetah(q, CheetahOptions{Workers: 3, Seed: 7, Skip: true})
		if err != nil {
			t.Fatalf("%s skip: %v", name, err)
		}
		plain, err := ExecCheetah(q, CheetahOptions{Workers: 3, Seed: 7})
		if err != nil {
			t.Fatalf("%s plain: %v", name, err)
		}
		if !skip.Result.Equal(plain.Result) {
			t.Fatalf("%s: skip changes fused result\nplain:\n%s\nskip:\n%s", name, plain.Result, skip.Result)
		}
		batchSkip, err := ExecCheetah(q, CheetahOptions{Workers: 3, Seed: 7, Skip: true, NoFuse: true})
		if err != nil {
			t.Fatalf("%s batch skip: %v", name, err)
		}
		if !skip.Result.Equal(batchSkip.Result) {
			t.Fatalf("%s: fused+skip result diverges from batch+skip", name)
		}
		if !fusedTrafficExempt(name) && skip.Skipped != batchSkip.Skipped {
			t.Fatalf("%s: skip stats diverge: batch %+v fused %+v", name, batchSkip.Skipped, skip.Skipped)
		}
	}
}

// TestFusedCustomPrunerFilter: a caller-supplied switch-resident filter
// program fuses too (the gate accepts any directly driven concrete
// pruner), and false positives still hit the master's exact re-check.
func TestFusedCustomPrunerFilter(t *testing.T) {
	tb := equivTable(t, 3000, 0x61)
	q := &Query{
		Kind:  KindFilter,
		Table: tb,
		Predicates: []FilterPred{
			{Col: "score", Op: prune.OpGT, Const: 50_000},
			{Col: "val", Op: prune.OpLT, Const: 500},
		},
		Formula: boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}},
	}
	mk := func() prune.Pruner {
		f, err := prune.NewFilter(prune.FilterConfig{
			Predicates: []prune.Predicate{{ValIdx: 0, Op: prune.OpGT, Const: 50_000}},
			Formula:    boolexpr.Leaf{V: 0},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	fused, err := ExecCheetah(q, CheetahOptions{Workers: 3, Seed: 5, Pruner: mk()})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ExecCheetah(q, CheetahOptions{Workers: 3, Seed: 5, Pruner: mk(), NoFuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if fused.Traffic != batch.Traffic || fused.Stats != batch.Stats || !fused.Result.Equal(batch.Result) {
		t.Fatalf("custom-pruner filter diverges\nbatch: %+v\nfused: %+v", batch.Traffic, fused.Traffic)
	}
}

// TestFusedComparisonOnLikeColumn: a caller-built filter may compare a
// LIKE column's wire value — its 0/1 match bit — instead of reading it as
// a precomputed bit. Every operator against 0 and against 1 forwards the
// same rows fused as chunked, and the master's re-check gives ExecDirect's
// rows: the switch ORs the comparison with the query's other predicate,
// so it forwards a superset of what the query's AND accepts.
func TestFusedComparisonOnLikeColumn(t *testing.T) {
	tb := equivTable(t, 3000, 0x61)
	q := &Query{
		Kind:  KindFilter,
		Table: tb,
		Predicates: []FilterPred{
			{Col: "name", Like: "user0%"},
			{Col: "val", Op: prune.OpLT, Const: 500},
		},
		Formula: boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}},
	}
	want, err := ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []prune.CmpOp{prune.OpGT, prune.OpGE, prune.OpLT, prune.OpLE, prune.OpEQ, prune.OpNE} {
		for _, c := range []int64{0, 1} {
			mk := func() prune.Pruner {
				f, err := prune.NewFilter(prune.FilterConfig{
					Predicates: []prune.Predicate{{ValIdx: 0, Op: op, Const: c}, {ValIdx: 1, Op: prune.OpLT, Const: 500}},
					Formula:    boolexpr.Or{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}},
				})
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			fused, err := ExecCheetah(q, CheetahOptions{Workers: 3, Seed: 5, Pruner: mk()})
			if err != nil {
				t.Fatal(err)
			}
			batch, err := ExecCheetah(q, CheetahOptions{Workers: 3, Seed: 5, Pruner: mk(), NoFuse: true})
			if err != nil {
				t.Fatal(err)
			}
			if fused.Traffic != batch.Traffic || fused.Stats != batch.Stats {
				t.Fatalf("bit %v %d: fused and chunked diverge\nbatch: %+v %+v\nfused: %+v %+v",
					op, c, batch.Traffic, batch.Stats, fused.Traffic, fused.Stats)
			}
			for path, run := range map[string]*ShardedRun{"fused": fused, "chunked": batch} {
				if !run.Result.Equal(want) {
					t.Fatalf("bit %v %d %s: diverges from ExecDirect\nwant:\n%s\ngot:\n%s", op, c, path, want, run.Result)
				}
			}
		}
	}
}

// exactnessFilters returns caller-built switch programs for q (two
// comparison predicates under AND) by name, with whether each one is the
// query's exact filter.
func exactnessFilters(t *testing.T, q *Query) map[string]struct {
	cfg   prune.FilterConfig
	exact bool
} {
	t.Helper()
	p0 := prune.Predicate{ValIdx: 0, Op: q.Predicates[0].Op, Const: q.Predicates[0].Const}
	p1 := prune.Predicate{ValIdx: 1, Op: q.Predicates[1].Op, Const: q.Predicates[1].Const}
	looser := p1
	looser.Const += 200 // val < c+200 forwards a superset of val < c
	and := boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}}
	return map[string]struct {
		cfg   prune.FilterConfig
		exact bool
	}{
		"same-spec":       {prune.FilterConfig{Predicates: []prune.Predicate{p0, p1}, Formula: and}, true},
		"looser-constant": {prune.FilterConfig{Predicates: []prune.Predicate{p0, looser}, Formula: and}, false},
		"weaker-formula":  {prune.FilterConfig{Predicates: []prune.Predicate{p0, p1}, Formula: boolexpr.Leaf{V: 0}}, false},
		"swapped-predicates": {prune.FilterConfig{Predicates: []prune.Predicate{p1, p0},
			Formula: boolexpr.And{boolexpr.Leaf{V: 1}, boolexpr.Leaf{V: 0}}}, false},
	}
}

// TestFilterExactnessGate: the master recheck is dropped only for a
// supplied filter whose compiled spec equals the query's own; a program
// with other constants or another formula — even an equivalent one —
// forwards false positives or cannot be told apart from one that does,
// so it is rechecked, and every path still equals ExecDirect.
func TestFilterExactnessGate(t *testing.T) {
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
		direct, err := ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		matches := len(direct.Rows)
		if countOnly {
			if _, err := fmt.Sscan(direct.Rows[0][0], &matches); err != nil {
				t.Fatal(err)
			}
		}
		for name, tc := range exactnessFilters(t, q) {
			mk := func() prune.Pruner {
				f, err := prune.NewFilter(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			if got := filterExact(q, mk()); got != tc.exact {
				t.Fatalf("%s: filterExact = %v, want %v", name, got, tc.exact)
			}
			for _, noFuse := range []bool{false, true} {
				label := fmt.Sprintf("%s countOnly=%v noFuse=%v", name, countOnly, noFuse)
				run, err := ExecCheetah(q, CheetahOptions{Workers: 3, Seed: 5, Pruner: mk(), NoFuse: noFuse})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !run.Result.Equal(direct) {
					t.Fatalf("%s: result wrong vs direct\ndirect:\n%s\ngot:\n%s", label, direct, run.Result)
				}
				if !tc.exact && name != "swapped-predicates" && run.Traffic.Forwarded <= matches {
					t.Fatalf("%s: forwarded %d ≤ %d true matches; the recheck was not exercised", label, run.Traffic.Forwarded, matches)
				}
				sharded, err := ExecSharded(q, ShardedOptions{
					Shards: 2, Workers: 3, Seed: 5, NoFuse: noFuse, Pruners: []prune.Pruner{mk(), mk()},
				})
				if err != nil {
					t.Fatalf("%s sharded: %v", label, err)
				}
				if !sharded.Result.Equal(direct) {
					t.Fatalf("%s: sharded result wrong vs direct\ndirect:\n%s\ngot:\n%s", label, direct, sharded.Result)
				}
			}
		}
	}
}

// supersetDP runs its program and then forwards every third entry the
// program pruned too, as a rack forwards the retransmission of a packet
// its switch already pruned; it declines the FusedProgram probe.
type supersetDP struct{ prog switchsim.Program }

func (d supersetDP) ProcessBatch(b *switchsim.Batch, dec []switchsim.Decision) {
	switchsim.ProcessBatchOf(d.prog, b, dec)
	for j := 0; j < b.N; j += 3 {
		dec[j] = switchsim.Forward
	}
}

// TestSupersetDataplaneKeepsFilterExact: a dataplane that forwards more
// than its program decides gets the master recheck even when its program
// is the query's own filter — at every width, counting or collecting.
func TestSupersetDataplaneKeepsFilterExact(t *testing.T) {
	tb := equivTable(t, 3000, 0x62)
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
		direct, err := ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2} {
			progs := make([]prune.Pruner, k)
			flows := make([]BatchDataplane, k)
			for i := range progs {
				p, err := DefaultPruner(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				progs[i], flows[i] = p, supersetDP{prog: p}
			}
			run, err := ExecSharded(q, ShardedOptions{Shards: k, Workers: 3, Seed: 5, Pruners: progs, Flows: flows})
			if err != nil {
				t.Fatal(err)
			}
			if !run.Result.Equal(direct) {
				t.Fatalf("countOnly=%v k=%d: a superset dataplane's forwards were taken for the answer\ndirect:\n%s\ngot:\n%s",
					countOnly, k, direct, run.Result)
			}
		}
	}
}

// TestFusedTopNDeterminism: the counter RNG is a pure function of (seed,
// position), so repeated fused runs are bit-identical in Result, Traffic
// and Stats.
func TestFusedTopNDeterminism(t *testing.T) {
	tb := equivTable(t, 5003, 0xa1)
	q := &Query{Kind: KindTopN, Table: tb, OrderCol: "score", N: 25}
	for _, seed := range []uint64{1, 0xfeed} {
		a, err := ExecCheetah(q, CheetahOptions{Workers: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ExecCheetah(q, CheetahOptions{Workers: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if a.Traffic != b.Traffic || a.Stats != b.Stats || !a.Result.Equal(b.Result) {
			t.Fatalf("seed=%d: fused TOP N not deterministic: %+v vs %+v", seed, a.Traffic, b.Traffic)
		}
		direct, err := ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Result.Equal(direct) {
			t.Fatalf("seed=%d: fused TOP N result wrong vs direct", seed)
		}
	}
}

// TestFusedRandStatePosition pins the counter-stream bookkeeping: a
// standing program consumes one contiguous stream across passes
// (deltas), and Reset rewinds it with the rest of the pruner state.
func TestFusedRandStatePosition(t *testing.T) {
	p, err := prune.NewRandTopN(prune.RandTopNConfig{N: 10, Rows: 4096, Cols: 2, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, pos := p.FusedRandState(100); pos != 0 {
		t.Fatalf("fresh pruner stream starts at %d, want 0", pos)
	}
	if _, _, _, pos := p.FusedRandState(7); pos != 100 {
		t.Fatalf("second pass starts at %d, want 100", pos)
	}
	_, d, base, pos := p.FusedRandState(1)
	if pos != 107 {
		t.Fatalf("third pass starts at %d, want 107", pos)
	}
	if d == 0 {
		t.Fatal("row modulus is 0")
	}
	p.Reset()
	_, d2, base2, pos2 := p.FusedRandState(1)
	if pos2 != 0 {
		t.Fatalf("stream position after Reset is %d, want 0", pos2)
	}
	if d2 != d || base2 != base {
		t.Fatalf("Reset changed the stream parameters: d %d→%d base %#x→%#x", d, d2, base, base2)
	}
}
