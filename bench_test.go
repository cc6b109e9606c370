// Package cheetah_test holds the top-level benchmark harness: one
// testing.B per paper table/figure (each regenerates its rows/series at
// a reduced scale; use cmd/cheetah-bench -scale 1 for paper scale), plus
// end-to-end micro-benchmarks of the pruning hot path.
package cheetah_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"cheetah"
	"cheetah/internal/bench"
	"cheetah/internal/boolexpr"
	"cheetah/internal/prune"
	"cheetah/internal/workload"
)

// benchOpts keeps figure regeneration inside benchmark time budgets.
func benchOpts() bench.Options {
	return bench.Options{Scale: 200, Seeds: 2, BaseSeed: 0xbe}
}

func BenchmarkTable2Resources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Hardware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5CompletionTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig5(nil, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6ScaleAndWorkers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Fig6(nil, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7NetAccelDrain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig7(nil, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig8(nil, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9MasterLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig9(nil, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10aDistinct(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10a(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10bSkyline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10b(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10cTopN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10c(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10dGroupBy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10d(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10eJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10e(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10fHaving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10f(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11PruningVsScale(b *testing.B) {
	o := benchOpts()
	panels := []func(bench.Options) (*bench.Figure, error){
		bench.Fig11a, bench.Fig11b, bench.Fig11c,
		bench.Fig11d, bench.Fig11e, bench.Fig11f,
	}
	for i := 0; i < b.N; i++ {
		for _, f := range panels {
			if _, err := f(o); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- end-to-end micro-benchmarks over the public API ---

func buildUserVisits(b *testing.B, rows int) *cheetah.Table {
	b.Helper()
	uv, err := workload.UserVisits(workload.DefaultUserVisits(rows, 1))
	if err != nil {
		b.Fatal(err)
	}
	return uv
}

// benchExecCheetah runs q through ExecCheetah with the given path and
// reports entries/s; the fused (default) and batch (NoFuse) variants of
// each benchmark share it so the two paths are measurable in one build. Every iteration takes a new seed, so for the
// keyed kinds it is the cold query — the table's fingerprint column is
// hashed again under each seed; BenchmarkKeyedKindsWarm is the warm one.
func benchExecCheetah(b *testing.B, q *cheetah.Query, rows int, opts cheetah.CheetahOptions) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Workers, opts.Seed = 5, uint64(i)
		if _, err := cheetah.ExecCheetah(q, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "entries/s")
}

func distinct100kQuery(b *testing.B) *cheetah.Query {
	uv := buildUserVisits(b, 100_000)
	return &cheetah.Query{Kind: cheetah.KindDistinct, Table: uv, DistinctCols: []string{"userAgent"}}
}

func topN100kQuery(b *testing.B) *cheetah.Query {
	uv := buildUserVisits(b, 100_000)
	return &cheetah.Query{Kind: cheetah.KindTopN, Table: uv, OrderCol: "adRevenue", N: 250}
}

func filter100kQuery(b *testing.B) *cheetah.Query {
	uv := buildUserVisits(b, 100_000)
	return &cheetah.Query{
		Kind:  cheetah.KindFilter,
		Table: uv,
		Predicates: []cheetah.FilterPred{
			{Col: "adRevenue", Op: prune.OpGT, Const: 500_000},
			{Col: "duration", Op: prune.OpLE, Const: 120},
		},
		Formula:   boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}},
		CountOnly: true,
	}
}

func BenchmarkExecCheetahDistinct100k(b *testing.B) {
	benchExecCheetah(b, distinct100kQuery(b), 100_000, cheetah.CheetahOptions{})
}

func BenchmarkExecCheetahDistinct100kBatch(b *testing.B) {
	benchExecCheetah(b, distinct100kQuery(b), 100_000, cheetah.CheetahOptions{NoFuse: true})
}

func BenchmarkExecCheetahTopN100k(b *testing.B) {
	benchExecCheetah(b, topN100kQuery(b), 100_000, cheetah.CheetahOptions{})
}

func BenchmarkExecCheetahTopN100kBatch(b *testing.B) {
	benchExecCheetah(b, topN100kQuery(b), 100_000, cheetah.CheetahOptions{NoFuse: true})
}

func BenchmarkExecCheetahFilter100k(b *testing.B) {
	benchExecCheetah(b, filter100kQuery(b), 100_000, cheetah.CheetahOptions{})
}

func BenchmarkExecCheetahFilter100kBatch(b *testing.B) {
	benchExecCheetah(b, filter100kQuery(b), 100_000, cheetah.CheetahOptions{NoFuse: true})
}

func BenchmarkExecDirectDistinct100k(b *testing.B) {
	uv := buildUserVisits(b, 100_000)
	q := &cheetah.Query{Kind: cheetah.KindDistinct, Table: uv, DistinctCols: []string{"userAgent"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cheetah.ExecDirect(q); err != nil {
			b.Fatal(err)
		}
	}
}

// join100kQuery is visits ⋈ rankings on URL at the benchmark's shape: a
// quarter as many distinct URLs as visits, and rankings covering more
// URLs than are ever visited, so both Bloom passes have rows to prune.
func join100kQuery(b *testing.B) *cheetah.Query {
	uv := buildUserVisits(b, 100_000)
	return &cheetah.Query{
		Kind: cheetah.KindJoin, Table: uv, Right: workload.Rankings(60_000, 1),
		LeftKey: "destURL", RightKey: "pageURL",
	}
}

func BenchmarkExecCheetahJoin100k(b *testing.B) {
	benchExecCheetah(b, join100kQuery(b), 160_000, cheetah.CheetahOptions{})
}

func BenchmarkExecCheetahJoin100kBatch(b *testing.B) {
	benchExecCheetah(b, join100kQuery(b), 160_000, cheetah.CheetahOptions{NoFuse: true})
}

// BenchmarkExecShardedJoin100k is the same join scattered over two
// switches: key shards (lists of rows) memoised on the tables after the
// first iteration, each shard's pair counts written at the right table's
// key ids, rendered by the master in that dictionary's order.
func BenchmarkExecShardedJoin100k(b *testing.B) {
	q := join100kQuery(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cheetah.ExecSharded(q, cheetah.ShardedOptions{Shards: 2, Workers: 5, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(160_000*b.N)/b.Elapsed().Seconds(), "entries/s")
}

func BenchmarkExecDirectJoin100k(b *testing.B) {
	benchExecDirect(b, join100kQuery(b))
}

// BenchmarkExecShardedScaling runs GROUP BY SUM and SKYLINE over one
// 300k-row table on one switch and on two, alternating, and reports the
// two-switch wall over the one-switch wall. Each of two switches prunes
// half the table, so with two idle CPUs the ratio should sit near 0.5; a
// ratio near 1 or above means the shard passes contend for something —
// a cache line two switch programs share was the cause once.
func BenchmarkExecShardedScaling(b *testing.B) {
	uv := buildUserVisits(b, 300_000)
	for _, q := range []*cheetah.Query{
		{Kind: cheetah.KindGroupBySum, Table: uv, KeyCol: "countryCode", AggCol: "adRevenue"},
		{Kind: cheetah.KindSkyline, Table: uv, SkylineCols: []string{"adRevenue", "duration"}},
	} {
		b.Run(q.Kind.String(), func(b *testing.B) {
			var wall [3]time.Duration // by shard count
			run := func(k int) {
				start := time.Now()
				if _, err := cheetah.ExecSharded(q, cheetah.ShardedOptions{Shards: k, Workers: 1, Seed: 1}); err != nil {
					b.Fatal(err)
				}
				wall[k] += time.Since(start)
			}
			run(1) // the table's key fingerprint column, built once
			wall[1] = 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					run(1)
					run(2)
				} else {
					run(2)
					run(1)
				}
			}
			b.ReportMetric(float64(wall[1].Microseconds())/float64(b.N)/1e3, "k1-ms")
			b.ReportMetric(float64(wall[2].Microseconds())/float64(b.N)/1e3, "k2-ms")
			b.ReportMetric(float64(wall[2])/float64(wall[1]), "k2_over_k1")
		})
	}
}

// BenchmarkExecShardedAggCompletion runs DISTINCT and GROUP BY MAX over
// destURL — about 22 k distinct keys in 88 k rows — on one switch and on
// two: results that hold most of the key dictionary, so the master folds
// the id-keyed partials and renders them in k rank ranges side by side.
// The table's fingerprint column and key dictionary are built before the
// timer starts, as a warm session has them.
func BenchmarkExecShardedAggCompletion(b *testing.B) {
	uv := buildUserVisits(b, 88_000)
	for _, q := range []*cheetah.Query{
		{Kind: cheetah.KindDistinct, Table: uv, DistinctCols: []string{"destURL"}},
		{Kind: cheetah.KindGroupByMax, Table: uv, KeyCol: "destURL", AggCol: "adRevenue"},
	} {
		for _, k := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/k=%d", q.Kind, k), func(b *testing.B) {
				opts := cheetah.ShardedOptions{Shards: k, Workers: 2, Seed: 1}
				if _, err := cheetah.ExecSharded(q, opts); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := cheetah.ExecSharded(q, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// The aggregation kinds, keyed on userAgent: 8 192 Zipfian string keys
// behind a shared prefix, the shape on which the master's completion —
// fingerprint table, late key rendering, key-only sort — is the cost.
func agg100kQuery(b *testing.B, kind cheetah.QueryKind) *cheetah.Query {
	q := &cheetah.Query{Kind: kind, Table: buildUserVisits(b, 100_000), KeyCol: "userAgent", AggCol: "adRevenue"}
	if kind == cheetah.KindHaving {
		q.AggCol, q.Threshold = "duration", 100_000
	}
	return q
}

func benchExecDirect(b *testing.B, q *cheetah.Query) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cheetah.ExecDirect(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecCheetahHaving100k(b *testing.B) {
	benchExecCheetah(b, agg100kQuery(b, cheetah.KindHaving), 100_000, cheetah.CheetahOptions{})
}

func BenchmarkExecCheetahHaving100kBatch(b *testing.B) {
	benchExecCheetah(b, agg100kQuery(b, cheetah.KindHaving), 100_000, cheetah.CheetahOptions{NoFuse: true})
}

func BenchmarkExecDirectHaving100k(b *testing.B) {
	benchExecDirect(b, agg100kQuery(b, cheetah.KindHaving))
}

func BenchmarkExecCheetahGroupBySum100k(b *testing.B) {
	benchExecCheetah(b, agg100kQuery(b, cheetah.KindGroupBySum), 100_000, cheetah.CheetahOptions{})
}

func BenchmarkExecCheetahGroupBySum100kBatch(b *testing.B) {
	benchExecCheetah(b, agg100kQuery(b, cheetah.KindGroupBySum), 100_000, cheetah.CheetahOptions{NoFuse: true})
}

func BenchmarkExecDirectGroupBySum100k(b *testing.B) {
	benchExecDirect(b, agg100kQuery(b, cheetah.KindGroupBySum))
}

func BenchmarkExecCheetahGroupByMax100k(b *testing.B) {
	benchExecCheetah(b, agg100kQuery(b, cheetah.KindGroupByMax), 100_000, cheetah.CheetahOptions{})
}

func BenchmarkExecCheetahGroupByMax100kBatch(b *testing.B) {
	benchExecCheetah(b, agg100kQuery(b, cheetah.KindGroupByMax), 100_000, cheetah.CheetahOptions{NoFuse: true})
}

func BenchmarkExecDirectGroupByMax100k(b *testing.B) {
	benchExecDirect(b, agg100kQuery(b, cheetah.KindGroupByMax))
}

// BenchmarkKeyedKindsWarm runs DISTINCT, GROUP BY MAX, HAVING and JOIN —
// the first three over userAgent — twice per iteration under a seed the
// tables have not hashed under yet: the first round builds the tables' key
// fingerprint columns and key dictionaries (once per column — GROUP BY MAX
// and HAVING read what DISTINCT built), the second round only reads them.
// cold/warm is the whole point of the memos in one number: near 1 means a
// reader lost its hit and is hashing keys, or comparing them, per query
// again.
func BenchmarkKeyedKindsWarm(b *testing.B) {
	distinct := distinct100kQuery(b)
	having := agg100kQuery(b, cheetah.KindHaving)
	groupByMax := agg100kQuery(b, cheetah.KindGroupByMax)
	join := join100kQuery(b)
	having.Table, groupByMax.Table, join.Table = distinct.Table, distinct.Table, distinct.Table
	round := func(seed uint64) time.Duration {
		start := time.Now()
		for _, q := range []*cheetah.Query{distinct, groupByMax, having, join} {
			if _, err := cheetah.ExecCheetah(q, cheetah.CheetahOptions{Workers: 5, Seed: seed}); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	var cold, warm time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 1
		cold += round(seed)
		warm += round(seed)
	}
	b.ReportMetric(float64(cold.Nanoseconds())/float64(b.N), "cold-ns/op")
	b.ReportMetric(float64(warm.Nanoseconds())/float64(b.N), "warm-ns/op")
	b.ReportMetric(float64(cold)/float64(warm), "cold/warm")
}

// benchPlan plans q over and over on one session: what a served or
// subscribed query pays again on every repeat.
func benchPlan(b *testing.B, q *cheetah.Query) {
	b.Helper()
	db, err := cheetah.Open(q.Table, cheetah.SessionOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Plan(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanTopN(b *testing.B) {
	benchPlan(b, &cheetah.Query{Kind: cheetah.KindTopN, Table: buildUserVisits(b, 2_000), OrderCol: "adRevenue", N: 250})
}

func BenchmarkPlanSkyline(b *testing.B) {
	benchPlan(b, &cheetah.Query{Kind: cheetah.KindSkyline, Table: buildUserVisits(b, 2_000), SkylineCols: []string{"adRevenue", "duration"}})
}

// BenchmarkResultSort sorts a JOIN-shaped result: 79k two-column rows
// whose keys share a long prefix, shuffled.
func BenchmarkResultSort(b *testing.B) {
	const n = 79_000
	rows := make([][]string, n)
	for i := range rows {
		// A multiplicative permutation of the key space stands in for a
		// hash table's iteration order.
		k := i * 48_271 % n
		rows[i] = []string{fmt.Sprintf("url-%08d.example.com/page", k), fmt.Sprint(k%7 + 1)}
	}
	res := &cheetah.Result{Columns: []string{"destURL", "pairs"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Rows = append(res.Rows[:0], rows...)
		res.Sort()
	}
}

func BenchmarkPipelineSwitchProcess(b *testing.B) {
	pl, err := cheetah.NewPipeline(cheetah.Tofino())
	if err != nil {
		b.Fatal(err)
	}
	d, err := cheetah.NewDistinct(cheetah.DistinctConfig{Rows: 4096, Cols: 2, Policy: cheetah.LRU})
	if err != nil {
		b.Fatal(err)
	}
	if err := pl.Install(1, d); err != nil {
		b.Fatal(err)
	}
	vals := []uint64{0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals[0] = uint64(i % 65536)
		pl.Process(1, vals)
	}
}
