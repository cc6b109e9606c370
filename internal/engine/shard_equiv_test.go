package engine

import (
	"fmt"
	"strings"
	"testing"

	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
)

// TestShardedMatchesDirect is the scatter/gather equivalence suite: for
// every query kind, shard count and seed, the multi-switch execution
// must reproduce ExecDirect's result exactly — same rows, same order.
func TestShardedMatchesDirect(t *testing.T) {
	tb := equivTable(t, 5000, 0x5eed)
	rt := equivTable(t, 1777, 0x0dd)
	queries := withAggEdges(equivQueries(tb, rt))
	for name, q := range queries {
		direct, err := ExecDirect(q)
		if err != nil {
			t.Fatalf("%s direct: %v", name, err)
		}
		for _, shards := range []int{1, 2, 4, 7} {
			for _, seed := range []uint64{1, 0xfeed, 0xc0ffee} {
				run, err := ExecSharded(q, ShardedOptions{Shards: shards, Workers: 3, Seed: seed})
				if err != nil {
					t.Fatalf("%s shards=%d seed=%d: %v", name, shards, seed, err)
				}
				assertShardedRun(t, name, shards, run, direct)
			}
		}
	}
}

// assertShardedRun checks result equality (including row order) and the
// per-switch traffic bookkeeping of one sharded run.
func assertShardedRun(t *testing.T, name string, shards int, run *ShardedRun, direct *Result) {
	t.Helper()
	if !run.Result.Equal(direct) {
		t.Fatalf("%s shards=%d: results diverge\ndirect:\n%s\nsharded:\n%s", name, shards, direct, run.Result)
	}
	for i := range direct.Rows {
		for j := range direct.Rows[i] {
			if run.Result.Rows[i][j] != direct.Rows[i][j] {
				t.Fatalf("%s shards=%d: row order diverges at %d", name, shards, i)
			}
		}
	}
	if len(run.PerSwitch) != shards {
		t.Fatalf("%s: %d per-switch reports for %d shards", name, len(run.PerSwitch), shards)
	}
	var sum Traffic
	for _, tr := range run.PerSwitch {
		sum.EntriesSent += tr.EntriesSent
		sum.Forwarded += tr.Forwarded
		sum.SecondPassSent += tr.SecondPassSent
		sum.MasterProcessed += tr.MasterProcessed
	}
	if sum != run.Traffic {
		t.Fatalf("%s shards=%d: per-switch traffic does not sum to the aggregate: %+v vs %+v",
			name, shards, run.PerSwitch, run.Traffic)
	}
	if run.Stats.Processed == 0 && run.Traffic.EntriesSent > 0 {
		t.Fatalf("%s shards=%d: empty aggregate stats", name, shards)
	}
}

// TestSingleIsOneShard pins the pruned executor's shape: ExecCheetah is
// ExecSharded with one shard. Result, Traffic, Stats and SkipStats agree
// for every kind and edge case, on the fused loops and the chunked
// pipeline, with block skipping off and on over indexed tables, with the
// default program and a caller-supplied one.
func TestSingleIsOneShard(t *testing.T) {
	tb := equivTable(t, 6000, 0x51)
	rt := equivTable(t, 2000, 0x52)
	for _, x := range []*table.Table{tb, rt} {
		if err := x.BuildSkipIndex(128); err != nil {
			t.Fatal(err)
		}
	}
	queries := withAggEdges(equivQueries(tb, rt))
	for _, intKeys := range []bool{false, true} {
		for _, c := range joinEdgeCases() {
			queries[fmt.Sprintf("join-edge/%s/int=%v", c.name, intKeys)] = joinEdgeQuery(t, c, intKeys)
		}
	}
	const seed = 0xfeed
	for name, q := range queries {
		for _, noFuse := range []bool{false, true} {
			for _, skip := range []bool{false, true} {
				for _, supplied := range []bool{false, true} {
					label := fmt.Sprintf("%s noFuse=%v skip=%v supplied=%v", name, noFuse, skip, supplied)
					co := CheetahOptions{Workers: 3, Seed: seed, NoFuse: noFuse, Skip: skip}
					so := ShardedOptions{Shards: 1, Workers: 3, Seed: seed, NoFuse: noFuse, Skip: skip}
					if supplied {
						// Two programs of one configuration: each execution
						// needs fresh register state.
						var err error
						if co.Pruner, err = defaultShardPruner(q, 1, seed); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						p, err := defaultShardPruner(q, 1, seed)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						so.Pruners = []prune.Pruner{p}
					}
					single, err := ExecCheetah(q, co)
					if err != nil {
						t.Fatalf("%s single: %v", label, err)
					}
					sharded, err := ExecSharded(q, so)
					if err != nil {
						t.Fatalf("%s one shard: %v", label, err)
					}
					if !single.Result.Equal(sharded.Result) {
						t.Fatalf("%s: results diverge\nsingle:\n%s\none shard:\n%s", label, single.Result, sharded.Result)
					}
					if single.Traffic != sharded.Traffic {
						t.Fatalf("%s: traffic diverges\nsingle:    %+v\none shard: %+v", label, single.Traffic, sharded.Traffic)
					}
					if single.Stats != sharded.Stats || single.Skipped != sharded.Skipped || single.PrunerName != sharded.PrunerName {
						t.Fatalf("%s: stats %+v vs %+v, skipped %+v vs %+v, pruner %q vs %q", label,
							single.Stats, sharded.Stats, single.Skipped, sharded.Skipped, single.PrunerName, sharded.PrunerName)
					}
				}
			}
		}
	}
}

// TestShardedJoinEdgeCases scatters the degenerate JOIN shapes over 1, 2,
// 4 and 7 switches — more shards than some inputs have keys, so shards go
// empty on one side or both — on the fused and the batched shard pass,
// Skip on and off: the per-shard completions, each sorted in its shard and
// merged at the master (re-sorted whole when a key contains NUL), must
// equal ExecDirect row for row.
func TestShardedJoinEdgeCases(t *testing.T) {
	for _, intKeys := range []bool{false, true} {
		for _, c := range joinEdgeCases() {
			q := joinEdgeQuery(t, c, intKeys)
			direct, err := ExecDirect(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 4, 7} {
				for _, noFuse := range []bool{false, true} {
					for _, skip := range []bool{false, true} {
						run, err := ExecSharded(q, ShardedOptions{Shards: shards, Workers: 3, Seed: 7, NoFuse: noFuse, Skip: skip})
						if err != nil {
							t.Fatalf("%s int=%v shards=%d noFuse=%v skip=%v: %v", c.name, intKeys, shards, noFuse, skip, err)
						}
						assertShardedRun(t, fmt.Sprintf("%s int=%v noFuse=%v skip=%v", c.name, intKeys, noFuse, skip), shards, run, direct)
					}
				}
			}
		}
	}
}

// TestShardedJoinMemoFollowsMutations: a sharded JOIN leaves its key
// co-partition memoised on both inputs (table.ShardKeys), and the next one
// must not be answered from it once an input changed. Between two runs one
// input is appended to, shuffled or sorted: the second run equals
// ExecDirect on the mutated tables, rebuilt that input's co-partition and
// kept the other's — on the fused and the chunked pass.
func TestShardedJoinMemoFollowsMutations(t *testing.T) {
	const shards = 2
	extra := equivTable(t, 700, 0x73)
	for _, noFuse := range []bool{false, true} {
		tb := equivTable(t, 1500, 0x71)
		rt := equivTable(t, 600, 0x72)
		q := equivQueries(tb, rt)["join"]
		run := func(label string) (left, right [][]uint32) {
			t.Helper()
			direct, err := ExecDirect(q)
			if err != nil {
				t.Fatal(err)
			}
			run, err := ExecSharded(q, ShardedOptions{Shards: shards, Workers: 2, Seed: 7, NoFuse: noFuse})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertShardedRun(t, label, shards, run, direct)
			// What the run sharded on, read back as memo hits.
			if left, err = tb.ShardKeys(q.LeftKey, shards); err != nil {
				t.Fatal(err)
			}
			if right, err = rt.ShardKeys(q.RightKey, shards); err != nil {
				t.Fatal(err)
			}
			return left, right
		}
		for _, m := range []struct {
			name        string
			left, right bool // which input the mutation touches
			mutate      func() error
		}{
			{"nothing", false, false, func() error { return nil }},
			{"append-left", true, false, func() error { return tb.AppendRowsFrom(extra, allRows(extra)[:300]) }},
			{"append-right", false, true, func() error { return rt.AppendRowsFrom(extra, allRows(extra)[300:]) }},
			{"shuffle-left", true, false, func() error { return tb.Shuffle(5) }},
			{"shuffle-right", false, true, func() error { return rt.Shuffle(6) }},
			{"sort-left", true, false, func() error { return tb.SortByInt64("score") }},
			{"sort-right", false, true, func() error { return rt.SortByInt64("val") }},
		} {
			label := fmt.Sprintf("join after %s noFuse=%v", m.name, noFuse)
			l0, r0 := run(label + " (before)")
			if err := m.mutate(); err != nil {
				t.Fatal(err)
			}
			l1, r1 := run(label)
			if rebuilt := &l0[0] != &l1[0]; rebuilt != m.left {
				t.Fatalf("%s: left co-partition rebuilt=%v, want %v", label, rebuilt, m.left)
			}
			if rebuilt := &r0[0] != &r1[0]; rebuilt != m.right {
				t.Fatalf("%s: right co-partition rebuilt=%v, want %v", label, rebuilt, m.right)
			}
		}
	}
}

// TestShardedJoinOverViews: views and snapshots shard key-only per call —
// nothing is memoised for them — and join exactly like the tables they
// window.
func TestShardedJoinOverViews(t *testing.T) {
	tb := equivTable(t, 1500, 0x81)
	rt := equivTable(t, 600, 0x82)
	left, err := tb.SnapshotPrefix(1200)
	if err != nil {
		t.Fatal(err)
	}
	right, err := rt.View(50, 550)
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{Kind: KindJoin, Table: left, Right: right, LeftKey: "name", RightKey: "name"}
	direct, err := ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 2, 5} {
		for _, noFuse := range []bool{false, true} {
			run, err := ExecSharded(q, ShardedOptions{Shards: shards, Workers: 2, Seed: 3, NoFuse: noFuse})
			if err != nil {
				t.Fatal(err)
			}
			assertShardedRun(t, fmt.Sprintf("join over views noFuse=%v", noFuse), shards, run, direct)
		}
	}
}

// TestShardedPlannerPruners exercises the caller-supplied per-switch
// programs path (the planner's sizing) for the kinds needing concrete
// pruner types.
func TestShardedPlannerPruners(t *testing.T) {
	tb := equivTable(t, 2000, 0x111)
	rt := equivTable(t, 600, 0x222)
	const shards = 4
	queries := equivQueries(tb, rt)
	build := map[string]func() (prune.Pruner, error){
		"having": func() (prune.Pruner, error) {
			return prune.NewHaving(prune.DefaultHavingConfig(queries["having"].Threshold/shards, 9))
		},
		"join": func() (prune.Pruner, error) {
			return prune.NewJoin(prune.JoinConfig{FilterBits: 1 << 16, Hashes: 3, Seed: 9})
		},
		"groupby-sum": func() (prune.Pruner, error) {
			return prune.NewGroupBySum(prune.DefaultGroupBySumConfig(9))
		},
	}
	for name, mk := range build {
		q := queries[name]
		direct, err := ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		pruners := make([]prune.Pruner, shards)
		for i := range pruners {
			if pruners[i], err = mk(); err != nil {
				t.Fatal(err)
			}
		}
		run, err := ExecSharded(q, ShardedOptions{Shards: shards, Workers: 2, Seed: 9, Pruners: pruners})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !run.Result.Equal(direct) {
			t.Fatalf("%s with planner pruners: results diverge\ndirect:\n%s\nsharded:\n%s", name, direct, run.Result)
		}
	}
}

// TestShardedOptionValidation pins the descriptive error paths.
func TestShardedOptionValidation(t *testing.T) {
	tb := equivTable(t, 100, 1)
	rt := equivTable(t, 50, 2)
	queries := equivQueries(tb, rt)

	q := queries["distinct-string"]
	if _, err := ExecSharded(q, ShardedOptions{Shards: 4, Pruners: make([]prune.Pruner, 2)}); err == nil {
		t.Fatal("pruner/shard count mismatch: want error")
	}
	if _, err := ExecSharded(q, ShardedOptions{Shards: 2, Flows: make([]BatchDataplane, 2)}); err == nil {
		t.Fatal("flows without pruners: want error")
	}

	// Shards exceeding the row count still execute exactly.
	small := equivTable(t, 5, 3)
	qs := &Query{Kind: KindTopN, Table: small, OrderCol: "score", N: 3}
	direct, err := ExecDirect(qs)
	if err != nil {
		t.Fatal(err)
	}
	run, err := ExecSharded(qs, ShardedOptions{Shards: 9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !run.Result.Equal(direct) {
		t.Fatalf("shards > rows: results diverge\ndirect:\n%s\nsharded:\n%s", direct, run.Result)
	}
}

// TestShardedNilPrunerRejected pins the descriptive error for a partial
// pruner slice (a nil element must not reach a shard's dataplane).
func TestShardedNilPrunerRejected(t *testing.T) {
	tb := equivTable(t, 50, 1)
	q := &Query{Kind: KindDistinct, Table: tb, DistinctCols: []string{"name"}}
	good, err := DefaultPruner(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ExecSharded(q, ShardedOptions{Shards: 2, Pruners: []prune.Pruner{good, nil}})
	if err == nil || !strings.Contains(err.Error(), "nil pruner") {
		t.Fatalf("nil pruner element: got %v", err)
	}
}

// TestShardedStatsGolden pins a two-switch run's Stats and PerSwitch, on
// the fused loops and the chunked pipeline, to the numbers the programs
// reported when they still counted every entry in their own fields: the
// fused loops now count in locals and deposit once per span (AddStats),
// and nothing may be lost on the way. A scalar arm pins the per-entry
// reference's one-switch Traffic and Stats on the same queries.
// groupby-sum-evicting runs a matrix small enough that aggregates are
// evicted mid-stream.
func TestShardedStatsGolden(t *testing.T) {
	tb := equivTable(t, 5000, 0x5eed)
	rt := equivTable(t, 1777, 0x0dd)
	queries := equivQueries(tb, rt)
	queries["groupby-sum-evicting"] = queries["groupby-sum"]
	golden := []struct {
		name      string
		noFuse    bool
		stats     prune.Stats
		perSwitch []Traffic
	}{
		{"distinct-multi", false, prune.Stats{Processed: 5000, Pruned: 138}, []Traffic{{2500, 2429, 0, 2429}, {2500, 2433, 0, 2433}}},
		{"distinct-string", false, prune.Stats{Processed: 5000, Pruned: 3974}, []Traffic{{2500, 516, 0, 516}, {2500, 510, 0, 510}}},
		{"filter", false, prune.Stats{Processed: 5000, Pruned: 0}, []Traffic{{2500, 2500, 0, 2500}, {2500, 2500, 0, 2500}}},
		{"filter-count", false, prune.Stats{Processed: 5000, Pruned: 2957}, []Traffic{{2500, 1011, 0, 1011}, {2500, 1032, 0, 1032}}},
		{"groupby-max", false, prune.Stats{Processed: 5000, Pruned: 4625}, []Traffic{{2500, 184, 0, 184}, {2500, 191, 0, 191}}},
		{"groupby-sum", false, prune.Stats{Processed: 5000, Pruned: 5000}, []Traffic{{2500, 37, 0, 37}, {2500, 37, 0, 37}}},
		{"groupby-sum-evicting", false, prune.Stats{Processed: 5000, Pruned: 1054}, []Traffic{{2500, 1969, 0, 37}, {2500, 1993, 0, 37}}},
		{"having", false, prune.Stats{Processed: 5000, Pruned: 1659}, []Traffic{{4987, 1683, 2487, 2487}, {4993, 1658, 2493, 2493}}},
		{"join", false, prune.Stats{Processed: 13554, Pruned: 6934}, []Traffic{{6688, 3286, 0, 3286}, {6866, 3334, 0, 3334}}},
		{"skyline", false, prune.Stats{Processed: 5000, Pruned: 4819}, []Traffic{{2500, 104, 0, 104}, {2500, 97, 0, 97}}},
		{"topn", false, prune.Stats{Processed: 5000, Pruned: 6}, []Traffic{{2500, 2497, 0, 2497}, {2500, 2497, 0, 2497}}},
		{"distinct-multi", true, prune.Stats{Processed: 5000, Pruned: 138}, []Traffic{{2500, 2429, 0, 2429}, {2500, 2433, 0, 2433}}},
		{"distinct-string", true, prune.Stats{Processed: 5000, Pruned: 3974}, []Traffic{{2500, 516, 0, 516}, {2500, 510, 0, 510}}},
		{"filter", true, prune.Stats{Processed: 5000, Pruned: 0}, []Traffic{{2500, 2500, 0, 2500}, {2500, 2500, 0, 2500}}},
		{"filter-count", true, prune.Stats{Processed: 5000, Pruned: 2957}, []Traffic{{2500, 1011, 0, 1011}, {2500, 1032, 0, 1032}}},
		{"groupby-max", true, prune.Stats{Processed: 5000, Pruned: 4625}, []Traffic{{2500, 184, 0, 184}, {2500, 191, 0, 191}}},
		{"groupby-sum", true, prune.Stats{Processed: 5000, Pruned: 5000}, []Traffic{{2500, 37, 0, 37}, {2500, 37, 0, 37}}},
		{"groupby-sum-evicting", true, prune.Stats{Processed: 5000, Pruned: 1054}, []Traffic{{2500, 1969, 0, 37}, {2500, 1993, 0, 37}}},
		{"having", true, prune.Stats{Processed: 5000, Pruned: 1659}, []Traffic{{4987, 1683, 2487, 2487}, {4993, 1658, 2493, 2493}}},
		{"join", true, prune.Stats{Processed: 13554, Pruned: 6934}, []Traffic{{6688, 3286, 0, 3286}, {6866, 3334, 0, 3334}}},
		{"skyline", true, prune.Stats{Processed: 5000, Pruned: 4819}, []Traffic{{2500, 104, 0, 104}, {2500, 97, 0, 97}}},
		{"topn", true, prune.Stats{Processed: 5000, Pruned: 5}, []Traffic{{2500, 2498, 0, 2498}, {2500, 2497, 0, 2497}}},
	}
	evicting := func(name string) prune.Pruner {
		if name != "groupby-sum-evicting" {
			return nil
		}
		p, err := prune.NewGroupBySum(prune.GroupBySumConfig{Rows: 2, Cols: 4, Seed: 0xfeed})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, g := range golden {
		opts := ShardedOptions{Shards: 2, Workers: 3, Seed: 0xfeed, NoFuse: g.noFuse}
		if p := evicting(g.name); p != nil {
			opts.Pruners = []prune.Pruner{p, evicting(g.name)}
		}
		run, err := ExecSharded(queries[g.name], opts)
		if err != nil {
			t.Fatalf("%s noFuse=%v: %v", g.name, g.noFuse, err)
		}
		if run.Stats != g.stats || fmt.Sprint(run.PerSwitch) != fmt.Sprint(g.perSwitch) {
			t.Errorf("%s noFuse=%v: stats %+v per switch %v, want %+v %v",
				g.name, g.noFuse, run.Stats, run.PerSwitch, g.stats, g.perSwitch)
		}
	}
	// The scalar reference at one switch, on the same queries: its
	// Traffic and Stats are what the equivalence suites compare the
	// chunked and fused passes against, so no rewrite of its loop may
	// move them.
	scalar := []struct {
		name    string
		stats   prune.Stats
		traffic Traffic
	}{
		{"distinct-multi", prune.Stats{Processed: 5000, Pruned: 276}, Traffic{5000, 4724, 0, 4724}},
		{"distinct-string", prune.Stats{Processed: 5000, Pruned: 4450}, Traffic{5000, 550, 0, 550}},
		{"filter", prune.Stats{Processed: 5000, Pruned: 0}, Traffic{5000, 5000, 0, 5000}},
		{"filter-count", prune.Stats{Processed: 5000, Pruned: 2957}, Traffic{5000, 2043, 0, 2043}},
		{"groupby-max", prune.Stats{Processed: 5000, Pruned: 4804}, Traffic{5000, 196, 0, 196}},
		{"groupby-sum", prune.Stats{Processed: 5000, Pruned: 5000}, Traffic{5000, 37, 0, 37}},
		{"groupby-sum-evicting", prune.Stats{Processed: 5000, Pruned: 1036}, Traffic{5000, 3972, 0, 37}},
		{"having", prune.Stats{Processed: 5000, Pruned: 1803}, Traffic{9926, 3197, 4926, 4926}},
		{"join", prune.Stats{Processed: 13554, Pruned: 6934}, Traffic{13554, 6620, 0, 6620}},
		{"skyline", prune.Stats{Processed: 5000, Pruned: 4883}, Traffic{5000, 127, 0, 127}},
		{"topn", prune.Stats{Processed: 5000, Pruned: 71}, Traffic{5000, 4929, 0, 4929}},
	}
	for _, g := range scalar {
		opts := CheetahOptions{Workers: 3, Seed: 0xfeed, Pruner: evicting(g.name)}
		run, err := scalarRef(queries[g.name], opts)
		if err != nil {
			t.Fatalf("%s scalar: %v", g.name, err)
		}
		if run.Stats != g.stats || fmt.Sprint(run.PerSwitch) != fmt.Sprint([]Traffic{g.traffic}) {
			t.Errorf("%s scalar: stats %+v per switch %v, want %+v [%v]",
				g.name, run.Stats, run.PerSwitch, g.stats, g.traffic)
		}
	}
}

// panicPruner is a third-party program — the passes stream it through the
// chunked pipeline, which calls Process per entry — that panics in its
// 300th entry, mid-stream: past the first 256-entry chunk.
type panicPruner struct {
	prune.Pruner
	entries int
}

func (p *panicPruner) Process(vals []uint64) switchsim.Decision {
	if p.entries++; p.entries == 300 {
		panic("test: program fault")
	}
	return p.Pruner.Process(vals)
}

// TestShardPanicIsQueryError: a program that panics in a shard's pass
// costs that query an error naming the shard and its stack, on the inline
// one-shard path and in a shard goroutine alike — and the process lives
// on to run the next query.
func TestShardPanicIsQueryError(t *testing.T) {
	tb := equivTable(t, 3000, 0x99)
	q := equivQueries(tb, nil)["distinct-string"]
	defer func(n int) { chunkEntries = n }(chunkEntries)
	chunkEntries = 256
	for _, shards := range []int{1, 2} {
		pruners := make([]prune.Pruner, shards)
		for s := range pruners {
			p, err := defaultShardPruner(q, shards, 1)
			if err != nil {
				t.Fatal(err)
			}
			pruners[s] = &panicPruner{Pruner: p}
		}
		_, err := ExecSharded(q, ShardedOptions{Shards: shards, Seed: 1, Pruners: pruners})
		if err == nil || !strings.Contains(err.Error(), "panicked: test: program fault") ||
			!strings.Contains(err.Error(), "panicPruner") {
			t.Fatalf("shards=%d: got %v, want the shard's panic with its stack", shards, err)
		}
		if !strings.HasPrefix(err.Error(), "engine: shard ") {
			t.Fatalf("shards=%d: error %q does not name the shard", shards, err)
		}
		direct, err := ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		run, err := ExecSharded(q, ShardedOptions{Shards: shards, Seed: 1})
		if err != nil {
			t.Fatalf("shards=%d: the query after the panic: %v", shards, err)
		}
		assertShardedRun(t, "after panic", shards, run, direct)
	}
}
