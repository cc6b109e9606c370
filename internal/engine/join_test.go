package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cheetah/internal/hashutil"
	"cheetah/internal/obs"
	"cheetah/internal/prune"
	"cheetah/internal/sketch"
	"cheetah/internal/table"
)

// joinKeyTable builds a table of a key column "name" (String, or Int64
// with intKeys) and a payload column, whose row i carries key keys[i] —
// words[keys[i]] or ints[keys[i]] when the case spells its keys out.
func joinKeyTable(t *testing.T, intKeys bool, keys []int, words []string, ints ...int64) *table.Table {
	t.Helper()
	schema := table.Schema{{Name: "name", Type: table.String}, {Name: "pay", Type: table.Int64}}
	if intKeys {
		schema[0].Type = table.Int64
	}
	tb := table.MustNew(schema)
	for i, k := range keys {
		var key any = fmt.Sprintf("user%04d", k)
		if intKeys && ints != nil {
			key = ints[k]
		} else if intKeys {
			key = int64(k)
		} else if words != nil {
			key = words[k]
		}
		if err := tb.AppendRow(key, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// seqKeys returns n keys cycling through [base, base+distinct).
func seqKeys(n, base, distinct int) []int {
	keys := make([]int, n)
	for i := range keys {
		keys[i] = base + (i*7)%distinct
	}
	return keys
}

// joinEdgeCase is one degenerate JOIN input shape. words and ints, when
// set, spell out the string and the integer form of keys
// 0..len(words)-1 (distinct values, so integer and string keys join
// alike).
type joinEdgeCase struct {
	name        string
	left, right []int
	words       []string
	ints        []int64
}

// joinEdgeCases are the shapes where a completion is likeliest to slip:
// an empty side, no common key, every row on one key, the planner's
// asymmetric shape (left·8 ≤ right) — and string keys whose canonical
// order is where a completion that renders in key order can go wrong: the
// empty key, keys that are prefixes of one another, and NUL inside keys,
// where the canonical (joined-key) order is not the cell-wise one
// ("a\x00" sorts before "a" once the pair count follows it).
func joinEdgeCases() []joinEdgeCase {
	return []joinEdgeCase{
		{name: "empty-left", right: seqKeys(300, 0, 40)},
		{name: "empty-right", left: seqKeys(300, 0, 40)},
		{name: "both-empty"},
		{name: "no-common-key", left: seqKeys(400, 0, 50), right: seqKeys(300, 1000, 60)},
		{name: "one-key", left: seqKeys(350, 7, 1), right: seqKeys(90, 7, 1)},
		{name: "small-left", left: seqKeys(60, 20, 30), right: seqKeys(900, 0, 200)},
		{name: "partial-overlap", left: seqKeys(700, 0, 120), right: seqKeys(500, 80, 150)},
		{name: "prefix-keys", left: seqKeys(90, 0, 7), right: seqKeys(60, 0, 7),
			words: []string{"", "a", "ab", "abc", "b", "a b", "aa"}},
		{name: "nul-keys", left: seqKeys(120, 0, 9), right: seqKeys(70, 0, 9),
			words: []string{"", "a", "a\x00", "a\x00b", "ab", "\x00", "\x00a", "b", "a\x00\x00"}},
		{name: "one-nul-key", left: seqKeys(200, 0, 24), right: seqKeys(150, 0, 24),
			words: nulAmong(24)},
		{name: "int-extremes", left: seqKeys(90, 0, 7), right: seqKeys(60, 0, 7),
			words: []string{"-9223372036854775808", "9223372036854775807", "0", "-1", "-10", "9", "10"},
			ints:  []int64{math.MinInt64, math.MaxInt64, 0, -1, -10, 9, 10}},
	}
}

// nulAmong spells n keys of which exactly one contains NUL, so that at
// several shards most shards' keys are cell-wise and one shard's are not.
func nulAmong(n int) []string {
	words := make([]string, n)
	for i := range words {
		words[i] = fmt.Sprintf("k%02d", i)
	}
	words[n/2] = "k0\x005"
	return words
}

// joinEdgeQuery binds an edge case to tables, the right one carrying a
// skip index of several blocks so Skip has something to decide.
func joinEdgeQuery(t *testing.T, c joinEdgeCase, intKeys bool) *Query {
	t.Helper()
	right := joinKeyTable(t, intKeys, c.right, c.words, c.ints...)
	if err := right.BuildSkipIndex(64); err != nil {
		t.Fatal(err)
	}
	return &Query{
		Kind: KindJoin, Table: joinKeyTable(t, intKeys, c.left, c.words, c.ints...), Right: right,
		LeftKey: "name", RightKey: "name",
	}
}

// TestCompleteJoinCollisions hands a one-shard pass's pair counts
// (pairCounts) and completeJoin fingerprints that collide — all equal,
// pairwise equal, and honest — and requires execJoin's answer each time: the fingerprint may only preselect, the
// key cells decide. The fingerprints are forced into both tables'
// fingerprint columns before anything reads them, so the key
// dictionaries and the key map between them are built from them: keys
// that share a forced fingerprint stay distinct keys, as they must.
func TestCompleteJoinCollisions(t *testing.T) {
	fingerprints := map[string]func(key int) uint64{
		"all-equal": func(int) uint64 { return 7 },
		"pairwise":  func(key int) uint64 { return hashutil.Mix64(uint64(key / 2)) },
		"low-bits":  func(key int) uint64 { return uint64(key) << 40 },
		"honest":    func(key int) uint64 { return hashutil.Mix64(uint64(key)) },
	}
	for _, intKeys := range []bool{false, true} {
		for _, c := range joinEdgeCases() {
			for fname, fp := range fingerprints {
				q := joinEdgeQuery(t, c, intKeys)
				left, right := allRows(q.Table), allRows(q.Right)
				want, err := execJoin(q, left, right)
				if err != nil {
					t.Fatal(err)
				}
				forceFingerprints(t, q.Table, 3, func(r int) uint64 { return fp(c.left[r]) })
				forceFingerprints(t, q.Right, 3, func(r int) uint64 { return fp(c.right[r]) })
				jp := new(joinPairs)
				if err := jp.load(q, 3, 1); err != nil {
					t.Fatal(err)
				}
				sc := new(joinScratch)
				sc.left.use(&jp.left, 0)
				sc.right.use(&jp.right, 0)
				// Every row survives.
				sc.left.rows, sc.right.rows = left, right
				sc.pairCounts(jp)
				got, err := completeJoin(q, jp, []*joinScratch{sc})
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s int=%v fingerprints=%s: completeJoin diverges from execJoin\nwant:\n%s\ngot:\n%s",
						c.name, intKeys, fname, want, got)
				}
			}
		}
	}
}

// forceFingerprints writes fp(r) into row r of tb's fingerprint column
// of its first column under seed — what the switch streams, and what the
// key dictionary and the key map are built by.
func forceFingerprints(t *testing.T, tb *table.Table, seed uint64, fp func(r int) uint64) {
	t.Helper()
	fps, _, ok := tb.KeyFingerprints(0, seed)
	if !ok {
		t.Fatal("a fresh table turned its own fingerprint column away")
	}
	for r := range fps {
		fps[r] = fp(r)
	}
}

// TestMixedKeyJoinRejected: keys of different column types meet only
// through their rendered cells, which ExecDirect joins; on the switch their
// fingerprints never match, so every pruned path refuses the query — the
// one-switch front door on each stream, the scalar reference and the
// sharded run — instead of answering it wrong.
func TestMixedKeyJoinRejected(t *testing.T) {
	ints := joinKeyTable(t, true, seqKeys(50, 0, 10), nil)
	strs := table.MustNew(table.Schema{{Name: "name", Type: table.String}})
	for i := 0; i < 30; i++ {
		if err := strs.AppendRow(fmt.Sprint(i % 15)); err != nil {
			t.Fatal(err)
		}
	}
	q := &Query{Kind: KindJoin, Table: ints, Right: strs, LeftKey: "name", RightKey: "name"}
	if want, err := ExecDirect(q); err != nil || len(want.Rows) == 0 {
		t.Fatalf("ExecDirect: %v rows, err %v", want, err)
	}
	runs := map[string]func() error{
		"fused":   func() error { _, err := ExecCheetah(q, CheetahOptions{Seed: 3}); return err },
		"chunked": func() error { _, err := ExecCheetah(q, CheetahOptions{Seed: 3, NoFuse: true}); return err },
		"scalar":  func() error { _, err := scalarRef(q, CheetahOptions{Seed: 3}); return err },
		"k=2":     func() error { _, err := ExecSharded(q, ShardedOptions{Shards: 2, Seed: 3}); return err },
	}
	for name, run := range runs {
		if err := run(); err == nil || !strings.Contains(err.Error(), "same-typed keys") {
			t.Fatalf("%s: got %v, want the mixed-key refusal", name, err)
		}
	}
}

// TestJoinWithinOneRoot joins key columns that share a root: a table with
// itself on one column (one dictionary, so the key map is the identity),
// two columns of one table (two dictionaries of one root, whose extenders
// share its lock), and a SnapshotPrefix with its root and the reverse
// (one dictionary read through handles of two lengths) — before and after
// an append that brings new keys, so the snapshot lags the map its root
// has extended. Each run, cold and warm, one switch and two, must equal
// ExecDirect.
func TestJoinWithinOneRoot(t *testing.T) {
	tb := table.MustNew(table.Schema{
		{Name: "a", Type: table.String}, {Name: "b", Type: table.String},
		{Name: "x", Type: table.Int64}, {Name: "y", Type: table.Int64},
	})
	appendRows := func(from, n int) {
		for i := from; i < from+n; i++ {
			g := i / 700 // the append's rows bring keys of their own too
			if err := tb.AppendRow(fmt.Sprintf("k%d", i%41+30*g), fmt.Sprintf("k%d", (i*3)%53+20+30*g),
				int64(i%29+20*g), int64((i*5)%37+10+20*g)); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendRows(0, 700)
	snap, err := tb.SnapshotPrefix(300)
	if err != nil {
		t.Fatal(err)
	}
	queries := map[string]*Query{
		"self-string":   {Kind: KindJoin, Table: tb, Right: tb, LeftKey: "a", RightKey: "a"},
		"self-int":      {Kind: KindJoin, Table: tb, Right: tb, LeftKey: "x", RightKey: "x"},
		"two-string":    {Kind: KindJoin, Table: tb, Right: tb, LeftKey: "a", RightKey: "b"},
		"two-int":       {Kind: KindJoin, Table: tb, Right: tb, LeftKey: "y", RightKey: "x"},
		"snapshot-root": {Kind: KindJoin, Table: snap, Right: tb, LeftKey: "a", RightKey: "a"},
		"root-snapshot": {Kind: KindJoin, Table: tb, Right: snap, LeftKey: "b", RightKey: "a"},
		"snapshot-self": {Kind: KindJoin, Table: snap, Right: snap, LeftKey: "x", RightKey: "y"},
	}
	for _, phase := range []string{"cold", "warm", "after append"} {
		if phase == "after append" {
			appendRows(700, 400)
		}
		for name, q := range queries {
			want, err := ExecDirect(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) == 0 {
				t.Fatalf("%s: ExecDirect joins nothing", name)
			}
			for _, k := range []int{1, 2} {
				run, err := ExecSharded(q, ShardedOptions{Shards: k, Workers: 2, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				if !run.Result.Equal(want) {
					t.Fatalf("%s %s k=%d: diverges from ExecDirect\nwant:\n%s\ngot:\n%s", name, phase, k, want, run.Result)
				}
			}
		}
	}
}

// TestJoinFusedMatchesChunked pins the fused JOIN passes, which train and
// probe each key id once, to the chunked pipeline, which streams one
// Process call per entry: symmetric and asymmetric programs, Skip on and
// off, string and integer keys, the degenerate shapes of joinEdgeCases and
// duplicate-heavy, all-unique and one-row sides, at one switch and two.
// Both Results equal ExecDirect; Traffic, Stats and skip counts are equal;
// and each switch's two filters end Equal — the same bits and the same
// Count, one Add per entry trained — so a pass that trains the wrong keys
// or miscounts its entries fails here.
func TestJoinFusedMatchesChunked(t *testing.T) {
	shapes := append(joinEdgeCases(),
		joinEdgeCase{name: "duplicate-heavy", left: seqKeys(2000, 0, 40), right: seqKeys(1500, 10, 50)},
		joinEdgeCase{name: "all-unique", left: seqKeys(900, 0, 900), right: seqKeys(1100, 300, 1100)},
		joinEdgeCase{name: "one-row-left", left: []int{7}, right: seqKeys(300, 0, 60)},
		joinEdgeCase{name: "one-row-right", left: seqKeys(300, 0, 60), right: []int{7}},
	)
	for _, intKeys := range []bool{false, true} {
		for _, c := range shapes {
			q := joinEdgeQuery(t, c, intKeys)
			direct, err := ExecDirect(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, asym := range []bool{false, true} {
				for _, skip := range []bool{false, true} {
					for _, k := range []int{1, 2} {
						label := fmt.Sprintf("%s int=%v asym=%v skip=%v k=%d", c.name, intKeys, asym, skip, k)
						run := func(noFuse bool) (*ShardedRun, []*prune.Join) {
							progs := make([]*prune.Join, k)
							pruners := make([]prune.Pruner, k)
							for s := range progs {
								if progs[s], err = newTestJoinPruner(asym, 7); err != nil {
									t.Fatal(err)
								}
								pruners[s] = progs[s]
							}
							r, err := ExecSharded(q, ShardedOptions{
								Shards: k, Workers: 3, Seed: 7, Pruners: pruners, Skip: skip, NoFuse: noFuse,
							})
							if err != nil {
								t.Fatalf("%s noFuse=%v: %v", label, noFuse, err)
							}
							if !r.Result.Equal(direct) {
								t.Fatalf("%s noFuse=%v: wrong vs direct\ndirect:\n%s\ngot:\n%s", label, noFuse, direct, r.Result)
							}
							return r, progs
						}
						fused, fusedProgs := run(false)
						chunked, chunkedProgs := run(true)
						if fused.Traffic != chunked.Traffic || fused.Stats != chunked.Stats || fused.Skipped != chunked.Skipped {
							t.Fatalf("%s: accounting diverges\nchunked: %+v %+v %+v\nfused:   %+v %+v %+v", label,
								chunked.Traffic, chunked.Stats, chunked.Skipped, fused.Traffic, fused.Stats, fused.Skipped)
						}
						for s := range fusedProgs {
							fa, fb := fusedProgs[s].FusedFilters()
							ca, cb := chunkedProgs[s].FusedFilters()
							if !fa.(*sketch.Bloom).Equal(ca.(*sketch.Bloom)) || !fb.(*sketch.Bloom).Equal(cb.(*sketch.Bloom)) {
								t.Fatalf("%s switch %d: filters differ (counts fused %d/%d, chunked %d/%d)",
									label, s, fa.Count(), fb.Count(), ca.Count(), cb.Count())
							}
						}
					}
				}
			}
		}
	}
}

// TestJoinRankOrderNULKeys joins keys that are other keys followed by NUL
// — "a" < "a\x00" < "a\x000" in the right dictionary's rank order,
// byte-wise by cell — and checks that the rows come out in that rank
// order as the completion builds them, which is the canonical order, at
// every shard count, fused and chunked: alone, where the dictionary's
// order is walked in one rank range, and padded with keys joined on both
// sides, where it is split between ranges.
func TestJoinRankOrderNULKeys(t *testing.T) {
	words := []string{"a", "a\x000", "a\x00"}
	// Pair counts 3·2, 1·3, 2·1: no two rows agree on a count either.
	left := []int{0, 0, 0, 1, 2, 2}
	right := []int{0, 1, 1, 2, 1, 0}
	for _, pad := range []int{0, 2 * rankRangeMin} {
		ws, l, r := append([]string(nil), words...), append([]int(nil), left...), append([]int(nil), right...)
		for i := 0; i < pad; i++ {
			ws = append(ws, fmt.Sprintf("k%03d", i))
			l, r = append(l, len(ws)-1), append(r, len(ws)-1)
		}
		q := joinEdgeQuery(t, joinEdgeCase{left: l, right: r, words: ws}, false)
		want, err := ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) != len(ws) || want.Rows[0][0] != "a" || want.Rows[1][0] != "a\x00" {
			t.Fatalf("pad=%d: ExecDirect gives %q", pad, want.Rows[:3])
		}
		for _, noFuse := range []bool{false, true} {
			for _, k := range []int{1, 2, 3} {
				run, err := ExecSharded(q, ShardedOptions{Shards: k, Workers: 2, Seed: 9, NoFuse: noFuse})
				if err != nil {
					t.Fatal(err)
				}
				if !run.Result.Equal(want) {
					t.Fatalf("pad=%d noFuse=%v k=%d: diverges from ExecDirect\nwant:\n%q\ngot:\n%q",
						pad, noFuse, k, want.Rows, run.Result.Rows)
				}
				for i, row := range run.Result.Rows[1:] {
					if prev := run.Result.Rows[i][0]; prev >= row[0] {
						t.Fatalf("pad=%d noFuse=%v k=%d: key %q follows %q out of rank order", pad, noFuse, k, row[0], prev)
					}
				}
			}
		}
	}
}

// TestJoinFailureLeavesNoCounts: a sharded JOIN that fails after a pass
// wrote its pair counts into the pooled array leaves none of them behind.
// The failing query joins every right key, one shard writes its half and
// the other fails; the next query, on the same right table and the same
// pool, joins a quarter of the keys and walks the whole dictionary, so a
// stale count would come out as a row ExecDirect does not have.
func TestJoinFailureLeavesNoCounts(t *testing.T) {
	const keys = 2 * rankRangeMin
	all, quarter := seqKeys(keys, 0, keys), seqKeys(keys/4, 0, keys/4)
	right := joinKeyTable(t, false, all, nil)
	failing := &Query{Kind: KindJoin, Table: joinKeyTable(t, false, all, nil), Right: right, LeftKey: "name", RightKey: "name"}
	exact := &Query{Kind: KindJoin, Table: joinKeyTable(t, false, quarter, nil), Right: right, LeftKey: "name", RightKey: "name"}
	want, err := ExecDirect(exact)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		pruners := make([]prune.Pruner, 2)
		for s := range pruners {
			if pruners[s], err = defaultShardPruner(failing, 2, 3); err != nil {
				t.Fatal(err)
			}
		}
		// Not a *prune.Join: shard 1's pass fails, shard 0's completes.
		pruners[1] = &panicPruner{Pruner: pruners[1]}
		if _, err := ExecSharded(failing, ShardedOptions{Shards: 2, Seed: 3, Pruners: pruners}); err == nil {
			t.Fatal("a JOIN whose shard runs no join program succeeded")
		}
		run, err := ExecSharded(exact, ShardedOptions{Shards: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !run.Result.Equal(want) {
			t.Fatalf("run %d after a failed JOIN: %d rows, ExecDirect has %d\ngot:\n%s", i, len(run.Result.Rows), len(want.Rows), run.Result)
		}
	}
}

// TestShardedJoinUnmemoisedRight: a sharded JOIN finds its shards' keys
// among the ids of the right handle it was given — through the rows they
// came from, in that handle's coordinates — also where the handle is a
// view that starts past its root's first row, or a snapshot its root has
// since grown past: handles whose ids and source rows are not the root's.
func TestShardedJoinUnmemoisedRight(t *testing.T) {
	root := joinKeyTable(t, false, seqKeys(900, 0, 300), nil)
	view, err := root.View(137, 820)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := root.SnapshotPrefix(600)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := root.AppendRow(fmt.Sprintf("late%03d", i%50), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	left := joinKeyTable(t, false, seqKeys(700, 100, 260), nil)
	for name, right := range map[string]*table.Table{"view": view, "snapshot": snap} {
		q := &Query{Kind: KindJoin, Table: left, Right: right, LeftKey: "name", RightKey: "name"}
		want, err := ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 3} {
			for run := 0; run < 2; run++ { // cold, then whatever the tables kept
				got, err := ExecSharded(q, ShardedOptions{Shards: k, Workers: 2, Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				if !got.Result.Equal(want) {
					t.Fatalf("%s k=%d run %d: diverges from ExecDirect\nwant:\n%s\ngot:\n%s", name, k, run, want, got.Result)
				}
			}
		}
	}
}

// TestShardedJoinOneIDSpace: a JOIN's passes read one id space at every
// shard count — the tables' fingerprint columns, key ids and key map — so a
// JOIN at two and three shards right after one at one shard over the same
// fresh tables hashes no key, builds no id and no key map: every shard
// notes memo for all three, and the merge notes nothing; the cold run at
// one shard hashed and built every key row once (at three shards
// TestTraceSpansPerPath adds the shards' cold notes up) — on the fused and
// the chunked passes.
func TestShardedJoinOneIDSpace(t *testing.T) {
	const warm = "keys: memo; ids: memo; xmap: memo"
	for _, noFuse := range []bool{false, true} {
		q := equivQueries(equivTable(t, 3000, 0x331), equivTable(t, 900, 0x332))["join"]
		want, err := ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		keyRows := q.Table.NumRows() + q.Right.NumRows()
		for i, k := range []int{1, 2, 3, 3} {
			tr := obs.New()
			run, err := ExecSharded(q, ShardedOptions{Shards: k, Workers: 2, Seed: 7, NoFuse: noFuse, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			st := stagesOf(tr)
			tr.Release()
			label := fmt.Sprintf("noFuse=%v run %d k=%d", noFuse, i, k)
			if !run.Result.Equal(want) {
				t.Fatalf("%s: diverges from ExecDirect", label)
			}
			if merge := st[obs.StageMerge][0].Note; merge != "" {
				t.Fatalf("%s: merge noted %q", label, merge)
			}
			got := addNotes(st[obs.StageShard])
			if i == 0 {
				cold := fmt.Sprintf("keys: hashed %d; ids: built %d; xmap: built ", keyRows, keyRows)
				if !strings.HasPrefix(got, cold) {
					t.Fatalf("%s: noted %q, want %q…", label, got, cold)
				}
				continue
			}
			for _, sp := range st[obs.StageShard] {
				if _, keys, _ := strings.Cut(sp.Note, "; "); keys != warm {
					t.Fatalf("%s: shard %d noted %q, want %q", label, sp.Switch, sp.Note, warm)
				}
			}
		}
	}
}

// TestShardedJoinDerivedBytes: what a sharded JOIN keeps beside what a
// one-shard JOIN does is its co-partition — the row lists and their rows'
// fingerprints and key ids — and DerivedBytes sees all of it: after a
// JOIN at two shards each root accounts exactly its bytes after a JOIN at
// one plus 4 + 8 + 4 B a row in KeyShards; at three shards the one slot is
// replaced, at the same size.
func TestShardedJoinDerivedBytes(t *testing.T) {
	q := equivQueries(equivTable(t, 3000, 0x341), equivTable(t, 900, 0x342))["join"]
	roots := []*table.Table{q.Table, q.Right}
	var base []table.DerivedBytes
	for _, k := range []int{1, 2, 3} {
		if _, err := ExecSharded(q, ShardedOptions{Shards: k, Workers: 2, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		for i, root := range roots {
			got := root.DerivedBytes()
			if k == 1 {
				if got.KeyShards != 0 || got.KeyFingerprints == 0 || got.KeyIDs == 0 {
					t.Fatalf("root %d after a one-shard JOIN: %+v", i, got)
				}
				base = append(base, got)
				continue
			}
			want := base[i]
			want.KeyShards = (4 + 8 + 4) * root.NumRows()
			if got != want {
				t.Fatalf("root %d after a JOIN at k=%d: %+v, want %+v", i, k, got, want)
			}
		}
	}
}
