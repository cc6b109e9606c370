package engine

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cheetah/internal/obs"
	"cheetah/internal/prune"
	"cheetah/internal/radix"
	"cheetah/internal/table"
)

// TestKeyFingerprintOneDefinition pins the statements of a single-column
// key fingerprint to one value per cell: the table's fingerprint column
// (what every pruned pass reads), HashKeys, the multi-column arm and the
// scalar reference's fingerprintRow — on the cells where one of them is
// likeliest to slip.
func TestKeyFingerprintOneDefinition(t *testing.T) {
	tb := table.MustNew(table.Schema{{Name: "s", Type: table.String}, {Name: "i", Type: table.Int64}})
	cells := []struct {
		s string
		i int64
	}{
		{"user0042", 42},
		{"", 0},
		{"a\x00b", -1},
		{"\x00", math.MinInt64},
		{"a\x00", math.MaxInt64},
		{"a", 1},
	}
	for _, c := range cells {
		if err := tb.AppendRow(c.s, c.i); err != nil {
			t.Fatal(err)
		}
	}
	for _, seed := range []uint64{0, 7, 0xfeedface, math.MaxUint64} {
		for c := 0; c < tb.NumCols(); c++ {
			typ := tb.ColumnType(c)
			var scratch []uint64
			col, _ := keyColumn(tb, c, seed, &scratch)
			hashed := make([]uint64, tb.NumRows())
			tb.HashKeys(c, seed, hashed)
			for r := range cells {
				want := fingerprintRow(tb, []int{c}, r, seed)
				accs := fingerprintAccs([]colAcc{accessorFor(tb, c)}, r, seed)
				if col[r] != want || hashed[r] != want || accs != want {
					t.Fatalf("seed %#x %v cell %q: column %#x, HashKeys %#x, multi-column arm %#x, fingerprintRow %#x",
						seed, typ, cellString(tb, c, r), col[r], hashed[r], accs, want)
				}
			}
		}
	}
}

// memoFixture is a table pair no query has read yet, with skip indexes,
// and the keyed queries over it. Two of them built the same way hold the
// same rows, so one can serve as the cold reference for what the other
// does warm.
type memoFixture struct {
	tb, rt *table.Table
	// lo, hi: a JOIN whose probe side is clustered on the key, so that
	// block skipping really drops blocks of it.
	lo, hi *table.Table
}

const memoBlockRows = 128

func newMemoFixture(t *testing.T) *memoFixture {
	f := &memoFixture{tb: equivTable(t, 3000, 0x77), rt: equivTable(t, 900, 0x78)}
	f.lo = table.MustNew(table.Schema{{Name: "score", Type: table.Int64}, {Name: "key", Type: table.String}})
	f.hi = table.MustNew(f.lo.Schema())
	for i := 0; i < 2048; i++ {
		if err := f.hi.AppendRow(int64(2048-i), fmt.Sprintf("k%05d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		if err := f.lo.AppendRow(int64(i%150), fmt.Sprintf("k%05d", i)); err != nil {
			t.Fatal(err)
		}
	}
	f.index(t)
	return f
}

func (f *memoFixture) tables() []*table.Table { return []*table.Table{f.tb, f.rt, f.lo, f.hi} }

func (f *memoFixture) index(t *testing.T) {
	for _, x := range f.tables() {
		if err := x.BuildSkipIndex(memoBlockRows); err != nil {
			t.Fatal(err)
		}
	}
}

// grow appends rows to every table — keys old and new — and extends the
// skip indexes over them.
func (f *memoFixture) grow(t *testing.T) {
	donor := equivTable(t, 400, 0x79)
	for _, x := range []*table.Table{f.tb, f.rt} {
		if err := x.AppendRowsFrom(donor, allRows(donor)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		for _, x := range []*table.Table{f.lo, f.hi} {
			if err := x.AppendRow(int64(i*7%400), fmt.Sprintf("late%03d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, x := range f.tables() {
		x.RefreshSkipIndex()
	}
}

// reorder shuffles every table in place and indexes it again.
func (f *memoFixture) reorder(t *testing.T) {
	for i, x := range f.tables() {
		if err := x.Shuffle(uint64(11 + i)); err != nil {
			t.Fatal(err)
		}
	}
	f.index(t)
}

// queries are every kind — the keyed ones read key fingerprints and key
// ids, the others must not notice either — plus a DISTINCT whose key spans
// columns (hashed per query, no dictionary), an integer-keyed GROUP BY
// whose result is ranked in rendered order, and a JOIN whose probe side
// skips blocks.
func (f *memoFixture) queries() map[string]*Query {
	out := equivQueries(f.tb, f.rt)
	out["groupby-max-intkey"] = &Query{Kind: KindGroupByMax, Table: f.tb, KeyCol: "val", AggCol: "score"}
	out["join-skipping"] = &Query{Kind: KindJoin, Table: f.lo, Right: f.hi, LeftKey: "score", RightKey: "score"}
	return out
}

// dictColumns returns the key columns whose dictionary a run over q
// builds on q's own tables, at k switches: JOIN's two at one switch (at
// more, they sit on the key-only shards), HAVING's, and a single-column
// DISTINCT's or GROUP BY's when its result is large enough to be ranked.
func dictColumns(q *Query, k int, resultRows int) (cols map[*table.Table]int) {
	one := func(t *table.Table, name string) map[*table.Table]int {
		return map[*table.Table]int{t: t.Schema().MustIndex(name)}
	}
	switch {
	case q.Kind == KindJoin && k == 1:
		cols = one(q.Table, q.LeftKey)
		cols[q.Right] = q.Right.Schema().MustIndex(q.RightKey)
		return cols
	case q.Kind == KindHaving:
		return one(q.Table, q.KeyCol)
	case resultRows < radix.MinSize:
		return nil
	case q.Kind == KindDistinct && len(q.DistinctCols) == 1:
		return one(q.Table, q.DistinctCols[0])
	case q.Kind == KindGroupByMax || q.Kind == KindGroupBySum:
		return one(q.Table, q.KeyCol)
	}
	return nil
}

// memoOutcome is everything of a pruned run that must not depend on
// whether its key fingerprints were read or hashed.
type memoOutcome struct {
	result  *Result
	traffic Traffic
	stats   prune.Stats
	skipped SkipStats
	pruner  string
}

func (o memoOutcome) sameAs(p memoOutcome) bool {
	return o.result.Equal(p.result) && o.traffic == p.traffic && o.stats == p.stats &&
		o.skipped == p.skipped && o.pruner == p.pruner
}

func (o memoOutcome) String() string {
	return fmt.Sprintf("traffic %+v stats %+v skipped %+v pruner %q, %d rows", o.traffic, o.stats, o.skipped, o.pruner, len(o.result.Rows))
}

// TestKeyMemoReaders is the readers' equivalence suite. For every query
// kind × {fused, chunked} × block skipping off/on × k ∈ {1, 2, 3}, over
// tables no query has read: the cold run (which builds the memos — key
// fingerprints and key dictionaries), the warm runs (which read them), a
// run after an append (which extends them) and a run after a Shuffle
// (which starts over) all reproduce ExecDirect's Result, and agree bit for
// bit — Result, Traffic, Stats, SkipStats, PrunerName — with the cold run
// of an identical copy of the tables. At one switch without skipping that
// is also the scalar reference's Traffic and Stats, which never reads the
// memos. And the warm runs left each dictionary a reader uses covering
// its whole table, so the next run builds nothing.
func TestKeyMemoReaders(t *testing.T) {
	const seed = 0xfeed
	for name := range newMemoFixture(t).queries() {
		for _, skip := range []bool{false, true} {
			for _, k := range []int{1, 2, 3} {
				// fused[i]: the fused loops' outcome at stage i, which the
				// chunked pipeline must reproduce.
				var fused []memoOutcome
				for _, noFuse := range []bool{false, true} {
					label := fmt.Sprintf("%s noFuse=%v skip=%v k=%d", name, noFuse, skip, k)
					exec := func(f *memoFixture) memoOutcome {
						run, err := ExecSharded(f.queries()[name], ShardedOptions{Shards: k, Workers: 3, Seed: seed, NoFuse: noFuse, Skip: skip})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						return memoOutcome{run.Result, run.Traffic, run.Stats, run.Skipped, run.PrunerName}
					}
					live := newMemoFixture(t)
					stages := []struct {
						name   string
						mutate func(*memoFixture)
					}{
						{"cold", func(*memoFixture) {}},
						{"after an append", func(f *memoFixture) { f.grow(t) }},
						{"after a Shuffle", func(f *memoFixture) { f.reorder(t) }},
					}
					for i, st := range stages {
						// The live tables keep whatever the runs before left
						// on them; the copy reaches the same rows unread.
						st.mutate(live)
						copyOf := newMemoFixture(t)
						for _, past := range stages[:i+1] {
							past.mutate(copyOf)
						}
						q := live.queries()[name]
						direct, err := ExecDirect(q)
						if err != nil {
							t.Fatal(err)
						}
						ref := exec(copyOf)
						if !ref.result.Equal(direct) {
							t.Fatalf("%s %s: a cold run diverges from ExecDirect", label, st.name)
						}
						// Randomized TOP N's fused stream draws its own row
						// choices (fuse.go): only its Result is the others'.
						sameStreams := q.Kind != KindTopN
						if !noFuse {
							fused = append(fused, ref)
						} else if sameStreams && !ref.sameAs(fused[i]) {
							t.Fatalf("%s %s: the two streams disagree\nfused:   %v\nchunked: %v", label, st.name, fused[i], ref)
						}
						if name == "join-skipping" && skip && k == 1 && i == 0 {
							// What the tree before the memo reported, when a
							// skipping JOIN hashed only the spans it scanned:
							// the skipped blocks' rows are now in the column,
							// and still neither sent nor trained on.
							want := memoOutcome{ref.result, Traffic{EntriesSent: 912, Forwarded: 347, MasterProcessed: 347},
								prune.Stats{Processed: 912, Pruned: 565}, SkipStats{BlocksSeen: 16, BlocksSkipped: 14, RowsSkipped: 1792}, ref.pruner}
							if !ref.sameAs(want) || len(ref.result.Rows) != 149 {
								t.Fatalf("%s: a JOIN that skips blocks moved\nwant: %v\ngot:  %v", label, want, ref)
							}
						}
						// At k > 1 the contiguous shards past the first join the
						// memo one run later, so three runs reach all-memo.
						for run := 0; run < 3; run++ {
							if got := exec(live); !got.sameAs(ref) {
								t.Fatalf("%s %s, run %d: differs from a cold run over the same rows\ncold: %v\ngot:  %v", label, st.name, run, ref, got)
							}
						}
						if rows, memoised := keyRowsOf(q); memoised && (k == 1 || q.Kind != KindJoin) {
							// What the runs left behind: the whole key column,
							// under this seed (JOIN at k > 1 leaves it on its
							// key-only shards instead).
							kc := q.KeyCol
							if q.Kind == KindDistinct {
								kc = q.DistinctCols[0]
							} else if q.Kind == KindJoin {
								kc = q.LeftKey
							}
							if _, hashed, ok := q.Table.KeyFingerprints(q.Table.Schema().MustIndex(kc), seed); !ok || hashed != 0 {
								t.Fatalf("%s %s: %d key rows read three times, yet %d still to hash (ok=%v)", label, st.name, rows, hashed, ok)
							}
						}
						for x, c := range dictColumns(q, k, len(direct.Rows)) {
							if _, built, ok := x.KeyIDs(c, seed); !ok || built != 0 {
								t.Fatalf("%s %s: a key column read three times, yet %d rows still without an id (ok=%v)", label, st.name, built, ok)
							}
						}
						if k == 1 && !skip && (sameStreams || noFuse) {
							scalar, err := scalarRef(q, CheetahOptions{Workers: 3, Seed: seed})
							if err != nil {
								t.Fatal(err)
							}
							if scalar.Traffic != ref.traffic || scalar.Stats != ref.stats {
								t.Fatalf("%s %s: scalar reference traffic %+v stats %+v, pruned %v", label, st.name, scalar.Traffic, scalar.Stats, ref)
							}
						}
					}
				}
			}
		}
	}
}

// TestOraclesReadNoKeyMemo: ExecDirect, its skipping variant and the
// scalar reference hash and compare keys for
// themselves — the oracle and the Traffic/Stats reference stay independent
// of what they check — so after they ran every query, every fingerprint
// column is still to build and every dictionary slot is empty.
func TestOraclesReadNoKeyMemo(t *testing.T) {
	const seed = 0xfeed
	f := newMemoFixture(t)
	queries := equivQueries(f.tb, f.rt)
	for name, q := range f.queries() {
		queries[name] = q
	}
	for name, q := range queries {
		if _, err := ExecDirect(q); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, err := ExecDirectSkip(q); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := scalarRef(q, CheetahOptions{Workers: 3, Seed: seed}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for i, x := range f.tables() {
		for c := 0; c < x.NumCols(); c++ {
			if st := x.KeyMemoStats(c, seed); st.IDs != 0 {
				t.Fatalf("table %d column %d: the oracles left a dictionary over %d rows", i, c, st.IDs)
			}
			if _, hashed, ok := x.KeyFingerprints(c, seed); !ok || hashed != x.NumRows() {
				t.Fatalf("table %d column %d: %d of %d rows still to hash after the oracles ran", i, c, hashed, x.NumRows())
			}
		}
	}
}

// TestPartialDropsTableColumn: a released partial keeps no reference to
// the table's fingerprint column (the pool must not pin it), only its own
// scratch.
func TestPartialDropsTableColumn(t *testing.T) {
	tb := equivTable(t, 500, 0x31)
	q := &Query{Kind: KindDistinct, Table: tb, DistinctCols: []string{"name"}}
	p := newPartial(q)
	col := p.hashKeys(7)
	if memo, hashed, ok := tb.KeyFingerprints(0, 7); !ok || hashed != 0 || &memo[0] != &col[0] {
		t.Fatal("a single-column partial reads the table's own column")
	}
	p.release()
	if p.fps != nil || p.ids != nil || p.t != nil {
		t.Fatalf("released partial still holds the table's column (%d values) or the table", len(p.fps))
	}
	// A key spanning columns is the partial's own to hash and to pool.
	q2 := &Query{Kind: KindDistinct, Table: tb, DistinctCols: []string{"name", "group"}}
	p2 := newPartial(q2)
	col2 := p2.hashKeys(7)
	for r := range col2 {
		if want := fingerprintRow(tb, p2.cols, r, 7); col2[r] != want {
			t.Fatalf("row %d: multi-column fingerprint %#x, fingerprintRow %#x", r, col2[r], want)
		}
	}
	if p2.hashedRows != tb.NumRows() {
		t.Fatalf("multi-column key hashed %d rows of %d", p2.hashedRows, tb.NumRows())
	}
	p2.release()
}

// TestKeyDictConcurrentJoinHaving is the key dictionary's concurrency
// shape, for the race detector: one appender commits 256-row batches to
// a table pair under a lock, while readers take snapshots under the lock
// and, outside it, run JOIN and HAVING over them at one and two switches —
// all of them reading, and whoever gets there first extending, the same
// fingerprint columns and dictionaries. Every answer equals ExecDirect
// over its snapshots.
func TestKeyDictConcurrentJoinHaving(t *testing.T) {
	tb, rt := equivTable(t, 1024, 0x91), equivTable(t, 512, 0x92)
	donor := equivTable(t, 256, 0x93)
	var mu sync.Mutex // the ingestor's: commits and snapshots
	var answered atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				left, err := tb.SnapshotPrefix(tb.NumRows())
				if err == nil {
					var right *table.Table
					right, err = rt.SnapshotPrefix(rt.NumRows())
					mu.Unlock()
					q := &Query{Kind: KindHaving, Table: left, KeyCol: "name", AggCol: "val", Threshold: 2000}
					if (g+i)%2 == 0 {
						q = &Query{Kind: KindJoin, Table: left, Right: right, LeftKey: "name", RightKey: "name"}
					}
					var want *Result
					if want, err = ExecDirect(q); err == nil {
						var run *ShardedRun
						if run, err = ExecSharded(q, ShardedOptions{Shards: 1 + i%2, Workers: 2, Seed: 7}); err == nil && !want.Equal(run.Result) {
							err = fmt.Errorf("%v at %d switches over %d rows diverges from ExecDirect", q.Kind, 1+i%2, left.NumRows())
						}
					}
				} else {
					mu.Unlock()
				}
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				answered.Add(1)
			}
		}(g)
	}
	for b := 0; b < 16; b++ {
		mu.Lock()
		err := tb.AppendRowsFrom(donor, allRows(donor))
		if err == nil {
			err = rt.AppendRowsFrom(donor, allRows(donor)[:b*16])
		}
		mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		// Let the readers see this batch before the next one lands.
		for seen := answered.Load(); answered.Load() < seen+3 && !t.Failed(); {
			time.Sleep(50 * time.Microsecond)
		}
	}
	close(done)
	wg.Wait()
}

// TestRankedRenderGate: every single-column aggregation keys its
// partials by key ids, but what it reads them from depends on its rows. A
// query over the table reads the table's memos, extending them over rows
// appended since, and walks the dictionary's order when its result holds
// at least a quarter of the keys; a 256-row delta view past the memos,
// small beside them, hashes and compares its keys among its own rows —
// the order it walks is of its own keys — and leaves the memos covering
// the rows they covered. Every answer is ExecDirect's.
func TestRankedRenderGate(t *testing.T) {
	const rows, seed = 4000, 7
	tb := table.MustNew(table.Schema{{Name: "key", Type: table.String}, {Name: "val", Type: table.Int64}})
	for i := 0; i < rows; i++ {
		if err := tb.AppendRow(fmt.Sprintf("k%05d", (i*7919)%rows), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// exec runs q and returns its merge span's note, and whether its
	// completion walks the dictionary's order.
	exec := func(q *Query) (mergeNote string, walks bool) {
		t.Helper()
		want, err := ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.New()
		defer tr.Release()
		run, err := ExecCheetah(q, CheetahOptions{Workers: 2, Seed: seed, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if !run.Result.Equal(want) {
			t.Fatalf("%v over %d rows diverges from ExecDirect", q.Kind, q.Table.NumRows())
		}
		p := newPartial(q)
		defer p.release()
		absorbAll(q, p, seed)
		return stagesOf(tr)[obs.StageMerge][0].Note, ranked([]*partial{p})
	}
	distinct := func(x *table.Table) *Query {
		return &Query{Kind: KindDistinct, Table: x, DistinctCols: []string{"key"}}
	}
	memos := func() table.KeyMemoStats { return tb.KeyMemoStats(0, seed) }
	cold := table.KeyMemoStats{Hashed: rows, IDs: rows}
	if note, walks := exec(distinct(tb)); note != "ids: built 4000" || !walks || memos() != cold {
		t.Fatalf("cold DISTINCT over the table: merge noted %q, walks the order %v, memos %+v", note, walks, memos())
	}
	for i := 0; i < 256; i++ {
		if err := tb.AppendRow(fmt.Sprintf("late%03d", i%200), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	delta, err := tb.View(rows, rows+256)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*Query{distinct(delta), {Kind: KindGroupByMax, Table: delta, KeyCol: "key", AggCol: "val"}} {
		if note, _ := exec(q); note != "ids: built 256" || memos() != cold {
			t.Fatalf("%v over the delta: merge noted %q, memos %+v; want its own 256 rows built and the memos untouched", q.Kind, note, memos())
		}
	}
	grown := table.KeyMemoStats{Hashed: rows + 256, IDs: rows + 256}
	if note, walks := exec(distinct(tb)); note != "ids: built 256" || !walks || memos() != grown {
		t.Fatalf("DISTINCT over the grown table: merge noted %q, walks the order %v, memos %+v", note, walks, memos())
	}
}
