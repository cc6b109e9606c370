package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"cheetah/internal/hashutil"
	"cheetah/internal/prune"
	"cheetah/internal/table"
)

// aggEdgeCase is one degenerate input of the aggregation kinds: a key
// column (String, or Int64 when ints is set) and a summand per row, with
// the HAVING threshold the case is about.
type aggEdgeCase struct {
	name      string
	keys      []string
	ints      []int64
	vals      []int64
	threshold int64
}

// aggEdgeCases are the shapes where a fingerprint-keyed completion, its
// late key rendering or its key-only sort is likeliest to slip.
func aggEdgeCases() []aggEdgeCase {
	cycle := func(n int, keys ...string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = keys[(i*7)%len(keys)]
		}
		return out
	}
	ramp := func(n int, f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	own := make([]string, 300)
	for i := range own {
		own[i] = fmt.Sprintf("key-%04d", (i*131)%300)
	}
	positive := func(i int) int64 { return int64(i%13 + 1) }
	return []aggEdgeCase{
		{name: "empty"},
		{name: "one-row", keys: []string{"only"}, vals: []int64{5}, threshold: 4},
		{name: "one-key", keys: cycle(300, "k"), vals: ramp(300, positive), threshold: 100},
		{name: "every-row-its-own-key", keys: own, vals: ramp(300, positive), threshold: 6},
		{name: "int-key", ints: ramp(400, func(i int) int64 { return int64(i*7%23) - 11 }), vals: ramp(400, positive), threshold: 120},
		// Extremes and signs whose rendered order is not their numeric one
		// ("-1" < "-10" < "-9223372036854775808" < "0" < "10" < "9"), and
		// over radix.MinSize keys, so the ranked render orders them.
		{name: "int-extremes", ints: ramp(600, func(i int) int64 {
			switch i % 80 {
			case 0:
				return math.MinInt64
			case 1:
				return math.MaxInt64
			case 2:
				return math.MinInt64 + 1
			}
			return int64(i%80-40) * int64(1+i%80%7*1000)
		}), vals: ramp(600, positive), threshold: 40},
		{name: "empty-string-key", keys: cycle(200, "", "a", "b"), vals: ramp(200, positive), threshold: 300},
		{name: "prefix-keys", keys: cycle(300, "a", "ab", "abc", "abcd", "abcd0", "b"), vals: ramp(300, positive), threshold: 340},
		{name: "nul-key", keys: cycle(300, "a", "a\x00", "a\x00b", "b\x00", "\x00", "ab"), vals: ramp(300, positive), threshold: 340},
		// Three keys of 100 rows each sum to 100, 200 and 300: the threshold
		// sits exactly on the middle one, which HAVING's strict > excludes.
		{name: "threshold-on-a-sum", keys: cycle(300, "x", "y", "z"),
			vals: ramp(300, func(i int) int64 { return int64((i*7)%3 + 1) }), threshold: 200},
		{name: "negative-summands", keys: cycle(300, "p", "q", "r", "s"),
			vals: ramp(300, func(i int) int64 { return int64(i%9) - 4 }), threshold: 10},
	}
}

// table builds the case's (key, val) table.
func (c aggEdgeCase) table() *table.Table {
	schema := table.Schema{{Name: "key", Type: table.String}, {Name: "val", Type: table.Int64}}
	if c.ints != nil {
		schema[0].Type = table.Int64
	}
	tb := table.MustNew(schema)
	for i, v := range c.vals {
		var key any
		if c.ints != nil {
			key = c.ints[i]
		} else {
			key = c.keys[i]
		}
		if err := tb.AppendRow(key, v); err != nil {
			panic(err)
		}
	}
	return tb
}

// withAggEdges adds, to an equivalence suite's query table, the four
// aggregation kinds (and a two-column DISTINCT) over every edge case.
func withAggEdges(queries map[string]*Query) map[string]*Query {
	for _, c := range aggEdgeCases() {
		tb := c.table()
		queries["edge/"+c.name+"/distinct"] = &Query{Kind: KindDistinct, Table: tb, DistinctCols: []string{"key"}}
		queries["edge/"+c.name+"/distinct-2col"] = &Query{Kind: KindDistinct, Table: tb, DistinctCols: []string{"key", "val"}}
		queries["edge/"+c.name+"/groupby-max"] = &Query{Kind: KindGroupByMax, Table: tb, KeyCol: "key", AggCol: "val"}
		queries["edge/"+c.name+"/groupby-sum"] = &Query{Kind: KindGroupBySum, Table: tb, KeyCol: "key", AggCol: "val"}
		queries["edge/"+c.name+"/having"] = &Query{Kind: KindHaving, Table: tb, KeyCol: "key", AggCol: "val", Threshold: c.threshold}
	}
	return queries
}

// absorbAll feeds every row of p's table to p as the pruned executors
// would a stream no switch pruned anything of: HAVING nominates every
// key and sums; the others absorb each row, GROUP BY SUM resolving its
// keys afterwards.
func absorbAll(q *Query, p *partial, seed uint64) {
	absorbRows(q, p, seed, nil)
	finishAbsorb(q, p)
}

// absorbRows feeds p the rows of its table that own accepts (all, when it
// is nil), HAVING nominating their keys.
func absorbRows(q *Query, p *partial, seed uint64, own func(r int) bool) {
	t := p.t
	fps := p.hashKeys(seed)
	vc := -1
	if q.Kind != KindDistinct {
		vc = t.Schema().MustIndex(q.AggCol)
	}
	for r := 0; r < t.NumRows(); r++ {
		if own != nil && !own(r) {
			continue
		}
		switch fp := fps[r]; q.Kind {
		case KindDistinct:
			p.absorbFirst(fp, r)
		case KindGroupByMax:
			p.absorbMax(t.Int64At(vc, r), r)
		case KindGroupBySum:
			p.absorbSum(fp, t.Int64At(vc, r))
		case KindHaving:
			p.nominate(fp)
		}
	}
}

// finishAbsorb ends p's stream: GROUP BY SUM resolves its sums, HAVING's
// second pass sums its candidates over p's table.
func finishAbsorb(q *Query, p *partial) {
	switch q.Kind {
	case KindGroupBySum:
		p.resolve()
	case KindHaving:
		p.sumCandidates(q.Table.Schema().MustIndex(q.AggCol))
	}
}

// cutPartials returns a partial over each of k contiguous views of
// q.Table, cut at random, keyed as the sharded executor keys its shards'
// (keyPartials), every row absorbed (absorbAll).
func cutPartials(t *testing.T, q *Query, k int, rng *rand.Rand, seed uint64) []*partial {
	t.Helper()
	n := q.Table.NumRows()
	cuts := []int{0, n}
	for i := 1; i < k; i++ {
		cuts = append(cuts, rng.Intn(n+1))
	}
	slices.Sort(cuts)
	partials := make([]*partial, k)
	for i := range partials {
		v, err := q.Table.View(cuts[i], cuts[i+1])
		if err != nil {
			t.Fatal(err)
		}
		qv := *q
		qv.Table = v
		partials[i] = newPartial(&qv)
	}
	keyPartials(q.Table, partials, seed)
	for _, p := range partials {
		absorbAll(q, p, seed)
	}
	return partials
}

// dealtPartials returns k partials over the whole of q.Table, keyed by one
// keyPartials call, that share its rows out at random: each row is
// absorbed into one partial, so no partial's rows are contiguous. HAVING's
// second pass sums a table's rows, not a partial's, so the dealt
// candidates are unioned, as completeAgg unions them, and the first
// partial sums them over the table alone.
func dealtPartials(q *Query, k int, rng *rand.Rand, seed uint64) []*partial {
	partials := make([]*partial, k)
	for i := range partials {
		partials[i] = newPartial(q)
	}
	keyPartials(q.Table, partials, seed)
	owner := make([]int, q.Table.NumRows())
	for r := range owner {
		owner[r] = rng.Intn(k)
	}
	for i, p := range partials {
		absorbRows(q, p, seed, func(r int) bool { return owner[r] == i })
	}
	g := partials[0]
	if q.Kind == KindHaving {
		for _, p := range partials[1:] {
			g.unionCandidates(p)
			p.reset()
		}
		finishAbsorb(q, g)
		return partials
	}
	for _, p := range partials {
		finishAbsorb(q, p)
	}
	return partials
}

// checkCompletions completes q from k partials — cut into contiguous views
// and dealt at random over the whole table — both ways a completion can:
// the parallel walk of the dictionary's order, whatever the ranked gate
// would say, and the serial fold into one partial, as a left fold and as a
// fold of two halves over partials shuffled by rng. It requires want each
// time.
func checkCompletions(t *testing.T, label string, q *Query, want *Result, k int, rng *rand.Rand) {
	t.Helper()
	checkCompletionsOf(t, label+" cut", q, want, cutPartials(t, q, k, rng, 9), rng)
	checkCompletionsOf(t, label+" dealt", q, want, dealtPartials(q, k, rng, 9), rng)
}

// checkCompletionsOf is checkCompletions over given partials, which it
// releases.
func checkCompletionsOf(t *testing.T, label string, q *Query, want *Result, partials []*partial, rng *rand.Rand) {
	t.Helper()
	k := len(partials)
	defer func() {
		for _, p := range partials {
			p.release()
		}
	}()
	if len(partials[0].cols) == 1 {
		got, err := completeRanked(q, partials)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s k=%d: ranked completion diverges from ExecDirect\nwant:\n%s\ngot:\n%s", label, k, want, got)
		}
	}
	rng.Shuffle(k, func(a, b int) { partials[a], partials[b] = partials[b], partials[a] })
	// The same partials, untouched by being merged, serve both folds; the
	// accumulators are partials over the whole table.
	var accs []*partial
	defer func() {
		for _, p := range accs {
			p.release()
		}
	}()
	fold := func(ps []*partial) *partial {
		acc := newPartial(q)
		accs = append(accs, acc)
		keyPartials(q.Table, []*partial{acc}, 9)
		for _, p := range ps {
			acc.merge(p)
		}
		return acc
	}
	left := fold(partials)
	halves := fold([]*partial{fold(partials[k/2:]), fold(partials[:k/2])})
	for name, m := range map[string]*partial{"left fold": left, "halves": halves} {
		if got := m.render(q); !got.Equal(want) {
			t.Fatalf("%s k=%d %s: merged partials diverge from ExecDirect\nwant:\n%s\ngot:\n%s", label, k, name, want, got)
		}
	}
}

// TestPartialMonoid: for every aggregation kind, splitting a table's rows
// at random over k partials — cut into contiguous parts, or dealt row by
// row — absorbing each part into its own partial and completing them — by
// the parallel walk of the dictionary's order, or by merging them in a
// random order — renders what one partial over the whole table renders,
// which is ExecDirect's answer: absorb and merge form a commutative monoid
// and agree with the oracle.
func TestPartialMonoid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	queries := withAggEdges(equivQueries(equivTable(t, 3000, 0x51), equivTable(t, 10, 0x52)))
	for name, q := range queries {
		switch q.Kind {
		case KindDistinct, KindGroupByMax, KindGroupBySum, KindHaving:
		default:
			continue
		}
		want, err := ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		whole := newPartial(q)
		absorbAll(q, whole, 9)
		if got := whole.render(q); !got.Equal(want) {
			t.Fatalf("%s: one partial diverges from ExecDirect\nwant:\n%s\ngot:\n%s", name, want, got)
		}
		whole.release()
		for _, k := range []int{1, 2, 7} {
			checkCompletions(t, name, q, want, k, rng)
		}
	}
}

// encodeAggCase spells c as FuzzAggCompletion's input: rows separated by
// ',', each key=summand, integer keys in decimal.
func encodeAggCase(c aggEdgeCase) (data []byte, ints bool, threshold int64) {
	for i, v := range c.vals {
		if i > 0 {
			data = append(data, ',')
		}
		if c.ints != nil {
			data = strconv.AppendInt(data, c.ints[i], 10)
		} else {
			data = append(data, c.keys[i]...)
		}
		data = append(append(data, '='), strconv.FormatInt(v, 10)...)
	}
	return data, c.ints != nil, c.threshold
}

// decodeAggCase reads any bytes as encodeAggCase spells a case: a row
// without '=' sums its length; with ints, a key that is no decimal folds
// its bytes into an integer, the empty key standing for math.MinInt64.
func decodeAggCase(data []byte, ints bool, threshold int64) aggEdgeCase {
	c := aggEdgeCase{name: "fuzz", threshold: threshold}
	if len(data) == 0 {
		return c
	}
	for _, row := range strings.Split(string(data), ",") {
		key, val, found := strings.Cut(row, "=")
		v, err := strconv.ParseInt(val, 10, 64)
		if !found || err != nil {
			v = int64(len(row))
		}
		c.vals = append(c.vals, v)
		if !ints {
			c.keys = append(c.keys, key)
			continue
		}
		n, err := strconv.ParseInt(key, 10, 64)
		if err != nil {
			n = math.MinInt64
			if key != "" {
				n = 0
				for _, b := range []byte(key) {
					n = n*131 + int64(b) - 96
				}
			}
		}
		c.ints = append(c.ints, n)
	}
	return c
}

// FuzzAggCompletion drives the four aggregation kinds over generated
// single-column key multisets — empty, one row, all duplicates, NUL and
// prefix keys, int64 extremes — through the sharded executor at k ∈ {1, 2,
// 3, 7}, k past the distinct keys included, so that some rank ranges are
// empty. The handles follow a table's life: a prefix, which publishes the
// dictionary over it; a view past its end, which the dictionary turns
// away; a delta it is extended over; the whole table, whose results sit
// above the ranked gate once they are large enough; a small tail below
// it. Every Result is ExecDirect's, and over the whole table both
// completions — the parallel walk of the dictionary's order and the
// serial fold — are driven directly too. TestPartialMonoid's cases are the
// corpus seeds.
func FuzzAggCompletion(f *testing.F) {
	for _, c := range aggEdgeCases() {
		data, ints, threshold := encodeAggCase(c)
		f.Add(data, ints, threshold)
	}
	// Over MinSize keys in the small tail, a quarter of the dictionary or
	// less: the serial completion's radix sort with keys enough to bucket.
	var many []byte
	for i := 0; i < 1200; i++ {
		many = fmt.Appendf(many, ",u%04d=%d", (i*7)%1200, i%5-2)
	}
	f.Add(many[1:], false, int64(0))
	f.Fuzz(func(t *testing.T, data []byte, ints bool, threshold int64) {
		if len(data) > 1<<13 {
			return
		}
		c := decodeAggCase(data, ints, threshold)
		tb := c.table()
		n := tb.NumRows()
		h := n / 2
		rng := rand.New(rand.NewSource(int64(len(data))))
		views := [][2]int{{0, h}, {min(h+1, n), n}, {h, n}, {0, n}, {n - n/8, n}}
		for _, vw := range views {
			v, err := tb.View(vw[0], vw[1])
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []*Query{
				{Kind: KindDistinct, Table: v, DistinctCols: []string{"key"}},
				{Kind: KindGroupByMax, Table: v, KeyCol: "key", AggCol: "val"},
				{Kind: KindGroupBySum, Table: v, KeyCol: "key", AggCol: "val"},
				{Kind: KindHaving, Table: v, KeyCol: "key", AggCol: "val", Threshold: threshold},
			} {
				want, err := ExecDirect(q)
				if q.Threshold < 0 {
					// Validation refuses a negative HAVING threshold: both
					// executors must.
					_, serr := ExecSharded(q, ShardedOptions{Shards: 2, Seed: 9})
					if err == nil || serr == nil {
						t.Fatalf("threshold %d: ExecDirect answered %v, ExecSharded %v", q.Threshold, err, serr)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 2, 3, 7} {
					label := fmt.Sprintf("%v over rows [%d, %d) of %d at k=%d", q.Kind, vw[0], vw[1], n, k)
					run, err := ExecSharded(q, ShardedOptions{Shards: k, Workers: 2, Seed: 9})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !run.Result.Equal(want) {
						t.Fatalf("%s diverges from ExecDirect\nwant:\n%s\ngot:\n%s", label, want, run.Result)
					}
					if vw == [2]int{0, n} {
						checkCompletions(t, label, q, want, k, rng)
					}
				}
			}
		}
	})
}

// TestHavingCollisions hands HAVING's second pass fingerprints that
// collide — all equal, pairwise equal, equal in their low bits, honest —
// on one partial and across merged shard partials, and requires
// execHaving's answer each time: a fingerprint only nominates, the key
// ids decide whose sum a row joins.
func TestHavingCollisions(t *testing.T) {
	for _, intKeys := range []bool{false, true} {
		keys := seqKeys(600, 0, 37)
		tb := joinKeyTable(t, intKeys, keys, nil)
		q := &Query{Kind: KindHaving, Table: tb, KeyCol: "name", AggCol: "pay", Threshold: 4800}
		want, err := execHaving(q, tb, allRows(tb))
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 || len(want.Rows) == 37 {
			t.Fatalf("threshold selects %d of 37 keys; the test is vacuous", len(want.Rows))
		}
		for fname, fp := range collidingFingerprints {
			// forced returns a partial over rows [lo, hi) of tb whose
			// fingerprint column holds the forced fingerprints, every one of
			// them a candidate, summed.
			forced := func(lo, hi int) *partial {
				v, err := tb.View(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				qv := *q
				qv.Table = v
				p := newPartial(&qv)
				p.hashKeys(0)
				p.fps = make([]uint64, 0, hi-lo)
				for _, k := range keys[lo:hi] {
					p.fps = append(p.fps, fp(k))
					p.nominate(fp(k))
				}
				p.sumCandidates(1)
				return p
			}
			whole := forced(0, len(keys))
			if got := whole.render(q); !got.Equal(want) {
				t.Fatalf("int=%v fingerprints=%s: HAVING diverges from execHaving\nwant:\n%s\ngot:\n%s", intKeys, fname, want, got)
			}
			merged := forced(0, 250)
			merged.merge(forced(250, 255))
			merged.merge(forced(255, len(keys)))
			if got := merged.render(q); !got.Equal(want) {
				t.Fatalf("int=%v fingerprints=%s: merged HAVING partials diverge from execHaving\nwant:\n%s\ngot:\n%s", intKeys, fname, want, got)
			}
		}
	}
}

// TestGroupBySumPinnedHeldSums runs GROUP BY SUM on pinned programs that
// already hold sums — for fingerprints no row carries, and one for a key
// of the table — through ExecCheetah, fused and chunked, and ExecSharded
// at k = 2: a pass sums only its own rows, so no sum renders under an
// empty key or joins a key's total, and the Result is ExecDirect's.
func TestGroupBySumPinnedHeldSums(t *testing.T) {
	const seed = 5
	tb := joinKeyTable(t, false, seqKeys(600, 0, 37), nil)
	q := &Query{Kind: KindGroupBySum, Table: tb, KeyCol: "name", AggCol: "pay"}
	want, err := ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	fps := make([]uint64, tb.NumRows())
	tb.HashKeys(0, seed, fps)
	held := func() prune.Pruner {
		pr, err := defaultShardPruner(q, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i, fp := range []uint64{1, 2, 3, fps[0]} {
			pr.(*prune.GroupBySum).FusedAdd(fp, int64(1000*(i+1)))
		}
		return pr
	}
	for _, noFuse := range []bool{false, true} {
		one, err := ExecCheetah(q, CheetahOptions{Workers: 2, Seed: seed, NoFuse: noFuse, Pruner: held()})
		if err != nil {
			t.Fatal(err)
		}
		two, err := ExecSharded(q, ShardedOptions{Shards: 2, Workers: 2, Seed: seed, NoFuse: noFuse,
			Pruners: []prune.Pruner{held(), held()}})
		if err != nil {
			t.Fatal(err)
		}
		for k, got := range []*Result{one.Result, two.Result} {
			if !got.Equal(want) {
				t.Fatalf("noFuse=%v k=%d: %d rows, ExecDirect has %d\nwant:\n%s\ngot:\n%s",
					noFuse, k+1, len(got.Rows), len(want.Rows), want, got)
			}
		}
	}
}

// collidingFingerprints force a fingerprint per key: all equal, pairwise
// equal, equal in their low bits (one probe run), honest.
var collidingFingerprints = map[string]func(key int) uint64{
	"all-equal": func(int) uint64 { return 7 },
	"pairwise":  func(key int) uint64 { return hashutil.Mix64(uint64(key / 2)) },
	"low-bits":  func(key int) uint64 { return uint64(key+1) << 40 },
	"honest":    func(key int) uint64 { return hashutil.Mix64(uint64(key)) },
}

// sliceFields calls f with every slice field of the struct v, through
// nested struct fields (not through pointers or slice elements), as a
// settable value — unexported fields included.
func sliceFields(v reflect.Value, path string, f func(path string, s reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		fv := reflect.NewAt(v.Field(i).Type(), unsafe.Pointer(v.Field(i).UnsafeAddr())).Elem()
		name := path + "." + v.Type().Field(i).Name
		switch fv.Kind() {
		case reflect.Slice:
			f(name, fv)
		case reflect.Struct:
			sliceFields(fv, name, f)
		}
	}
}

// TestPooledScratchBounded: the pooled completion state — a partial, a
// JOIN pass's scratch and a JOIN query's pair counts — never goes back to
// its pool holding a slice past poolMax, whichever of its slices one query
// grew (every slice field is tried, nested ones included, so a field added
// later is covered too); and an object within the bound keeps its scratch.
func TestPooledScratchBounded(t *testing.T) {
	defer func(n int) { poolMax = n }(poolMax)
	poolMax = 8
	// Each with the fewest slice fields the walk must find in it: fewer
	// means sliceFields missed some.
	pooled := map[string]struct {
		fields int
		mk     func() (obj any, release func())
	}{
		"partial": {8, func() (any, func()) {
			p := new(partial)
			return p, p.release
		}},
		"joinScratch": {8, func() (any, func()) {
			sc := new(joinScratch)
			return sc, sc.release
		}},
		"joinPairs": {6, func() (any, func()) {
			jp := new(joinPairs)
			return jp, jp.release
		}},
	}
	for name, pc := range pooled {
		mk := pc.mk
		obj, _ := mk()
		var fields []string
		sliceFields(reflect.ValueOf(obj).Elem(), name, func(path string, _ reflect.Value) { fields = append(fields, path) })
		if len(fields) < pc.fields {
			t.Fatalf("%s: found only %d slice fields: %v", name, len(fields), fields)
		}
		for _, grown := range append(fields, "") {
			obj, release := mk()
			// grown past the bound ("" grows nothing: every slice sits at it).
			sliceFields(reflect.ValueOf(obj).Elem(), name, func(path string, s reflect.Value) {
				n := poolMax
				if path == grown {
					n++
				}
				s.Set(reflect.MakeSlice(s.Type(), 0, n))
			})
			release()
			kept := 0
			sliceFields(reflect.ValueOf(obj).Elem(), name, func(path string, s reflect.Value) {
				if s.Cap() > poolMax {
					t.Fatalf("%s grew to %d: pooled with %s at capacity %d", grown, poolMax+1, path, s.Cap())
				}
				kept += s.Cap()
			})
			if grown == "" && kept == 0 {
				t.Fatalf("%s within the bound: release dropped all its scratch", name)
			}
		}
	}
}

// TestFpTableResetEmptySlots: a pooled partial can come back with an
// empty but non-nil slot slice (TestPooledScratchBounded pools exactly
// that), and its key tables must still reset, probe and take keys — a
// probe of zero slots indexes out of range.
func TestFpTableResetEmptySlots(t *testing.T) {
	tab := fpTable{slots: make([]keySlot[uint64], 0, 8)}
	tab.reset(nil)
	if tab.find(42) != nil {
		t.Fatal("an empty table finds a key")
	}
	if s := tab.claim(42); s.key != 42 {
		t.Fatalf("an empty table took no slot for a new key (%d slots)", len(tab.slots))
	}
}
