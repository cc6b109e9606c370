package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"cheetah/internal/hashutil"
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
	t := p.tables[0]
	fps := p.hashKeys(seed)
	vc := -1
	if q.Kind != KindDistinct {
		vc = t.Schema().MustIndex(q.AggCol)
	}
	for r := 0; r < t.NumRows(); r++ {
		switch fp := fps[r]; q.Kind {
		case KindDistinct:
			p.absorbFirst(fp, r)
		case KindGroupByMax:
			p.absorbMax(fp, t.Int64At(vc, r), r)
		case KindGroupBySum:
			p.absorbSum(fp, t.Int64At(vc, r))
		case KindHaving:
			p.slot(fp)
		}
	}
	switch q.Kind {
	case KindGroupBySum:
		p.resolve(seed)
	case KindHaving:
		p.sumCandidates(vc, seed)
	}
}

// TestPartialMonoid: for every aggregation kind, splitting a table's
// rows at random into k parts, absorbing each part into its own partial
// and merging the partials in a random order renders what one partial
// over the whole table renders, which is ExecDirect's answer — absorb
// and merge form a commutative monoid and agree with the oracle.
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
			// Deal the rows to k part tables at random.
			parts := make([][]int, k)
			for r := 0; r < q.Table.NumRows(); r++ {
				i := rng.Intn(k)
				parts[i] = append(parts[i], r)
			}
			partials := make([]*partial, k)
			for i, rows := range parts {
				pt := table.MustNew(q.Table.Schema())
				if err := pt.AppendRowsFrom(q.Table, rows); err != nil {
					t.Fatal(err)
				}
				qp := *q
				qp.Table = pt
				partials[i] = newPartial(&qp)
				absorbAll(&qp, partials[i], 9)
			}
			rng.Shuffle(k, func(a, b int) { partials[a], partials[b] = partials[b], partials[a] })
			// Merge as a left fold and as a fold of two halves: the same
			// partials, untouched by being merged, serve both.
			fold := func(ps []*partial) *partial {
				acc := newPartial(q)
				for _, p := range ps {
					acc.merge(p)
				}
				return acc
			}
			left := fold(partials)
			halves := fold([]*partial{fold(partials[k/2:]), fold(partials[:k/2])})
			for label, m := range map[string]*partial{"left fold": left, "halves": halves} {
				if got := m.render(q); !got.Equal(want) {
					t.Fatalf("%s k=%d %s: merged partials diverge from ExecDirect\nwant:\n%s\ngot:\n%s", name, k, label, want, got)
				}
			}
		}
	}
}

// TestHavingCollisions hands HAVING's second pass fingerprints that
// collide — all equal, pairwise equal, equal in their low bits, honest —
// on one partial and across merged shard partials, and requires
// execHaving's answer each time: a fingerprint only nominates, the key
// cells decide whose sum a row joins.
func TestHavingCollisions(t *testing.T) {
	fingerprints := map[string]func(key int) uint64{
		"all-equal": func(int) uint64 { return 7 },
		"pairwise":  func(key int) uint64 { return hashutil.Mix64(uint64(key / 2)) },
		"low-bits":  func(key int) uint64 { return uint64(key+1) << 40 },
		"honest":    func(key int) uint64 { return hashutil.Mix64(uint64(key)) },
	}
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
		for fname, fp := range fingerprints {
			// forced returns a partial over rows [lo, hi) of tb whose
			// hash-once column holds the forced fingerprints, every one of
			// them a candidate, summed.
			forced := func(lo, hi int) *partial {
				v, err := tb.View(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				qv := *q
				qv.Table = v
				p := newPartial(&qv)
				p.fps, p.hashed = p.fps[:0], true
				for _, k := range keys[lo:hi] {
					p.fps = append(p.fps, fp(k))
					p.slot(fp(k))
				}
				p.sumCandidates(1, 0)
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

// TestPooledScratchBounded: the two pooled completions — a partial and a
// JOIN's scratch — never go back to their pool holding a slice past
// poolMax, whichever of their slices one query grew (every slice field
// is tried, nested ones included, so a field added later is covered too);
// and an object within the bound keeps its scratch.
func TestPooledScratchBounded(t *testing.T) {
	defer func(n int) { poolMax = n }(poolMax)
	poolMax = 8
	pooled := map[string]func() (obj any, release func()){
		"partial": func() (any, func()) {
			p := new(partial)
			return p, p.release
		},
		"joinScratch": func() (any, func()) {
			sc := new(joinScratch)
			return sc, sc.release
		},
	}
	for name, mk := range pooled {
		obj, _ := mk()
		var fields []string
		sliceFields(reflect.ValueOf(obj).Elem(), name, func(path string, _ reflect.Value) { fields = append(fields, path) })
		if len(fields) < 8 {
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
// that), and reset must still leave slots to probe — a probe of zero
// slots indexes out of range.
func TestFpTableResetEmptySlots(t *testing.T) {
	tab := fpTable{slots: make([]fpSlot, 0, 8)}
	tab.reset()
	if len(tab.slots) == 0 || tab.find(42) != 0 {
		t.Fatalf("reset left %d slots", len(tab.slots))
	}
}
