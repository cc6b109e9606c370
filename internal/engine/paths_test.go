package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cheetah/internal/boolexpr"
	"cheetah/internal/prune"
	"cheetah/internal/table"
)

// pathsInts and pathsStrs are FuzzPathsAgree's cell alphabets: the int64
// extremes and their neighbours, small values that collide often, and
// strings that are empty, NUL-bearing or prefixes of one another.
var (
	pathsInts = []int64{0, 1, -1, 2, 7, 42, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	pathsStrs = []string{"", "\x00", "a", "a\x00", "ab", "abc", "b", "\x00a", "7", "a%"}
)

// pathsInput is one decoded FuzzPathsAgree case: a left table
// (ks String, ki Int64, v Int64, w Int64) and a right one (rk, x Int64)
// whose key rk is String or Int64, so that exactly one of ks ⋈ rk and
// ki ⋈ rk joins same-typed keys.
type pathsInput struct {
	left, right *table.Table
	flags       byte // bit 0: rk is String; bits 1–2: workers − 1
	filter, n   byte
}

// decodePaths reads data as: flags, left rows, right rows (0–300 each,
// scaled from one byte), the filter's operator and constant, TOP N's N,
// then one byte per cell, cycling through the remaining bytes (none left:
// every cell is the alphabet's first).
func decodePaths(data []byte) pathsInput {
	hdr := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	in := pathsInput{flags: hdr(0), filter: hdr(3), n: hdr(4)}
	cells := data[min(len(data), 5):]
	next := 0
	cell := func() int {
		if len(cells) == 0 {
			return 0
		}
		b := cells[next%len(cells)]
		next++
		return int(b)
	}
	in.left = table.MustNew(table.Schema{
		{Name: "ks", Type: table.String},
		{Name: "ki", Type: table.Int64},
		{Name: "v", Type: table.Int64},
		{Name: "w", Type: table.Int64},
	})
	for range int(hdr(1)) * 300 / 255 {
		ks, ki, v, w := pathsStrs[cell()%len(pathsStrs)], pathsInts[cell()%len(pathsInts)],
			pathsInts[cell()%len(pathsInts)], pathsInts[cell()%len(pathsInts)]
		if err := in.left.AppendRow(ks, ki, v, w); err != nil {
			panic(err)
		}
	}
	rkType := table.Int64
	if in.flags&1 != 0 {
		rkType = table.String
	}
	in.right = table.MustNew(table.Schema{{Name: "rk", Type: rkType}, {Name: "x", Type: table.Int64}})
	for range int(hdr(2)) * 300 / 255 {
		var rk any = pathsInts[cell()%len(pathsInts)]
		if rkType == table.String {
			rk = pathsStrs[cell()%len(pathsStrs)]
		}
		if err := in.right.AppendRow(rk, pathsInts[cell()%len(pathsInts)]); err != nil {
			panic(err)
		}
	}
	return in
}

// queries returns every kind over the case's tables, plus COUNT(*), a
// LIKE filter, a multi-column DISTINCT, a TOP N past the row count, a
// HAVING whose threshold equals some key's sum and both joins.
func (in pathsInput) queries() map[string]*Query {
	l := in.left
	op := prune.CmpOp(in.filter % 6)
	c := pathsInts[int(in.filter/6)%len(pathsInts)]
	// HAVING's threshold is one key's exact sum (wrapping like the
	// executors'), so that the strict > decides a key on its boundary;
	// thresholds are non-negative, so the drawn key's sum is too.
	sums := map[string]int64{}
	for r := range l.NumRows() {
		sums[l.StringAt(0, r)] += l.Int64At(2, r)
	}
	var candidates []int64
	for _, v := range sums {
		if v >= 0 {
			candidates = append(candidates, v)
		}
	}
	slices.Sort(candidates)
	var threshold int64
	if len(candidates) > 0 {
		threshold = candidates[int(in.flags>>3)%len(candidates)]
	}
	return map[string]*Query{
		"filter": {Kind: KindFilter, Table: l,
			Predicates: []FilterPred{{Col: "v", Op: op, Const: c}, {Col: "w", Op: prune.OpLE, Const: c}, {Col: "ks", Like: "a%"}},
			Formula:    boolexpr.Or{boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}}, boolexpr.Leaf{V: 2}}},
		"filter-count": {Kind: KindFilter, Table: l, CountOnly: true,
			Predicates: []FilterPred{{Col: "ki", Op: op, Const: c}}, Formula: boolexpr.Leaf{V: 0}},
		"filter-like": {Kind: KindFilter, Table: l,
			Predicates: []FilterPred{{Col: "ks", Like: "%\x00%"}}, Formula: boolexpr.Leaf{V: 0}},
		"distinct":       {Kind: KindDistinct, Table: l, DistinctCols: []string{"ks"}},
		"distinct-multi": {Kind: KindDistinct, Table: l, DistinctCols: []string{"ks", "ki", "ks"}},
		"topn":           {Kind: KindTopN, Table: l, OrderCol: "v", N: 1 + int(in.n%16)},
		"topn-past-rows": {Kind: KindTopN, Table: l, OrderCol: "w", N: l.NumRows() + 1 + int(in.n%3)},
		"groupby-max":    {Kind: KindGroupByMax, Table: l, KeyCol: "ks", AggCol: "v"},
		"groupby-sum":    {Kind: KindGroupBySum, Table: l, KeyCol: "ki", AggCol: "v"},
		"having":         {Kind: KindHaving, Table: l, KeyCol: "ks", AggCol: "v", Threshold: threshold},
		"join-string":    {Kind: KindJoin, Table: l, Right: in.right, LeftKey: "ks", RightKey: "rk"},
		"join-int":       {Kind: KindJoin, Table: l, Right: in.right, LeftKey: "ki", RightKey: "rk"},
		"skyline":        {Kind: KindSkyline, Table: l, SkylineCols: []string{"v", "w"}},
	}
}

// FuzzPathsAgree runs every query kind over generated tables down every
// execution path: the scalar reference, the chunked pipeline (NoFuse),
// the fused loops and ExecSharded at k = 2 and k = 7 each equal
// ExecDirect; at one switch the scalar and chunked Traffic and Stats are
// equal, and the fused ones too except randomized TOP N's (its fused RNG
// draws from a counter-indexed stream). A JOIN of Int64 and String keys
// gets MixedJoinKeys's error on every pruned path instead.
func FuzzPathsAgree(f *testing.F) {
	f.Add([]byte{})                             // empty tables
	f.Add([]byte{0, 1, 1, 0, 0, 3, 4, 6, 2, 5}) // one row each
	f.Add([]byte{1, 255, 255, 7, 2, 4})         // 300 rows of one repeated cell
	f.Add([]byte{3, 128, 40, 13, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodePaths(data)
		workers := 1 + int(in.flags>>1&3)
		for name, q := range in.queries() {
			label := fmt.Sprintf("%s (%d⋈%d rows, workers %d)", name, in.left.NumRows(), in.right.NumRows(), workers)
			want, err := ExecDirect(q)
			if err != nil {
				t.Fatalf("%s: direct: %v", label, err)
			}
			mixed := MixedJoinKeys(q)
			paths := []struct {
				name string
				exec func() (*ShardedRun, error)
			}{
				{"scalar", func() (*ShardedRun, error) {
					return scalarRef(q, CheetahOptions{Workers: workers, Seed: 5})
				}},
				{"chunked", func() (*ShardedRun, error) {
					return ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 5, NoFuse: true})
				}},
				{"fused", func() (*ShardedRun, error) { return ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 5}) }},
				{"k=2", func() (*ShardedRun, error) {
					return ExecSharded(q, ShardedOptions{Shards: 2, Workers: workers, Seed: 5})
				}},
				{"k=7", func() (*ShardedRun, error) {
					return ExecSharded(q, ShardedOptions{Shards: 7, Workers: workers, Seed: 5})
				}},
			}
			runs := map[string]*ShardedRun{}
			for _, p := range paths {
				run, err := p.exec()
				if mixed != nil {
					if err == nil || err.Error() != mixed.Error() {
						t.Fatalf("%s %s: mixed-type join keys: got %v, want %v", label, p.name, err, mixed)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s %s: %v", label, p.name, err)
				}
				if !run.Result.Equal(want) {
					t.Fatalf("%s %s diverges from ExecDirect\nwant:\n%s\ngot:\n%s", label, p.name, want, run.Result)
				}
				runs[p.name] = run
			}
			if mixed != nil {
				continue
			}
			scalar := runs["scalar"]
			for _, p := range []string{"chunked", "fused"} {
				if p == "fused" && q.Kind == KindTopN {
					continue
				}
				if r := runs[p]; r.Traffic != scalar.Traffic || r.Stats != scalar.Stats {
					t.Fatalf("%s %s: traffic %+v stats %+v, scalar %+v %+v", label, p, r.Traffic, r.Stats, scalar.Traffic, scalar.Stats)
				}
			}
		}
	})
}
