package engine

import (
	"fmt"
	"testing"

	"cheetah/internal/hashutil"
	"cheetah/internal/table"
)

// joinKeyTable builds a table of a key column "name" (String, or Int64
// with intKeys) and a payload column, whose row i carries key keys[i].
func joinKeyTable(t *testing.T, intKeys bool, keys []int) *table.Table {
	t.Helper()
	schema := table.Schema{{Name: "name", Type: table.String}, {Name: "pay", Type: table.Int64}}
	if intKeys {
		schema[0].Type = table.Int64
	}
	tb := table.MustNew(schema)
	for i, k := range keys {
		var key any = fmt.Sprintf("user%04d", k)
		if intKeys {
			key = int64(k)
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

// joinEdgeCase is one degenerate JOIN input shape.
type joinEdgeCase struct {
	name        string
	left, right []int
}

// joinEdgeCases are the shapes where a completion is likeliest to slip:
// an empty side, no common key, every row on one key, and the planner's
// asymmetric shape (left·8 ≤ right).
func joinEdgeCases() []joinEdgeCase {
	return []joinEdgeCase{
		{"empty-left", nil, seqKeys(300, 0, 40)},
		{"empty-right", seqKeys(300, 0, 40), nil},
		{"both-empty", nil, nil},
		{"no-common-key", seqKeys(400, 0, 50), seqKeys(300, 1000, 60)},
		{"one-key", seqKeys(350, 7, 1), seqKeys(90, 7, 1)},
		{"small-left", seqKeys(60, 20, 30), seqKeys(900, 0, 200)},
		{"partial-overlap", seqKeys(700, 0, 120), seqKeys(500, 80, 150)},
	}
}

// joinEdgeQuery binds an edge case to tables, the right one carrying a
// skip index of several blocks so Skip has something to decide.
func joinEdgeQuery(t *testing.T, c joinEdgeCase, intKeys bool) *Query {
	t.Helper()
	right := joinKeyTable(t, intKeys, c.right)
	if err := right.BuildSkipIndex(64); err != nil {
		t.Fatal(err)
	}
	return &Query{
		Kind: KindJoin, Table: joinKeyTable(t, intKeys, c.left), Right: right,
		LeftKey: "name", RightKey: "name",
	}
}

// TestCompleteJoinCollisions hands completeJoin fingerprints that
// collide — all equal, pairwise equal, and honest — and requires
// execJoin's answer each time: the fingerprint may only preselect, the
// key cells decide.
func TestCompleteJoinCollisions(t *testing.T) {
	fingerprints := map[string]func(key int) uint64{
		"all-equal": func(int) uint64 { return 7 },
		"pairwise":  func(key int) uint64 { return hashutil.Mix64(uint64(key / 2)) },
		"low-bits":  func(key int) uint64 { return uint64(key) << 40 },
		"honest":    func(key int) uint64 { return hashutil.Mix64(uint64(key)) },
	}
	for _, intKeys := range []bool{false, true} {
		for _, c := range joinEdgeCases() {
			q := joinEdgeQuery(t, c, intKeys)
			left, right := allRows(q.Table), allRows(q.Right)
			want, err := execJoin(q, left, right)
			if err != nil {
				t.Fatal(err)
			}
			for fname, fp := range fingerprints {
				sc := &joinScratch{left: joinSide{rows: left}, right: joinSide{rows: right}}
				for _, k := range c.left {
					sc.left.fps = append(sc.left.fps, fp(k))
				}
				for _, k := range c.right {
					sc.right.fps = append(sc.right.fps, fp(k))
				}
				rows, err := completeJoin(q, sc)
				if err != nil {
					t.Fatal(err)
				}
				if got := joinResult(q, rows); !got.Equal(want) {
					t.Fatalf("%s int=%v fingerprints=%s: completeJoin diverges from execJoin\nwant:\n%s\ngot:\n%s",
						c.name, intKeys, fname, want, got)
				}
			}
		}
	}
}

// TestCompleteJoinMixedKeyTypes: keys of different column types join
// through their rendered text, which only execJoin implements.
func TestCompleteJoinMixedKeyTypes(t *testing.T) {
	ints := joinKeyTable(t, true, seqKeys(50, 0, 10))
	strs := table.MustNew(table.Schema{{Name: "name", Type: table.String}})
	for i := 0; i < 30; i++ {
		if err := strs.AppendRow(fmt.Sprint(i % 15)); err != nil {
			t.Fatal(err)
		}
	}
	q := &Query{Kind: KindJoin, Table: ints, Right: strs, LeftKey: "name", RightKey: "name"}
	want, err := execJoin(q, allRows(ints), allRows(strs))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := completeJoinRows(q, 3, allRows(ints), allRows(strs))
	if err != nil {
		t.Fatal(err)
	}
	if got := joinResult(q, rows); !got.Equal(want) || len(want.Rows) == 0 {
		t.Fatalf("mixed key types diverge\nwant:\n%s\ngot:\n%s", want, got)
	}
}
