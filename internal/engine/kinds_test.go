package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"cheetah/internal/table"
)

// TestDefaultTopNLargeN pins the engine's default TOP N program where
// Theorem 2's premise fails for Table 2's d = 4096 matrix: at N = 50 000
// no column count is sound, so the default falls back to the
// deterministic thresholds, as the planner does, and answers exactly at
// one and two switches.
func TestDefaultTopNLargeN(t *testing.T) {
	const rows, n = 150_000, 50_000
	rng := rand.New(rand.NewSource(50))
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = rng.Int63()
	}
	tbl, err := table.FromColumns(table.Schema{{Name: "v", Type: table.Int64}}, rows,
		[]table.ColumnData{{Type: table.Int64, Ints: vals}})
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{Kind: KindTopN, Table: tbl, OrderCol: "v", N: n}
	want, err := ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2} {
		run, err := ExecSharded(q, ShardedOptions{Shards: k, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !run.Result.Equal(want) {
			t.Fatalf("k=%d: the default TOP N program's %d rows differ from ExecDirect's %d",
				k, len(run.Result.Rows), len(want.Rows))
		}
	}
}

// TestKindTable pins the table's shape: every declared kind has a whole
// entry, and the bounds check turns a kind past the table into a name and
// an error, not a panic.
func TestKindTable(t *testing.T) {
	for k := KindFilter; k <= KindSkyline; k++ {
		s := k.spec()
		if s == nil || s.name == "" || s.validate == nil || s.columns == nil || s.programs == nil {
			t.Fatalf("kind %d: no whole entry in the kind table", uint8(k))
		}
		if (s.skipTable == nil) != (s.directSkip == nil) {
			t.Fatalf("%v: a skip table without a skipping executor, or the reverse", k)
		}
	}
	for _, k := range []QueryKind{KindSkyline + 1, 255} {
		if got, want := k.String(), fmt.Sprintf("kind(%d)", uint8(k)); got != want {
			t.Fatalf("kind %d renders as %q", uint8(k), got)
		}
		if k.DeltaKind() != k {
			t.Fatalf("kind %d: delta kind %v", uint8(k), k.DeltaKind())
		}
		if err := (&Query{Kind: k, Table: table.MustNew(table.Schema{{Name: "v", Type: table.Int64}})}).Validate(); err == nil {
			t.Fatalf("kind %d validated", uint8(k))
		}
	}
}
