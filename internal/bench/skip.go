package bench

// The skip target measures block skipping on the storage-side metadata
// path: a clustered Int64 column (the ingest-order layout zone maps are
// built for) is filtered at a sweep of selectivities, and each row
// reports the exact skip rate the zone maps achieved plus entries/s for
// the skipping and full-scan executors side by side. Results are
// asserted bit-identical between the two paths — the bench doubles as a
// correctness smoke.

import (
	"fmt"
	"io"
	"strconv"
	"testing"

	"cheetah/internal/boolexpr"
	"cheetah/internal/engine"
	"cheetah/internal/hashutil"
	"cheetah/internal/prune"
	"cheetah/internal/table"
)

// skipSelectivities is the sweep: 0.1%, 1%, 10%, 50% of rows selected.
var skipSelectivities = []float64{0.001, 0.01, 0.1, 0.5}

// SkipLevel is one measured (selectivity) row of the skip benchmark.
type SkipLevel struct {
	Selectivity float64
	Rows        int
	Stats       engine.SkipStats
	SkipPerSec  float64 // table entries/s through ExecDirectSkip
	ScanPerSec  float64 // table entries/s through ExecDirect
	MatchedRows int
}

// skipTable builds the benchmark table: "ts" is clustered (row index,
// the append-order layout of an ingest log), "val" is random noise so
// the scan path has real column work. The skip index is built at the
// default block size.
func skipTable(rows int, seed uint64) (*table.Table, error) {
	tb, err := table.New(table.Schema{
		{Name: "ts", Type: table.Int64},
		{Name: "val", Type: table.Int64},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		v := int64(hashutil.SplitMix64(seed^uint64(i)) % 1_000_000)
		if err := tb.AppendRow(int64(i), v); err != nil {
			return nil, err
		}
	}
	if err := tb.BuildSkipIndex(0); err != nil {
		return nil, err
	}
	return tb, nil
}

// runSkipLevel measures one selectivity: skip stats from a single
// verified run, then entries/s for the skipping and scanning executors.
func runSkipLevel(tb *table.Table, sel float64) (*SkipLevel, error) {
	rows := tb.NumRows()
	q := &engine.Query{
		Kind:  engine.KindFilter,
		Table: tb,
		Predicates: []engine.FilterPred{
			{Col: "ts", Op: prune.OpLT, Const: int64(sel * float64(rows))},
		},
		Formula:   boolexpr.Leaf{V: 0},
		CountOnly: true,
	}
	want, err := engine.ExecDirect(q)
	if err != nil {
		return nil, err
	}
	got, st, err := engine.ExecDirectSkip(q)
	if err != nil {
		return nil, err
	}
	if !want.Equal(got) {
		return nil, fmt.Errorf("bench: skip result diverges from scan at selectivity %g", sel)
	}
	matched, err := strconv.Atoi(want.Rows[0][0]) // CountOnly: single count row
	if err != nil {
		return nil, err
	}
	lv := &SkipLevel{Selectivity: sel, Rows: rows, Stats: st, MatchedRows: matched}
	for _, path := range []struct {
		name string
		f    func() error
	}{
		{"skip", func() error { _, _, err := engine.ExecDirectSkip(q); return err }},
		{"scan", func() error { _, err := engine.ExecDirect(q); return err }},
	} {
		var benchErr error
		f := path.f
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := f(); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
		if benchErr != nil {
			return nil, fmt.Errorf("bench: skip/%s: %w", path.name, benchErr)
		}
		perSec := float64(rows) / (float64(r.T.Nanoseconds()) / float64(r.N) / 1e9)
		if path.name == "skip" {
			lv.SkipPerSec = perSec
		} else {
			lv.ScanPerSec = perSec
		}
	}
	return lv, nil
}

// Skip runs the block-skipping micro-benchmark and renders one row per
// selectivity: exact skip rate, rows never read, and entries/s with
// skipping on vs a full scan.
func Skip(w io.Writer, o Options) error {
	o = o.withDefaults()
	rows := userVisitsRows / o.Scale
	if min := 8 * table.DefaultBlockRows; rows < min {
		rows = min // below ~8 blocks a skip rate is not meaningful
	}
	tb, err := skipTable(rows, o.BaseSeed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "block skipping: %d rows, clustered Int64 filter, %d-row blocks (zone maps + blooms)\n",
		rows, table.DefaultBlockRows)
	fmt.Fprintf(w, "%-12s %-10s %14s %14s %14s %14s %8s\n",
		"selectivity", "matched", "blocks skipped", "rows skipped", "skip entr/s", "scan entr/s", "speedup")
	for _, sel := range skipSelectivities {
		lv, err := runSkipLevel(tb, sel)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %-10d %8d/%-5d %14d %14.3g %14.3g %7.1fx\n",
			fmt.Sprintf("%g%%", sel*100), lv.MatchedRows,
			lv.Stats.BlocksSkipped, lv.Stats.BlocksSeen, lv.Stats.RowsSkipped,
			lv.SkipPerSec, lv.ScanPerSec, lv.SkipPerSec/lv.ScanPerSec)
	}
	return nil
}
