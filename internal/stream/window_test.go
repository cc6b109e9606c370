package stream

import (
	"fmt"
	"testing"

	"cheetah/internal/engine"
	"cheetah/internal/table"
	"cheetah/internal/workload/multitenant"
)

// windowGroundTruth runs q from scratch over rows [lo, hi) of src.
func windowGroundTruth(t *testing.T, q *engine.Query, src *table.Table, lo, hi uint64) *engine.Result {
	t.Helper()
	v, err := src.View(int(lo), int(hi))
	if err != nil {
		t.Fatal(err)
	}
	qw := *q
	qw.Table = v
	res, err := engine.ExecDirect(&qw)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWindowedEquivalence pins the windowed invariant for the aggregate
// kinds: after every append, the fired window result is bit-identical
// to a from-scratch run over exactly the window's row range — tumbling
// (window == slide) and sliding (window = k·slide, oldest pane
// retracted on each slide).
func TestWindowedEquivalence(t *testing.T) {
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 1200, RankRows: 500, Seed: 0xabc})
	if err != nil {
		t.Fatal(err)
	}
	// Kind indices of the mix: 2=TOPN, 3=GBMAX, 4=GBSUM, 5=HAVING.
	for _, kind := range []int{2, 3, 4, 5} {
		for _, shape := range []struct{ window, slide int }{
			{200, 200}, // tumbling
			{300, 100}, // sliding, 3 panes
		} {
			base := mix.Query(kind)
			name := fmt.Sprintf("%v/w=%d,s=%d", base.Kind, shape.window, shape.slide)
			t.Run(name, func(t *testing.T) {
				target, err := table.New(mix.Visits.Schema())
				if err != nil {
					t.Fatal(err)
				}
				in, err := NewIngestor(target, Config{})
				if err != nil {
					t.Fatal(err)
				}
				defer in.Close()
				q := *base
				q.Table = target
				sub, err := in.Subscribe(&q, SubOptions{
					Window: shape.window, Slide: shape.slide,
				})
				if err != nil {
					t.Fatal(err)
				}
				// Deliberately misaligned batches: panes must split them.
				const chunk = 73
				n := mix.Visits.NumRows()
				for lo := 0; lo < n; lo += chunk {
					hi := lo + chunk
					if hi > n {
						hi = n
					}
					v, err := mix.Visits.View(lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					if err := in.AppendBatch(v); err != nil {
						t.Fatal(err)
					}
					flush(t, sub)
					wlo, whi := sub.WindowBounds()
					got, ver := sub.Results()
					if whi == 0 {
						// No pane completed yet: the window renders empty.
						if len(got.Rows) != 0 && q.Kind != engine.KindHaving {
							t.Fatalf("unfired window has %d rows", len(got.Rows))
						}
						continue
					}
					if ver != whi {
						t.Fatalf("result version %d != window end %d", ver, whi)
					}
					if span := whi - wlo; span > uint64(shape.window) || whi%uint64(shape.slide) != 0 {
						t.Fatalf("window bounds [%d,%d) malformed", wlo, whi)
					}
					want := windowGroundTruth(t, &q, mix.Visits, wlo, whi)
					mustEqual(t, fmt.Sprintf("window [%d,%d)", wlo, whi), got, want)
				}
				// At least one full-width window must have fired and slid.
				if _, whi := sub.WindowBounds(); whi < uint64(shape.window) {
					t.Fatalf("window never reached full width (end=%d)", whi)
				}
			})
		}
	}
}

// TestWindowValidation pins the window option contract.
func TestWindowValidation(t *testing.T) {
	tb := table.MustNew(table.Schema{{Name: "k", Type: table.String}, {Name: "v", Type: table.Int64}})
	in, err := NewIngestor(tb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	agg := &engine.Query{Kind: engine.KindGroupBySum, Table: tb, KeyCol: "k", AggCol: "v"}
	for _, bad := range []struct{ w, s int }{{0, 5}, {5, 0}, {-2, 2}, {10, 3}} {
		if _, err := in.Subscribe(agg, SubOptions{Window: bad.w, Slide: bad.s}); err == nil {
			t.Fatalf("window %d/%d should be rejected", bad.w, bad.s)
		}
	}
	distinct := &engine.Query{Kind: engine.KindDistinct, Table: tb, DistinctCols: []string{"k"}}
	if _, err := in.Subscribe(distinct, SubOptions{Window: 10, Slide: 5}); err == nil {
		t.Fatal("windowed DISTINCT should be rejected (aggregate kinds only)")
	}
	ok, err := in.Subscribe(agg, SubOptions{Window: 10, Slide: 5})
	if err != nil {
		t.Fatal(err)
	}
	if w, s := ok.Window(); w != 10 || s != 5 {
		t.Fatalf("Window() = %d/%d", w, s)
	}
}

// TestWindowRetraction pins the retraction semantics directly: a key
// whose rows all fall out of the sliding window disappears from the
// standing result.
func TestWindowRetraction(t *testing.T) {
	tb := table.MustNew(table.Schema{{Name: "k", Type: table.String}, {Name: "v", Type: table.Int64}})
	in, err := NewIngestor(tb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	q := &engine.Query{Kind: engine.KindGroupBySum, Table: tb, KeyCol: "k", AggCol: "v"}
	sub, err := in.Subscribe(q, SubOptions{Window: 4, Slide: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Window covers 4 rows sliding by 2: "old" fills rows 0-3, then
	// "new" rows push it out entirely.
	for i := 0; i < 4; i++ {
		if err := in.Append("old", int64(10)); err != nil {
			t.Fatal(err)
		}
	}
	flush(t, sub)
	res, _ := sub.Results()
	if len(res.Rows) != 1 || res.Rows[0][0] != "old" || res.Rows[0][1] != "40" {
		t.Fatalf("full window = %v, want old=40", res.Rows)
	}
	for i := 0; i < 4; i++ {
		if err := in.Append("new", int64(1)); err != nil {
			t.Fatal(err)
		}
	}
	flush(t, sub)
	res, _ = sub.Results()
	if len(res.Rows) != 1 || res.Rows[0][0] != "new" || res.Rows[0][1] != "4" {
		t.Fatalf("slid window = %v, want new=4 (old fully retracted)", res.Rows)
	}
}
