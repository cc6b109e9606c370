package plan

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cheetah/internal/engine"
	"cheetah/internal/prune"
	"cheetah/internal/table"
	"cheetah/internal/workload"
)

// TestExecutionSkipStats is the acceptance check: a selective WHERE
// over the bench table reports RowsSkipped > 0 on the Execution, the
// result stays bit-identical to a no-skip direct run, and Explain
// prints the skip plan.
func TestExecutionSkipStats(t *testing.T) {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(20_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := uv.BuildSkipIndex(512); err != nil {
		t.Fatal(err)
	}
	ix := uv.SkipIndex()
	s, err := Open(uv, Options{Workers: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if uv.SkipIndex() != ix {
		t.Fatal("Open replaced the skip index the table carried")
	}

	q, err := s.Select().Where("adRevenue", prune.OpGT, 300_000).Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := s.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Plan.Skip {
		t.Fatalf("plan did not enable skipping: %s", ex.Plan)
	}
	if !want.Equal(ex.Result) {
		t.Fatal("skipped execution diverges from direct")
	}
	if ex.RowsSkipped == 0 || ex.BlocksSkipped == 0 {
		t.Fatalf("selective WHERE skipped nothing: %+v", ex.SkipStats)
	}
	exp := ex.Explain()
	if !strings.Contains(exp, "skip:") || !strings.Contains(exp, "blocks skipped") {
		t.Fatalf("Explain omits the skip plan:\n%s", exp)
	}
}

// TestStreamingSkipStats pins skip accounting through a subscription:
// mid-subscription appends grow the tail block, the index refreshes on
// the snapshot path, deltas skip, and the standing result matches a
// from-scratch direct run.
func TestStreamingSkipStats(t *testing.T) {
	src, err := workload.UserVisits(workload.DefaultUserVisits(6_000, 5))
	if err != nil {
		t.Fatal(err)
	}
	target, err := table.New(src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := target.BuildSkipIndex(256); err != nil {
		t.Fatal(err)
	}
	s, err := Open(target, Options{Workers: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := streamCtx(t)
	st, err := s.Stream(ctx, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.Select().Where("adRevenue", prune.OpGT, 300_000).Build()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := st.Subscribe(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Plan().Skip {
		t.Fatalf("subscription plan did not enable skipping: %s", sub.Plan())
	}
	// Batch sizes deliberately misaligned with the 256-row block size:
	// deltas start and end mid-block, and the tail block grows across
	// deltas.
	appendInChunks(t, st, src, 413)
	if err := sub.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	fq := *q
	fq.Table = src
	want, err := engine.ExecDirect(&fq)
	if err != nil {
		t.Fatal(err)
	}
	got, ver := sub.Results()
	if ver != uint64(src.NumRows()) {
		t.Fatalf("version=%d, want %d", ver, src.NumRows())
	}
	if !want.Equal(got) {
		t.Fatal("standing result diverges from from-scratch direct run")
	}
	if sk := sub.Skipped(); sk.RowsSkipped == 0 {
		t.Fatalf("subscription deltas skipped nothing: %+v", sk)
	}
}

// TestServedSkipStats pins that the served path consults the skip index
// like every other path that reads the table: over a clustered, indexed
// table a range FILTER, a TOP N and a JOIN submitted through a serving
// handle skip blocks, account for exactly what Session.Exec accounts for
// at one switch, and equal ExecDirect.
func TestServedSkipStats(t *testing.T) {
	// score falls monotonically, so zone maps partition the value space
	// cleanly across blocks and the first block saturates a TOP N heap.
	tb := table.MustNew(table.Schema{
		{Name: "score", Type: table.Int64},
		{Name: "key", Type: table.String},
	})
	for i := 0; i < 4096; i++ {
		if err := tb.AppendRow(int64(4096-i), fmt.Sprintf("k%05d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// The JOIN's build side covers one probe block's score range.
	small := table.MustNew(tb.Schema())
	for i := 0; i < 256; i++ {
		if err := small.AppendRow(int64(i), fmt.Sprintf("k%05d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, tbl := range []*table.Table{tb, small} {
		if err := tbl.BuildSkipIndex(256); err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{Workers: 2, Seed: 7}
	db, err := Open(tb, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	dbSmall, err := Open(small, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer dbSmall.Close()
	for _, c := range []struct {
		label string
		s     *Session
		b     *Builder
	}{
		{"filter-range", db, db.Select().Where("score", prune.OpGE, 100).Where("score", prune.OpLT, 400)},
		{"topn", db, db.Select().TopN("score", 10)},
		{"join", dbSmall, dbSmall.Select().Join(tb, "score", "score")},
	} {
		q, err := c.b.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		want, err := engine.ExecDirect(q)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		local, err := c.s.Exec(ctx, q)
		if err != nil {
			t.Fatalf("%s: Exec: %v", c.label, err)
		}
		served, err := c.s.Submit(ctx, q)
		if err != nil {
			t.Fatalf("%s: Submit: %v", c.label, err)
		}
		if !served.Plan.Skip || served.Plan.Mode != ModeCheetah || served.QueryID == 0 {
			t.Fatalf("%s: served plan did not run pruned with skipping: %s", c.label, served.Plan)
		}
		if !want.Equal(served.Result) || !want.Equal(local.Result) {
			t.Fatalf("%s: result diverges from ExecDirect", c.label)
		}
		if served.BlocksSkipped == 0 || served.RowsSkipped == 0 {
			t.Fatalf("%s: served execution skipped nothing: %+v\n%s", c.label, served.SkipStats, served.Explain())
		}
		if served.SkipStats != local.SkipStats || served.Traffic != local.Traffic || served.Stats != local.Stats {
			t.Fatalf("%s: served accounting differs from Exec at one switch\nserved: %+v %+v %+v\n  exec: %+v %+v %+v",
				c.label, served.SkipStats, served.Traffic, served.Stats, local.SkipStats, local.Traffic, local.Stats)
		}
	}
}
