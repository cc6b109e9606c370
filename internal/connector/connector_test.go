package connector

import (
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cheetah/internal/engine"
	"cheetah/internal/plan"
	"cheetah/internal/table"
)

func testStreaming(t *testing.T, opts plan.StreamOptions) (*plan.Streaming, *table.Table) {
	t.Helper()
	tbl := table.MustNew(table.Schema{
		{Name: "k", Type: table.String},
		{Name: "v", Type: table.Int64},
	})
	sess, err := plan.Open(tbl, plan.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	strm, err := sess.Stream(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return strm, tbl
}

// TestFeedAndPipe wires gen → ingestor → subscription → sink and pins
// the piped standing result to a direct execution over the committed
// table.
func TestFeedAndPipe(t *testing.T) {
	strm, tbl := testStreaming(t, plan.StreamOptions{})
	rt, err := NewRuntime(strm)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	src, err := OpenSource("gen:rows=1000,batch=100,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	sink := &captureSink{}
	q := &engine.Query{Kind: engine.KindGroupBySum, Table: tbl, KeyCol: "k", AggCol: "v"}
	sub, err := rt.Pipe(context.Background(), q, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Feed(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sub.Wait(ctx, 1000); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := rt.Err(); err != nil {
		t.Fatalf("feed error: %v", err)
	}

	// The forwarder is async behind Wait: poll until the sink caught up.
	var ver uint64
	var res *engine.Result
	for {
		ver, res = sink.last()
		if ver >= 1000 || ctx.Err() != nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if ver != 1000 {
		t.Fatalf("sink saw version %d, want 1000", ver)
	}
	snap, err := tbl.SnapshotPrefix(1000)
	if err != nil {
		t.Fatal(err)
	}
	dq := *q
	dq.Table = snap
	want, err := engine.ExecDirect(&dq)
	if err != nil {
		t.Fatal(err)
	}
	want.Sort()
	got := &engine.Result{Columns: res.Columns, Rows: res.Rows}
	got.Sort()
	if !want.Equal(got) {
		t.Fatalf("piped result diverges:\nwant %v\ngot  %v", want, got)
	}
	rt.Close() // idempotent; sink must be closed exactly once
	if sink.closes != 1 {
		t.Fatalf("sink closed %d times", sink.closes)
	}
}

// TestFeedShedBackpressure pins the Shed mapping: the pump retries shed
// batches until the subscription drains, losing nothing.
func TestFeedShedBackpressure(t *testing.T) {
	strm, tbl := testStreaming(t, plan.StreamOptions{Backlog: 64, Shed: true})
	rt, err := NewRuntime(strm)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// A subscription must exist for the backlog to bind against.
	q := &engine.Query{Kind: engine.KindDistinct, Table: tbl, DistinctCols: []string{"k"}}
	sink := &captureSink{}
	sub, err := rt.Pipe(context.Background(), q, sink)
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenSource("gen:rows=500,batch=50")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Feed(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sub.Wait(ctx, 500); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := rt.Err(); err != nil {
		t.Fatalf("feed error (shed batches must be retried, not dropped): %v", err)
	}
	if got := strm.Version(); got != 500 {
		t.Fatalf("committed %d rows, want 500", got)
	}
}

// TestCSVSource round-trips a CSV file (with header) into batches.
func TestCSVSource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := csv.NewWriter(f)
	_ = w.Write([]string{"k", "v"}) // header: skipped via parse failure
	for i := 0; i < 10; i++ {
		_ = w.Write([]string{"key-" + strconv.Itoa(i%3), strconv.Itoa(i)})
	}
	w.Flush()
	f.Close()

	src, err := OpenSource("csv:path=" + path + ",batch=4")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	schema := table.Schema{{Name: "k", Type: table.String}, {Name: "v", Type: table.Int64}}
	total := 0
	var sum int64
	for {
		b, err := src.ReadBatch(context.Background(), schema)
		if err != nil {
			break
		}
		total += b.NumRows()
		for r := 0; r < b.NumRows(); r++ {
			sum += b.Int64At(1, r)
		}
	}
	if total != 10 || sum != 45 {
		t.Fatalf("csv read %d rows (sum %d), want 10 (45)", total, sum)
	}
}

// TestConnectorSpecs covers spec parsing and unknown-name errors, which
// list the built-in names.
func TestConnectorSpecs(t *testing.T) {
	if _, err := OpenSource("nope:x=1"); err == nil || !strings.Contains(err.Error(), "(have csv, gen)") {
		t.Fatalf("unknown source: %v", err)
	}
	if _, err := OpenSink("nope"); err == nil || !strings.Contains(err.Error(), "(have log, null)") {
		t.Fatalf("unknown sink: %v", err)
	}
	if _, err := OpenSource("gen:rows"); err == nil {
		t.Fatal("malformed arg accepted")
	}
	if _, err := OpenSource("gen:batch=zero"); err == nil {
		t.Fatal("non-integer arg accepted")
	}
	sink, err := OpenSink("null")
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Write(1, &engine.Result{}); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(t.TempDir(), "updates.log")
	ls, err := OpenSink("log:path=" + logPath + ",tag=q1")
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Write(7, &engine.Result{Rows: [][]string{{"a"}}}); err != nil {
		t.Fatal(err)
	}
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "q1 v7: 1 rows\n" {
		t.Fatalf("log sink wrote %q", b)
	}
}

// captureSink records the last update.
type captureSink struct {
	mu     sync.Mutex
	ver    uint64
	res    *engine.Result
	closes int
}

func (s *captureSink) Write(v uint64, r *engine.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ver, s.res = v, r
	return nil
}

func (s *captureSink) last() (uint64, *engine.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ver, s.res
}

func (s *captureSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closes++
	return nil
}
