package stream

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cheetah/internal/engine"
	"cheetah/internal/table"
	"cheetah/internal/workload/multitenant"
)

// newEmptyLike builds an empty root table with src's schema.
func newEmptyLike(t *testing.T, src *table.Table) *table.Table {
	t.Helper()
	tb, err := table.New(src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// mustEqual fails unless got is bit-identical to want.
func mustEqual(t *testing.T, ctx string, got, want *engine.Result) {
	t.Helper()
	if got == nil || !want.Equal(got) {
		t.Fatalf("%s: standing result diverged\n got: %v\nwant: %v", ctx, got, want)
	}
}

// flush waits until sub's pump has folded every committed row. The test
// is the only appender, so the rows appended since the previous flush
// are one delta.
func flush(t testing.TB, sub *Subscription) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sub.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// gate is a DeltaExec that holds every delta back until release: the
// backpressure tests keep a subscription's backlog standing with it.
func gate() (exec DeltaExec, release func()) {
	ch := make(chan struct{})
	var once sync.Once
	return func(dq *engine.Query) (*engine.Result, error) {
		<-ch
		return DirectExec(dq)
	}, func() { once.Do(func() { close(ch) }) }
}

// schedules enumerates the delta schedules of the property suite: one
// big batch, many small batches, the same with the standing result
// rendered after every delta (each snapshot then applies a small change
// to the last), and small batches with a second subscription registered
// mid-stream.
var schedules = []string{"one-big", "many-small", "rendered", "interleaved"}

// runSchedule drives rows of src into the ingestor per the schedule,
// flushing the subscription(s) after each append so that every batch is
// one delta, and returns every live subscription (the interleaved
// schedule registers a second one mid-stream via subscribe).
func runSchedule(t *testing.T, in *Ingestor, src *table.Table, schedule string,
	sub *Subscription, subscribe func() *Subscription) []*Subscription {
	t.Helper()
	subs := []*Subscription{sub}
	flushAll := func() {
		for _, s := range subs {
			flush(t, s)
		}
	}
	n := src.NumRows()
	appendRange := func(lo, hi int) {
		v, err := src.View(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.AppendBatch(v); err != nil {
			t.Fatalf("append [%d,%d): %v", lo, hi, err)
		}
	}
	switch schedule {
	case "one-big":
		appendRange(0, n)
		flushAll()
	case "many-small", "rendered":
		const chunk = 97
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			appendRange(lo, hi)
			flushAll()
			if schedule == "rendered" {
				for _, s := range subs {
					s.Results()
				}
			}
		}
	case "interleaved":
		appendRange(0, n/2)
		flushAll()
		late := subscribe()
		subs = append(subs, late)
		flush(t, late) // its catch-up over the committed prefix is one delta
		const chunk = 61
		for lo := n / 2; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			appendRange(lo, hi)
			flushAll()
		}
	default:
		t.Fatalf("unknown schedule %q", schedule)
	}
	return subs
}

// TestIncrementalEquivalence is the stream-layer half of the property
// suite: for all 8 kinds × delta schedules × seeds, the standing result
// after any append schedule is bit-identical to running the query from
// scratch on the full prefix — with the exact executor and with the
// batched pruned executor (standing switch state across deltas).
func TestIncrementalEquivalence(t *testing.T) {
	execs := map[string]func(seed uint64) DeltaExec{
		"direct": func(uint64) DeltaExec { return DirectExec },
		"cheetah": func(seed uint64) DeltaExec {
			return func(dq *engine.Query) (*engine.Result, error) {
				run, err := engine.ExecCheetah(dq, engine.CheetahOptions{Workers: 2, Seed: seed})
				if err != nil {
					return nil, err
				}
				return run.Result, nil
			}
		},
	}
	for execName, mkExec := range execs {
		for _, seed := range []uint64{1, 0xbeef, 42} {
			mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 1500, RankRows: 700, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for kind := 0; kind < multitenant.NumKinds; kind++ {
				for _, schedule := range schedules {
					name := fmt.Sprintf("%s/seed=%#x/%v/%s", execName, seed, mix.Query(kind).Kind, schedule)
					t.Run(name, func(t *testing.T) {
						target := newEmptyLike(t, mix.Visits)
						in, err := NewIngestor(target, Config{})
						if err != nil {
							t.Fatal(err)
						}
						defer in.Close()
						q := *mix.Query(kind)
						q.Table = target
						subscribe := func() *Subscription {
							s, err := in.Subscribe(&q, SubOptions{Exec: mkExec(seed)})
							if err != nil {
								t.Fatal(err)
							}
							return s
						}
						subs := runSchedule(t, in, mix.Visits, schedule, subscribe(), subscribe)

						full := *mix.Query(kind) // from-scratch ground truth on the full prefix
						want, err := engine.ExecDirect(&full)
						if err != nil {
							t.Fatal(err)
						}
						for i, s := range subs {
							got, ver := s.Results()
							if ver != uint64(mix.Visits.NumRows()) {
								t.Fatalf("sub %d version = %d, want %d", i, ver, mix.Visits.NumRows())
							}
							mustEqual(t, fmt.Sprintf("sub %d", i), got, want)
						}
					})
				}
			}
		}
	}
}

func TestIngestorSnapshotVersioning(t *testing.T) {
	tb := table.MustNew(table.Schema{{Name: "v", Type: table.Int64}})
	in, err := NewIngestor(tb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if err := in.Append(int64(1)); err != nil {
		t.Fatal(err)
	}
	snap, ver, err := in.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 || snap.NumRows() != 1 {
		t.Fatalf("snapshot ver=%d rows=%d, want 1/1", ver, snap.NumRows())
	}
	// Later appends stay invisible to the captured snapshot.
	for i := 0; i < 100; i++ {
		if err := in.Append(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if snap.NumRows() != 1 || snap.Int64At(0, 0) != 1 {
		t.Fatalf("snapshot mutated: rows=%d", snap.NumRows())
	}
	if got := in.Version(); got != 101 {
		t.Fatalf("version = %d, want 101", got)
	}
}

func TestIngestorRejectsViewsAndExternalMutation(t *testing.T) {
	tb := table.MustNew(table.Schema{{Name: "v", Type: table.Int64}})
	if err := tb.AppendInt64Row(1); err != nil {
		t.Fatal(err)
	}
	v, err := tb.View(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIngestor(v, Config{}); err == nil {
		t.Fatal("ingestor over a view should fail")
	}
	in, err := NewIngestor(tb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	// An append that bypasses the ingestor is detected on the next commit.
	if err := tb.AppendInt64Row(2); err != nil {
		t.Fatal(err)
	}
	if err := in.Append(int64(3)); err == nil {
		t.Fatal("append after external mutation should fail")
	}
}

func TestBackpressureShed(t *testing.T) {
	tb := table.MustNew(table.Schema{{Name: "v", Type: table.Int64}})
	in, err := NewIngestor(tb, Config{Backlog: 5, OnFull: Shed})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	q := &engine.Query{Kind: engine.KindTopN, Table: tb, OrderCol: "v", N: 3}
	exec, release := gate()
	defer release()
	sub, err := in.Subscribe(q, SubOptions{Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := in.Append(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Append(int64(99)); !errors.Is(err, ErrBacklog) {
		t.Fatalf("overflow append err = %v, want ErrBacklog", err)
	}
	if st := in.Stats(); st.Backlog != 5 || st.Subscriptions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Draining frees capacity; the shed rows were never committed.
	release()
	flush(t, sub)
	if err := in.Append(int64(99)); err != nil {
		t.Fatalf("append after drain: %v", err)
	}
	if got := in.Version(); got != 6 {
		t.Fatalf("version = %d, want 6 (shed batch not committed)", got)
	}
	// A batch bigger than the bound can never be admitted.
	big := table.MustNew(tb.Schema())
	for i := 0; i < 6; i++ {
		if err := big.AppendInt64Row(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.AppendBatch(big); err == nil {
		t.Fatal("batch above the backlog bound should fail")
	}
}

func TestBackpressureBlocks(t *testing.T) {
	tb := table.MustNew(table.Schema{{Name: "v", Type: table.Int64}})
	in, err := NewIngestor(tb, Config{Backlog: 4, OnFull: Block})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	q := &engine.Query{Kind: engine.KindTopN, Table: tb, OrderCol: "v", N: 2}
	exec, release := gate()
	defer release()
	if _, err := in.Subscribe(q, SubOptions{Exec: exec}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := in.Append(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	unblocked := make(chan error, 1)
	go func() { unblocked <- in.Append(int64(4)) }()
	select {
	case err := <-unblocked:
		t.Fatalf("append should have blocked, returned %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case err := <-unblocked:
		if err != nil {
			t.Fatalf("unblocked append: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("append stayed blocked after the backlog drained")
	}
}

func TestPumpedSubscriptionAndUpdates(t *testing.T) {
	tb := table.MustNew(table.Schema{{Name: "v", Type: table.Int64}})
	in, err := NewIngestor(tb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	q := &engine.Query{Kind: engine.KindTopN, Table: tb, OrderCol: "v", N: 3}
	sub, err := in.Subscribe(q, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 50; i++ {
		if err := in.Append(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sub.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	res, ver := sub.Results()
	if ver != 50 {
		t.Fatalf("version = %d, want 50", ver)
	}
	want := [][]string{{"47"}, {"48"}, {"49"}}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for i, w := range want {
		if res.Rows[i][0] != w[0] {
			t.Fatalf("rows = %v, want %v", res.Rows, want)
		}
	}
	// The updates channel carries the latest advance and closes on Close.
	select {
	case u := <-sub.Updates():
		if u.Version == 0 {
			t.Fatalf("update = %+v", u)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no update received")
	}
	sub.Close()
	sub.Close() // idempotent
	// Any residual buffered update drains, then the channel reports
	// closed — a ranged receive must terminate.
	for range sub.Updates() {
	}
}

func TestIngestorCloseDrainsSubscriptions(t *testing.T) {
	tb := table.MustNew(table.Schema{{Name: "v", Type: table.Int64}})
	in, err := NewIngestor(tb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{Kind: engine.KindTopN, Table: tb, OrderCol: "v", N: 1}
	sub, err := in.Subscribe(q, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Append(int64(7)); err != nil {
		t.Fatal(err)
	}
	in.Close()
	in.Close() // idempotent
	if err := in.Append(int64(8)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close err = %v, want ErrClosed", err)
	}
	if _, err := in.Subscribe(q, SubOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("subscribe after close err = %v, want ErrClosed", err)
	}
	// The subscription's pump has exited and its channel is closed.
	for range sub.Updates() {
	}
}

// TestFailedSubscriptionLeavesBacklog pins that a subscription whose
// executor fails terminally stops counting against the backlog bound —
// a wedged continuous query must not block or shed appends forever —
// and that its updates channel closes so receivers unblock.
func TestFailedSubscriptionLeavesBacklog(t *testing.T) {
	tb := table.MustNew(table.Schema{{Name: "v", Type: table.Int64}})
	in, err := NewIngestor(tb, Config{Backlog: 4, OnFull: Shed})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	q := &engine.Query{Kind: engine.KindTopN, Table: tb, OrderCol: "v", N: 2}
	boom := fmt.Errorf("executor broke")
	sub, err := in.Subscribe(q, SubOptions{Exec: func(*engine.Query) (*engine.Result, error) {
		return nil, boom
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Append(int64(1)); err != nil {
		t.Fatal(err)
	}
	// The pump hits the terminal error and closes updates.
	for range sub.Updates() {
	}
	if err := sub.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want the executor error", err)
	}
	// The failed subscription no longer counts toward the backlog:
	// appends past its frozen offset keep committing.
	for i := 0; i < 20; i++ {
		if err := in.Append(int64(i)); err != nil {
			t.Fatalf("append %d after subscription failure: %v", i, err)
		}
	}
	// Wait surfaces the terminal error instead of hanging.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sub.Wait(ctx, in.Version()); !errors.Is(err, boom) {
		t.Fatalf("Wait err = %v, want the executor error", err)
	}
	sub.Close()
}

// TestDeltaPanicFailsOnlyItsSubscription pins that a panicking delta
// executor costs its own subscription, not the process: the panic
// becomes the delta's terminal error (value and stack), the failed
// subscription leaves the backlog accounting, and a second subscription
// on the same ingestor stays exact.
func TestDeltaPanicFailsOnlyItsSubscription(t *testing.T) {
	// The subtest name dates from when a manual driver stood beside the
	// pump; the pump is now the only driver, and this is its arm.
	t.Run("NoPump=false", func(t *testing.T) {
		tb := table.MustNew(table.Schema{{Name: "v", Type: table.Int64}})
		in, err := NewIngestor(tb, Config{Backlog: 64, OnFull: Shed})
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close()
		q := &engine.Query{Kind: engine.KindTopN, Table: tb, OrderCol: "v", N: 2}
		bad, err := in.Subscribe(q, SubOptions{Exec: func(*engine.Query) (*engine.Result, error) {
			panic("delta exec broke")
		}})
		if err != nil {
			t.Fatal(err)
		}
		good, err := in.Subscribe(q, SubOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Append(int64(1)); err != nil {
			t.Fatal(err)
		}
		for range bad.Updates() { // the pump fails and closes updates
		}
		if err := bad.Err(); err == nil || !strings.Contains(err.Error(), "delta exec broke") ||
			!strings.Contains(err.Error(), "goroutine ") {
			t.Fatalf("Err() = %v, want the panic value and its stack", err)
		}
		for i := 2; i <= 40; i++ {
			if err := in.Append(int64(i)); err != nil {
				t.Fatalf("append %d after the panic: %v", i, err)
			}
		}
		flush(t, good)
		if st := in.Stats(); st.Subscriptions != 1 || st.Backlog != 0 {
			t.Fatalf("ingestor stats %+v, want only the healthy subscription, caught up", st)
		}
		want, err := engine.ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := good.Results()
		mustEqual(t, "healthy subscription beside a panicking one", got, want)
	})
}

// TestConcurrentAppendersRace exercises the writer/reader paths the
// race detector must clear: several appenders, a pumped subscription
// and snapshot readers all running against one log.
func TestConcurrentAppendersRace(t *testing.T) {
	tb := table.MustNew(table.Schema{{Name: "v", Type: table.Int64}})
	in, err := NewIngestor(tb, Config{Backlog: 10_000, OnFull: Block})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	q := &engine.Query{Kind: engine.KindTopN, Table: tb, OrderCol: "v", N: 10}
	sub, err := in.Subscribe(q, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const appenders, rowsEach = 8, 400
	var wg sync.WaitGroup
	wg.Add(appenders + 1)
	for a := 0; a < appenders; a++ {
		go func(a int) {
			defer wg.Done()
			for i := 0; i < rowsEach; i++ {
				if err := in.Append(int64(a*rowsEach + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(a)
	}
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			snap, _, err := in.Snapshot()
			if err != nil {
				t.Error(err)
				return
			}
			_ = snap.NumRows()
			sub.Results()
		}
	}()
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sub.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	res, ver := sub.Results()
	if ver != appenders*rowsEach {
		t.Fatalf("version = %d, want %d", ver, appenders*rowsEach)
	}
	if got, want := res.Rows[len(res.Rows)-1][0], fmt.Sprint(appenders*rowsEach-1); got != want {
		t.Fatalf("top value = %s, want %s", got, want)
	}
}

// TestResultsDuringDelta pins that a delta's execution holds nothing
// Results waits on: while the executor is blocked inside the second
// delta, the first render of the first delta's standing result (for a
// windowed subscription, its last fired window) returns at once.
func TestResultsDuringDelta(t *testing.T) {
	for _, c := range []struct {
		name   string
		window int
	}{
		{"pumped", 0},
		{"pumped-windowed", 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb := table.MustNew(table.Schema{{Name: "v", Type: table.Int64}})
			in, err := NewIngestor(tb, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer in.Close()
			entered, release := make(chan struct{}), make(chan struct{})
			var calls atomic.Int32
			exec := func(dq *engine.Query) (*engine.Result, error) {
				if calls.Add(1) == 2 {
					close(entered)
					<-release
				}
				return engine.ExecDirect(dq)
			}
			q := &engine.Query{Kind: engine.KindTopN, Table: tb, OrderCol: "v", N: 2}
			sub, err := in.Subscribe(q, SubOptions{Exec: exec, Window: c.window, Slide: c.window})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			// Each batch commits atomically, so each is one delta (and,
			// windowed, one whole pane).
			appendBatch := func(vals ...int64) {
				t.Helper()
				b := newEmptyLike(t, tb)
				for _, v := range vals {
					if err := b.AppendRow(v); err != nil {
						t.Fatal(err)
					}
				}
				if err := in.AppendBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			settle := func(version uint64) {
				t.Helper()
				if err := sub.Wait(ctx, version); err != nil {
					t.Fatal(err)
				}
			}

			// topTwo checks a standing result against TOP 2 of a batch.
			topTwo := func(when string, res *engine.Result, ver, wantVer uint64, a, b string) {
				t.Helper()
				if ver != wantVer || len(res.Rows) != 2 || res.Rows[0][0] != a || res.Rows[1][0] != b {
					t.Errorf("%s: version %d rows %v, want %d [[%s] [%s]]", when, ver, res.Rows, wantVer, a, b)
				}
			}

			// The first delta is absorbed but not rendered yet: Results
			// must render it while the second delta runs.
			appendBatch(10, 11, 12, 13)
			settle(4)
			appendBatch(20, 21, 22, 23)
			select {
			case <-entered:
			case <-ctx.Done():
				t.Fatal("the second delta never reached the executor")
			}
			type standing struct {
				res *engine.Result
				ver uint64
			}
			got := make(chan standing, 1)
			go func() {
				res, ver := sub.Results()
				got <- standing{res, ver}
			}()
			select {
			case g := <-got:
				topTwo("during the second delta", g.res, g.ver, 4, "12", "13")
			case <-time.After(time.Second):
				t.Errorf("Results waited for the delta in flight")
				close(release)
				<-got
				return
			}
			close(release)
			settle(8)
			res, ver := sub.Results()
			topTwo("after the second delta", res, ver, 8, "22", "23")
		})
	}
}
