package plan

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"cheetah/internal/engine"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
	"cheetah/internal/workload/multitenant"
)

// streamCtx bounds every streaming test wait.
func streamCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// appendInChunks drives rows of src into st in chunk-sized batches.
func appendInChunks(t *testing.T, st *Streaming, src *table.Table, chunk int) {
	t.Helper()
	n := src.NumRows()
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		v, err := src.View(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AppendBatch(v); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamSubscriptionEquivalence is the acceptance invariant: for
// every kind, streaming through real fabric leases at widths 1 and 4,
// the standing result after an append schedule of mixed batch sizes is
// bit-identical to ExecDirect over the full prefix — with the standing
// program holding switch state across deltas.
func TestStreamSubscriptionEquivalence(t *testing.T) {
	for _, switches := range []int{1, 4} {
		for _, seed := range []uint64{1, 0xbeef} {
			mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 1600, RankRows: 700, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for kind := 0; kind < multitenant.NumKinds; kind++ {
				base := mix.Query(kind)
				t.Run(fmt.Sprintf("switches=%d/seed=%#x/%v", switches, seed, base.Kind), func(t *testing.T) {
					ctx := streamCtx(t)
					target, err := table.New(mix.Visits.Schema())
					if err != nil {
						t.Fatal(err)
					}
					db, err := Open(target, Options{Workers: 2, Seed: seed, Switches: switches})
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					st, err := db.Stream(ctx, StreamOptions{})
					if err != nil {
						t.Fatal(err)
					}
					q := *base
					q.Table = target
					sub, err := st.Subscribe(ctx, &q)
					if err != nil {
						t.Fatal(err)
					}
					if sub.Plan().Mode != ModeCheetah {
						t.Fatalf("plan mode = %v (%s), want cheetah", sub.Plan().Mode, sub.Plan().Reason)
					}
					if switches == 1 && sub.Switch() < 0 {
						t.Fatal("single-switch subscription has no placement")
					}
					// A big catch-up batch, then a stream of small ones.
					half := mix.Visits.NumRows() / 2
					firstHalf, err := mix.Visits.View(0, half)
					if err != nil {
						t.Fatal(err)
					}
					if err := st.AppendBatch(firstHalf); err != nil {
						t.Fatal(err)
					}
					rest, err := mix.Visits.View(half, mix.Visits.NumRows())
					if err != nil {
						t.Fatal(err)
					}
					appendInChunks(t, st, rest, 113)
					if err := sub.Flush(ctx); err != nil {
						t.Fatal(err)
					}

					want, err := engine.ExecDirect(mix.Query(kind))
					if err != nil {
						t.Fatal(err)
					}
					got, ver := sub.Results()
					if ver != uint64(mix.Visits.NumRows()) {
						t.Fatalf("version = %d, want %d", ver, mix.Visits.NumRows())
					}
					if !want.Equal(got) {
						t.Fatalf("standing result diverged\n got: %v\nwant: %v", got, want)
					}
					if tr := sub.Traffic(); tr.EntriesSent == 0 {
						t.Fatal("pruned subscription streamed no entries")
					}
					// The standing program holds switch resources until Close.
					active := 0
					for _, c := range db.Fabric().Stats() {
						active += c.Active
					}
					if wantActive := 1; switches > 1 {
						if active != switches {
							t.Fatalf("active leases = %d, want %d (one per switch)", active, switches)
						}
					} else if active != wantActive {
						t.Fatalf("active leases = %d, want %d", active, wantActive)
					}
					sub.Close()
					active = 0
					for _, c := range db.Fabric().Stats() {
						active += c.Active
					}
					if active != 0 {
						t.Fatalf("active leases = %d after Close, want 0", active)
					}
				})
			}
		}
	}
}

// TestStreamConcurrentAppenders is the streaming soak: sixteen appenders
// commit 256-row batches concurrently into a two-switch streaming handle
// while the mix's FILTER count, DISTINCT, TOP N and HAVING stay
// subscribed and a reader renders one of them on every update. After a
// Flush, each standing result equals ExecDirect over the committed
// prefix; the standing programs hold one lease per switch while open and
// none after Close.
func TestStreamConcurrentAppenders(t *testing.T) {
	const switches, appenders, batchRows = 2, 16, 256
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 2 * appenders * batchRows, RankRows: 500, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ctx := streamCtx(t)
	target, err := table.New(mix.Visits.Schema())
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(target, Options{Workers: 1, Seed: 11, Switches: switches})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := db.Stream(ctx, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var subs []*Subscription
	for _, kind := range []int{0, 1, 2, 5} { // FILTER count, DISTINCT, TOP N, HAVING
		q := *mix.Query(kind)
		q.Table = target
		sub, err := st.Subscribe(ctx, &q)
		if err != nil {
			t.Fatal(err)
		}
		if sub.Plan().Mode != ModeCheetah {
			t.Fatalf("%v: plan mode = %v (%s), want cheetah", q.Kind, sub.Plan().Mode, sub.Plan().Reason)
		}
		subs = append(subs, sub)
	}
	read := make(chan struct{})
	go func() {
		defer close(read)
		for range subs[2].Updates() {
			subs[2].Results()
		}
	}()

	batches := make(chan *table.Table, mix.Visits.NumRows()/batchRows)
	for lo := 0; lo < mix.Visits.NumRows(); lo += batchRows {
		v, err := mix.Visits.View(lo, lo+batchRows)
		if err != nil {
			t.Fatal(err)
		}
		batches <- v
	}
	close(batches)
	var wg sync.WaitGroup
	wg.Add(appenders)
	for a := 0; a < appenders; a++ {
		go func() {
			defer wg.Done()
			for b := range batches {
				if err := st.AppendBatch(b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	for _, sub := range subs {
		if err := sub.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		got, ver := sub.Results()
		if ver != uint64(mix.Visits.NumRows()) {
			t.Fatalf("%v: version = %d, want %d", sub.Query().Kind, ver, mix.Visits.NumRows())
		}
		want, err := engine.ExecDirect(sub.Query())
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got) {
			t.Fatalf("%v: standing result diverged from the committed prefix\n got: %v\nwant: %v", sub.Query().Kind, got, want)
		}
	}
	active := func() (n int) {
		for _, c := range db.Fabric().Stats() {
			n += c.Active
		}
		return n
	}
	if got := active(); got != switches*len(subs) {
		t.Fatalf("active leases = %d while subscribed, want %d (one per switch per subscription)", got, switches*len(subs))
	}
	st.Close()
	<-read
	if got := active(); got != 0 {
		t.Fatalf("active leases = %d after Close, want 0", got)
	}
}

// TestStreamWindowedThroughFabric pins the windowed variants on the
// planned path: the fired window equals a from-scratch run over
// exactly the window's rows, through a held (and per-delta reset)
// switch program.
func TestStreamWindowedThroughFabric(t *testing.T) {
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 1000, RankRows: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []int{2, 3, 4, 5} { // TOPN, GBMAX, GBSUM, HAVING
		base := mix.Query(kind)
		t.Run(base.Kind.String(), func(t *testing.T) {
			ctx := streamCtx(t)
			target, err := table.New(mix.Visits.Schema())
			if err != nil {
				t.Fatal(err)
			}
			db, err := Open(target, Options{Workers: 2, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			st, err := db.Stream(ctx, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			q := *base
			q.Table = target
			sub, err := st.SubscribeWindow(ctx, &q, 300, 100)
			if err != nil {
				t.Fatal(err)
			}
			appendInChunks(t, st, mix.Visits, 87)
			if err := sub.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			lo, hi := sub.WindowBounds()
			if hi == 0 || hi-lo != 300 {
				t.Fatalf("window bounds [%d,%d), want a full 300-row window", lo, hi)
			}
			wv, err := mix.Visits.View(int(lo), int(hi))
			if err != nil {
				t.Fatal(err)
			}
			qw := *base
			qw.Table = wv
			want, err := engine.ExecDirect(&qw)
			if err != nil {
				t.Fatal(err)
			}
			got, ver := sub.Results()
			if ver != hi {
				t.Fatalf("result version = %d, want %d", ver, hi)
			}
			if !want.Equal(got) {
				t.Fatalf("window [%d,%d) diverged\n got: %v\nwant: %v", lo, hi, got, want)
			}
		})
	}
}

// TestStreamOversizedFallsBackDirect pins the placement fallback: a
// query whose program can never fit the model subscribes as a direct
// (unpruned) continuous query instead of failing.
func TestStreamOversizedFallsBackDirect(t *testing.T) {
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 600, RankRows: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := streamCtx(t)
	target, err := table.New(mix.Visits.Schema())
	if err != nil {
		t.Fatal(err)
	}
	// A toy model: the planner finds no admissible program.
	model := switchsim.Model{
		Name: "toy", Stages: switchsim.ReservedStages + 1, ALUsPerStage: 1,
		SRAMPerStageBits: 1 << 10, TCAMEntries: 16, MetadataBits: 64,
	}
	db, err := Open(target, Options{Workers: 1, Seed: 3, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := db.Stream(ctx, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := *mix.Query(1) // DISTINCT
	q.Table = target
	sub, err := st.Subscribe(ctx, &q)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Plan().Mode != ModeDirect {
		t.Fatalf("plan mode = %v, want direct fallback", sub.Plan().Mode)
	}
	appendInChunks(t, st, mix.Visits, 200)
	if err := sub.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	want, err := engine.ExecDirect(mix.Query(1))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := sub.Results()
	if !want.Equal(got) {
		t.Fatalf("direct-fallback standing result diverged\n got: %v\nwant: %v", got, want)
	}
}

// TestSessionCloseIdempotentAndDrains pins the Close contract: double
// Close is a no-op, and Close drains streaming subscriptions (leases
// released, appends rejected) and closes the fabric.
func TestSessionCloseIdempotentAndDrains(t *testing.T) {
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 500, RankRows: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := streamCtx(t)
	target, err := table.New(mix.Visits.Schema())
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(target, Options{Workers: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := db.Stream(ctx, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := *mix.Query(2)
	q.Table = target
	sub, err := st.Subscribe(ctx, &q)
	if err != nil {
		t.Fatal(err)
	}
	appendInChunks(t, st, mix.Visits, 100)
	if err := sub.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	db.Close()
	db.Close() // idempotent

	if err := st.Append(int64(0)); err == nil {
		t.Fatal("append after session Close should fail")
	}
	if _, err := st.Subscribe(ctx, &q); err == nil {
		t.Fatal("subscribe after session Close should fail")
	}
	for _, c := range db.Fabric().Stats() {
		if c.Active != 0 {
			t.Fatalf("leases still active after session Close: %+v", c)
		}
	}
	// The drained subscription keeps its last standing result.
	res, _ := sub.Results()
	want, err := engine.ExecDirect(mix.Query(2))
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(res) {
		t.Fatal("standing result lost on Close")
	}
	// A submit on the closed fabric falls back to direct.
	ex, err := db.Submit(ctx, mix.Query(2))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Plan.Mode != ModeDirect {
		t.Fatalf("post-Close submit mode = %v, want direct", ex.Plan.Mode)
	}
	// Long-lived handles are gone, but one-shot Exec still works.
	if _, err := db.Exec(ctx, mix.Query(2)); err != nil {
		t.Fatal(err)
	}
	// Opening new handles on the closed session fails.
	if _, err := db.Stream(ctx, StreamOptions{}); err == nil {
		t.Fatal("Stream on a closed session should fail")
	}
}

// TestStreamOneHandlePerSession pins that a session's table has one
// append log: a second Stream on a session whose handle is open fails,
// and once that handle closes a new one opens, and its subscription
// covers the rows the first handle appended.
func TestStreamOneHandlePerSession(t *testing.T) {
	ctx := streamCtx(t)
	target := table.MustNew(table.Schema{{Name: "v", Type: table.Int64}})
	db, err := Open(target, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	first, err := db.Stream(ctx, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := first.Append(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Stream(ctx, StreamOptions{}); err == nil {
		t.Fatal("a second Stream on a session with an open handle should fail")
	}
	first.Close()

	second, err := db.Stream(ctx, StreamOptions{})
	if err != nil {
		t.Fatalf("Stream after the open handle closed: %v", err)
	}
	defer second.Close()
	q, err := db.Select().TopN("v", 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := second.Subscribe(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Append(int64(10)); err != nil {
		t.Fatal(err)
	}
	if err := sub.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	res, ver := sub.Results()
	if ver != 11 {
		t.Fatalf("version = %d, want 11 (10 rows of the first handle, 1 of the second)", ver)
	}
	want, err := engine.ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(res) {
		t.Fatalf("standing top-3 = %v, want %v", res.Rows, want.Rows)
	}
}

// TestSessionCloseDuringSubmit pins the race the satellite calls out:
// concurrent Submits racing Session.Close must complete cleanly (pruned
// or direct-fallback), never error or leak.
func TestSessionCloseDuringSubmit(t *testing.T) {
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 800, RankRows: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ctx := streamCtx(t)
	db, err := Open(mix.Visits, Options{Workers: 1, Seed: 9, Switches: 2})
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 6, 10
	var wg sync.WaitGroup
	wg.Add(clients)
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := db.Submit(ctx, mix.Query(c*perClient+i)); err != nil {
					errs <- fmt.Errorf("client %d query %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	// Close mid-flight: in-progress queries finish, the rest fall back.
	time.Sleep(2 * time.Millisecond)
	db.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStreamBackpressureShed pins the shed policy through the session
// wiring: over-backlog appends fail fast and commit nothing.
func TestStreamBackpressureShed(t *testing.T) {
	ctx := streamCtx(t)
	target := table.MustNew(table.Schema{{Name: "v", Type: table.Int64}})
	db, err := Open(target, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := db.Stream(ctx, StreamOptions{Backlog: 8, Shed: true})
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.Select().TopN("v", 4).Build()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := st.Subscribe(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate faster than the pump can drain — eventually a shed (or
	// every append lands, which is also legal if the pump keeps up; the
	// bound just must never block).
	shed := 0
	for i := 0; i < 5000; i++ {
		if err := st.Append(int64(i)); err != nil {
			shed++
		}
	}
	if err := sub.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := st.Version(); got != uint64(5000-shed) {
		t.Fatalf("version = %d with %d sheds, want %d", got, shed, 5000-shed)
	}
	res, _ := sub.Results()
	if len(res.Rows) != 4 {
		t.Fatalf("standing top-4 has %d rows", len(res.Rows))
	}
}
