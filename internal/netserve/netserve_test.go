package netserve

// End-to-end equivalence over a real TCP loopback: every query kind
// submitted through the wire must return bit-identical rows to
// engine.ExecDirect — one-shot and through standing subscriptions fed
// by live appends — plus the lifecycle tests: mid-query disconnect
// releases the fabric, SIGTERM-style drain leaves no client hanging.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cheetah/internal/engine"
	"cheetah/internal/fabric"
	"cheetah/internal/plan"
	"cheetah/internal/table"
	"cheetah/internal/wire"
	"cheetah/internal/workload/multitenant"
)

// testServer starts a loopback server over a fresh mix.
func testServer(t *testing.T, streaming bool, rows int) (*Server, *multitenant.Mix) {
	t.Helper()
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: rows, RankRows: rows / 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Tables:  map[string]*table.Table{"visits": mix.Visits, "rankings": mix.Rankings},
		Primary: "visits",
		Plan:    plan.Options{Switches: 2, Seed: 11},
	}
	if streaming {
		opts.Stream = &plan.StreamOptions{}
	}
	srv, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, mix
}

func dialMix(t *testing.T, srv *Server, tenant string) *Client {
	t.Helper()
	cl, err := Dial(srv.Addr().String(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func rightName(q *engine.Query) string {
	if q.Right != nil {
		return "rankings"
	}
	return ""
}

// TestOneShotEquivalence pins all 8 kinds over TCP bit-identical to
// ExecDirect.
func TestOneShotEquivalence(t *testing.T) {
	srv, mix := testServer(t, false, 4000)
	cl := dialMix(t, srv, "tenant-0")
	w := cl.Welcome()
	if w.Version != wire.ProtoVersion || len(w.Tables) != 2 || w.Stream != "" {
		t.Fatalf("welcome: %+v", w)
	}
	ctx := context.Background()
	for i := 0; i < 2*multitenant.NumKinds; i++ {
		q := mix.Query(i)
		want, err := engine.ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.QueryEngine(ctx, q, "visits", rightName(q), QueryOptions{Priority: mix.Priority(i)})
		if err != nil {
			t.Fatalf("query %d (%v): %v", i, q.Kind, err)
		}
		want.Sort()
		got.Sort()
		if !want.Equal(got) {
			t.Fatalf("query %d (%v) diverges over the wire:\nwant %v\ngot  %v", i, q.Kind, want, got)
		}
	}
}

// TestConcurrentClients multiplexes many tenants' queries over separate
// connections onto the shared fabric, all pinned to direct.
func TestConcurrentClients(t *testing.T) {
	srv, mix := testServer(t, false, 2000)
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		cl := dialMix(t, srv, fmt.Sprintf("tenant-%d", c))
		wg.Add(1)
		go func(c int, cl *Client) {
			defer wg.Done()
			for i := c; i < c+multitenant.NumKinds; i++ {
				q := mix.Query(i)
				want, err := engine.ExecDirect(q)
				if err != nil {
					errs <- err
					return
				}
				got, err := cl.QueryEngine(context.Background(), q, "visits", rightName(q), QueryOptions{})
				if err != nil {
					errs <- fmt.Errorf("client %d query %d: %w", c, i, err)
					return
				}
				want.Sort()
				got.Sort()
				if !want.Equal(got) {
					errs <- fmt.Errorf("client %d query %d (%v) diverges", c, i, q.Kind)
					return
				}
			}
		}(c, cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSubscriptionEquivalence pins all 8 kinds through standing
// subscriptions fed by wire appends: after each append wave the pushed
// standing result must be bit-identical to ExecDirect over the full
// committed prefix.
func TestSubscriptionEquivalence(t *testing.T) {
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 3000, RankRows: 800, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The served table starts empty (same schema as the mix's visits);
	// the mix table is the row source the client appends from.
	live := table.MustNew(mix.Visits.Schema())
	srv, err := Listen("127.0.0.1:0", Options{
		Tables:  map[string]*table.Table{"visits": live, "rankings": mix.Rankings},
		Primary: "visits",
		Plan:    plan.Options{Switches: 2, Seed: 11},
		Stream:  &plan.StreamOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr().String(), "tenant-1")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Welcome().Stream != "visits" {
		t.Fatalf("welcome: streaming not announced: %+v", cl.Welcome())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// One subscription per kind, all on one connection.
	subs := make([]*ClientSub, multitenant.NumKinds)
	queries := make([]*engine.Query, multitenant.NumKinds)
	for k := 0; k < multitenant.NumKinds; k++ {
		q := mix.Query(k)
		queries[k] = q
		spec, err := wire.SpecOf(q, "visits", rightName(q))
		if err != nil {
			t.Fatal(err)
		}
		subs[k], err = cl.Subscribe(ctx, *spec, SubscribeOptions{Credits: 2})
		if err != nil {
			t.Fatalf("subscribe kind %d: %v", k, err)
		}
	}

	// Three append waves; after each, every subscription must converge
	// to the direct answer over the committed prefix.
	const wave = 500
	total := 0
	for waveIdx := 0; waveIdx < 3; waveIdx++ {
		batch := table.MustNew(mix.Visits.Schema())
		if err := batch.AppendRowsFrom(mix.Visits, rowRange(total, total+wave)); err != nil {
			t.Fatal(err)
		}
		version, err := cl.Append(ctx, batch)
		if err != nil {
			t.Fatalf("append wave %d: %v", waveIdx, err)
		}
		total += wave
		if version != uint64(total) {
			t.Fatalf("wave %d: committed version %d, want %d", waveIdx, version, total)
		}
		prefix, err := live.SnapshotPrefix(total)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < multitenant.NumKinds; k++ {
			dq := *queries[k]
			dq.Table = prefix
			want, err := engine.ExecDirect(&dq)
			if err != nil {
				t.Fatal(err)
			}
			want.Sort()
			got := awaitVersion(ctx, t, subs[k], uint64(total))
			// Delivered rows arrive canonical and are shared with the
			// client's next rebuild: compared, never sorted in place.
			res := &engine.Result{Columns: got.Columns, Rows: got.Rows}
			if !want.Equal(res) {
				t.Fatalf("wave %d kind %d (%v) diverges at version %d:\nwant %v\ngot  %v",
					waveIdx, k, queries[k].Kind, total, want, res)
			}
		}
	}
	for _, s := range subs {
		s.Close()
	}
}

// awaitVersion consumes updates (crediting each) until the standing
// result covers at least version.
func awaitVersion(ctx context.Context, t *testing.T, s *ClientSub, version uint64) *wire.UpdateMsg {
	t.Helper()
	for {
		select {
		case u, ok := <-s.Updates():
			if !ok {
				t.Fatal("updates channel closed before convergence")
			}
			if err := s.Credit(1); err != nil {
				t.Fatal(err)
			}
			if u.Version >= version {
				return u
			}
		case <-ctx.Done():
			t.Fatalf("timed out waiting for version %d", version)
		}
	}
}

func rowRange(lo, hi int) []int {
	rows := make([]int, hi-lo)
	for i := range rows {
		rows[i] = lo + i
	}
	return rows
}

// TestClientDisconnectReleasesFabric pins the mid-query disconnect
// path: a client holding a subscription and in-flight queries drops its
// connection; the server must release the standing program's lease and
// drain cleanly (Shutdown converges — impossible if leases leaked).
func TestClientDisconnectReleasesFabric(t *testing.T) {
	srv, mix := testServer(t, true, 3000)
	cl, err := Dial(srv.Addr().String(), "tenant-2")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec, err := wire.SpecOf(mix.Query(2), "visits", "") // TOP N: switch-hosted
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe(ctx, *spec, SubscribeOptions{}); err != nil {
		t.Fatal(err)
	}
	// Launch queries and sever the connection while they're in flight.
	for i := 0; i < 4; i++ {
		spec, err := wire.SpecOf(mix.Query(i), "visits", rightName(mix.Query(i)))
		if err != nil {
			t.Fatal(err)
		}
		req := wire.QueryReq{ID: uint64(100 + i), Spec: *spec}
		if err := cl.writeFrame(wire.FrameQuery, req.EncodeBody(nil)); err != nil {
			t.Fatal(err)
		}
	}
	cl.nc.Close() // hard disconnect, no Goodbye

	// The drain converges only if the disconnect released every lease
	// and the in-flight queries ran out.
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		t.Fatalf("drain after disconnect: %v", err)
	}
	if got := srv.Stats(); got.Active != 0 {
		t.Fatalf("leases still active after drain: %+v", got)
	}
}

// TestGracefulDrain pins the SIGTERM contract: during Shutdown every
// outstanding client sees either a completed result or a retryable
// error — never a hang or a hard reset — and new work is refused
// retryable.
func TestGracefulDrain(t *testing.T) {
	srv, mix := testServer(t, true, 3000)
	cl := dialMix(t, srv, "tenant-0")
	ctx := context.Background()

	// A standing subscription that must be closed out by the drain.
	spec, err := wire.SpecOf(mix.Query(3), "visits", "")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cl.Subscribe(ctx, *spec, SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Clients keep submitting while the server drains; every reply must
	// be a result or a retryable error.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	bad := make(chan error, 64)
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i += 3 {
				select {
				case <-stop:
					return
				default:
				}
				q := mix.Query(i % 16)
				_, err := cl.QueryEngine(ctx, q, "visits", rightName(q), QueryOptions{})
				if err == nil {
					continue
				}
				var se *ServerError
				if errors.As(err, &se) {
					if !se.Retryable() {
						bad <- fmt.Errorf("non-retryable drain error: %v", se)
					}
					continue
				}
				// Connection-level close after the drain finishes. The
				// server's close can also surface on the write side as a
				// reset/EPIPE before the client's read loop notices and
				// sets Err — same event, racing observation sides.
				if errors.Is(err, ErrClientClosed) || cl.Err() != nil ||
					errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
					return
				}
				bad <- err
				return
			}
		}(c)
	}

	time.Sleep(50 * time.Millisecond) // let queries start flowing
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()
	close(bad)
	for err := range bad {
		t.Error(err)
	}
	// The subscription's channel closed out (no hanging consumer).
	select {
	case _, ok := <-sub.Updates():
		if ok {
			// A final update is fine; the channel must close after.
			if _, ok := <-sub.Updates(); ok {
				t.Fatal("subscription still delivering after drain")
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscription left hanging after drain")
	}
	if got := srv.Stats(); got.Active != 0 {
		t.Fatalf("active leases after drain: %+v", got)
	}
	// New connections are refused with a retryable error.
	if _, err := Dial(srv.Addr().String(), "x"); err == nil {
		t.Fatal("dial succeeded after drain")
	}
}

// TestDeadlineOverWire pins the QoS deadline path: an already-expired
// deadline on a contended fabric is shed with a retryable error, not
// silently degraded.
func TestDeadlineOverWire(t *testing.T) {
	srv, mix := testServer(t, false, 2000)
	cl := dialMix(t, srv, "tenant-4")
	ctx := context.Background()
	// Deadline of 1µs: admission cannot happen in time unless the
	// fabric is instantly free — and even then, the submit checks the
	// deadline first. Either a result (free fabric admitted fast) or a
	// retryable shed is acceptable; a hang or terminal error is not.
	q := mix.Query(2)
	_, err := cl.QueryEngine(ctx, q, "visits", "", QueryOptions{Deadline: time.Microsecond})
	if err != nil {
		var se *ServerError
		if !errors.As(err, &se) || !se.Retryable() {
			t.Fatalf("deadline shed should be retryable, got %v", err)
		}
	}
}

// TestPingAndBadFrame covers liveness and protocol-violation handling.
func TestPingAndBadFrame(t *testing.T) {
	srv, _ := testServer(t, false, 500)
	cl := dialMix(t, srv, "t")
	if err := cl.Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}
	// A protocol violation (server-only frame from the client) fails
	// the connection with a connection-level error.
	_ = cl.writeFrame(wire.FrameWelcome, (&wire.Welcome{Version: 1}).EncodeBody(nil))
	deadline := time.After(10 * time.Second)
	for cl.Err() == nil {
		select {
		case <-deadline:
			t.Fatal("protocol violation not surfaced")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestUnknownKindRefused: a Query frame whose kind byte is past the
// engine's kind table gets an invalid-request Error frame, not a contained
// panic, and the same connection then answers a valid query exactly.
func TestUnknownKindRefused(t *testing.T) {
	srv, mix := testServer(t, false, 500)
	cl := dialMix(t, srv, "t")
	ctx := context.Background()
	_, err := cl.Query(ctx, wire.QuerySpec{Kind: 255, Table: "visits"}, QueryOptions{})
	var se *ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeInvalid || !strings.Contains(se.Msg, "unknown query kind") {
		t.Fatalf("kind 255 got %v, want an invalid-request unknown query kind error", err)
	}
	q := mix.Query(0)
	want, err := engine.ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.QueryEngine(ctx, q, "visits", rightName(q), QueryOptions{})
	if err != nil {
		t.Fatalf("valid query after the refusal: %v", err)
	}
	want.Sort()
	got.Sort()
	if !want.Equal(got) {
		t.Fatalf("valid query after the refusal diverges:\nwant %v\ngot  %v", want, got)
	}
}

// TestHelloVersionRefused: a Hello at a protocol version the server does
// not speak gets an Error frame that names both versions, and no Welcome.
func TestHelloVersionRefused(t *testing.T) {
	srv, _ := testServer(t, false, 500)
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	old := wire.ProtoVersion - 1
	if err := wire.WriteFrame(nc, wire.FrameHello, (&wire.Hello{Version: old, Tenant: "t"}).EncodeBody(nil)); err != nil {
		t.Fatal(err)
	}
	ft, body, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	var e wire.ErrorMsg
	if ft != wire.FrameError || e.DecodeBody(body) != nil {
		t.Fatalf("a version-%d Hello got a %v frame", old, ft)
	}
	if want := fmt.Sprintf("protocol version %d not supported (want %d)", old, wire.ProtoVersion); e.Msg != want {
		t.Fatalf("the refusal says %q, want %q", e.Msg, want)
	}
}

// waitUntil polls cond until it holds, failing the test after ten seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDisconnectDropsQueuedQuery pins the disconnect path of a query still
// waiting for admission: the client goes away while its query is queued
// behind a full switch, the admission returns the connection's cancelled
// context, the server's in-flight work drains although the switch never
// frees, and the query is never admitted.
func TestDisconnectDropsQueuedQuery(t *testing.T) {
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 500, RankRows: 250, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", Options{
		Tables:  map[string]*table.Table{"visits": mix.Visits, "rankings": mix.Rankings},
		Primary: "visits",
		Plan:    plan.Options{Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// Fill the one switch with copies of the query's own program.
	q := mix.Query(1) // DISTINCT
	p, err := srv.Session().Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	fab := srv.Session().Fabric()
	for {
		prog, err := p.NewPruner()
		if err != nil {
			t.Fatal(err)
		}
		pl, err := fab.Admit(context.Background(), fabric.Request{Prog: prog, Standing: true})
		if errors.Is(err, fabric.ErrBusy) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pl[0].Release)
	}
	admitted := srv.Stats().Admitted

	cl, err := Dial(srv.Addr().String(), "tenant-0")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := wire.SpecOf(q, "visits", "")
	if err != nil {
		t.Fatal(err)
	}
	req := wire.QueryReq{ID: 1, Spec: *spec}
	if err := cl.writeFrame(wire.FrameQuery, req.EncodeBody(nil)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the query to queue", func() bool { return srv.Stats().Queued == 1 })
	cl.nc.Close() // hard disconnect, no Goodbye
	waitUntil(t, "the disconnect to withdraw the queued admission", func() bool { return srv.Stats().Queued == 0 })
	if got := srv.Metrics().Total("query_errors"); got != 1 {
		t.Fatalf("query_errors = %d, want 1 (the cancelled admission)", got)
	}

	// Nothing is in flight any more, so the drain converges with the
	// switch still full.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain after the disconnect: %v", err)
	}
	if got := srv.Stats().Admitted; got != admitted {
		t.Fatalf("Admitted went %d → %d: the abandoned query was admitted", admitted, got)
	}
}

// TestQueryPanicContained: a query that panics on its goroutine — here in
// the operator's slow-query logger, which runs there after execution —
// answers with an internal Error frame and counts in query_panics, and the
// same connection answers its next query.
func TestQueryPanicContained(t *testing.T) {
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 500, RankRows: 250, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var panicked atomic.Bool
	srv, err := Listen("127.0.0.1:0", Options{
		Tables:             map[string]*table.Table{"visits": mix.Visits},
		Primary:            "visits",
		Plan:               plan.Options{Switches: 1, Seed: 11},
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog: func(string, ...any) {
			if !panicked.Swap(true) {
				panic("logger failed")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := dialMix(t, srv, "t")
	ctx := context.Background()
	q := mix.Query(2)
	_, err = cl.QueryEngine(ctx, q, "visits", "", QueryOptions{})
	var se *ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeInternal {
		t.Fatalf("a panicking query answered %v, want an internal error", err)
	}
	if n := srv.Metrics().Counter("query_panics", "kind", q.Kind.String()).Get(); n != 1 {
		t.Fatalf("query_panics{kind=%q} is %d, want 1", q.Kind, n)
	}
	got, err := cl.QueryEngine(ctx, q, "visits", "", QueryOptions{})
	if err != nil {
		t.Fatalf("the connection's next query: %v", err)
	}
	want, err := engine.ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatalf("the connection's next query diverges from ExecDirect")
	}
}
