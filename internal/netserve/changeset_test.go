package netserve

// Change sets over the wire. An Update frame carries the rows a standing
// result lost and gained since the version the client holds, and the
// client rebuilds the whole result: these tests drive that under a seeded
// random append schedule, a consumer returning credit in bursts and late,
// and a delta that changes nothing.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cheetah/internal/boolexpr"
	"cheetah/internal/engine"
	"cheetah/internal/plan"
	"cheetah/internal/prune"
	"cheetah/internal/table"
	"cheetah/internal/wire"
)

// csKeys are the schedule's key cells: the empty cell, NUL cells, and
// keys that are prefixes of one another.
var csKeys = []string{"", "\x00", "\x00a", "a", "a\x00", "a\x00\x00", "a\x00b", "ab", "b", "k"}

var csSchema = table.Schema{
	{Name: "k", Type: table.String},
	{Name: "v", Type: table.Int64},
	{Name: "x", Type: table.Int64},
	{Name: "y", Type: table.Int64},
}

// csBatch generates batch b of the schedule: v in [-6, 6], so HAVING's
// per-key sums cross its threshold both ways; x and y over a range that
// grows with b, so later SKYLINE points retire earlier ones; and one row
// twice, so FILTER returns duplicates.
func csBatch(t *testing.T, rng *rand.Rand, b int) *table.Table {
	t.Helper()
	rows := make([][]any, 1+rng.Intn(24))
	for i := range rows {
		rows[i] = []any{csKeys[rng.Intn(len(csKeys))], int64(rng.Intn(13) - 6),
			int64(rng.Intn(4 + 2*b)), int64(rng.Intn(4 + 2*b))}
	}
	rows = append(rows, rows[rng.Intn(len(rows))])
	batch := table.MustNew(csSchema)
	for _, r := range rows {
		if err := batch.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	return batch
}

// csServer starts a streaming loopback server over an empty table of
// csSchema ("t") and a JOIN side over csKeys ("r").
func csServer(t *testing.T, switches int) (*Server, *table.Table, *table.Table) {
	t.Helper()
	live := table.MustNew(csSchema)
	right := table.MustNew(table.Schema{{Name: "k", Type: table.String}, {Name: "w", Type: table.Int64}})
	for i, k := range csKeys {
		for r := 0; r < i%3; r++ { // zero to two matches a key
			if err := right.AppendRow(k, int64(r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv, err := Listen("127.0.0.1:0", Options{
		Tables:  map[string]*table.Table{"t": live, "r": right},
		Primary: "t",
		Plan:    plan.Options{Switches: switches, Seed: 5},
		Stream:  &plan.StreamOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, live, right
}

// csSub is one subscription of the schedule and its consumer's state.
type csSub struct {
	name          string
	q             *engine.Query
	window, slide int

	sub     *ClientSub
	owed    int        // updates consumed, credit not yet returned
	last    uint64     // the last delivered version
	seen    bool       // an update was delivered
	prev    [][]string // the last delivered rows
	retired bool       // a delivered result lost a row its predecessor had
}

// csSubs are the subscriptions: all eight kinds (FILTER returning rows and
// counting them, DISTINCT over one and two columns) and a windowed GROUP
// BY SUM.
func csSubs(live, right *table.Table) []*csSub {
	gt0 := []engine.FilterPred{{Col: "v", Op: prune.OpGT, Const: 0}}
	return []*csSub{
		{name: "filter", q: &engine.Query{Kind: engine.KindFilter, Table: live, Predicates: gt0, Formula: boolexpr.Leaf{V: 0}}},
		{name: "filter-count", q: &engine.Query{Kind: engine.KindFilter, Table: live, Predicates: gt0, Formula: boolexpr.Leaf{V: 0}, CountOnly: true}},
		{name: "distinct", q: &engine.Query{Kind: engine.KindDistinct, Table: live, DistinctCols: []string{"k"}}},
		{name: "distinct-pair", q: &engine.Query{Kind: engine.KindDistinct, Table: live, DistinctCols: []string{"k", "x"}}},
		{name: "topn", q: &engine.Query{Kind: engine.KindTopN, Table: live, OrderCol: "x", N: 5}},
		{name: "groupby-max", q: &engine.Query{Kind: engine.KindGroupByMax, Table: live, KeyCol: "k", AggCol: "x"}},
		{name: "groupby-sum", q: &engine.Query{Kind: engine.KindGroupBySum, Table: live, KeyCol: "k", AggCol: "v"}},
		{name: "having", q: &engine.Query{Kind: engine.KindHaving, Table: live, KeyCol: "k", AggCol: "v", Threshold: 3}},
		{name: "join", q: &engine.Query{Kind: engine.KindJoin, Table: live, Right: right, LeftKey: "k", RightKey: "k"}},
		{name: "skyline", q: &engine.Query{Kind: engine.KindSkyline, Table: live, SkylineCols: []string{"x", "y"}}},
		{name: "groupby-sum-window", q: &engine.Query{Kind: engine.KindGroupBySum, Table: live, KeyCol: "k", AggCol: "v"}, window: 48, slide: 16},
	}
}

// TestChangeSetsDifferential appends a seeded random schedule from one
// connection to every subscription held on another, at Credits 1 and 3,
// the consumer returning credit at once or late. After every delivered
// update the client's rebuilt result must equal ExecDirect over the rows
// its version covers (for the windowed subscription, the window's rows)
// and, when the server's subscription stands at that version, the
// server's Results(); versions never decrease. HAVING, SKYLINE and GROUP
// BY SUM must have retired rows on the way, and /metrics must show the
// update_frames and update_bytes of every kind.
func TestChangeSetsDifferential(t *testing.T) {
	for _, credits := range []int{1, 3} {
		t.Run(fmt.Sprintf("credits=%d", credits), func(t *testing.T) {
			srv, live, right := csServer(t, 2)
			cl := dialMix(t, srv, "subscriber")
			feed := dialMix(t, srv, "feed")
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			subs := csSubs(live, right)
			for _, s := range subs {
				rightName := ""
				if s.q.Right != nil {
					rightName = "r"
				}
				spec, err := wire.SpecOf(s.q, "t", rightName)
				if err != nil {
					t.Fatal(err)
				}
				s.sub, err = cl.Subscribe(ctx, *spec, SubscribeOptions{
					Window: s.window, Slide: s.slide, Credits: credits, Buffer: credits,
				})
				if err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
			}
			all := table.MustNew(csSchema) // the committed rows, for the oracle
			rng := rand.New(rand.NewSource(int64(40 + credits)))
			for b := 0; b < 40; b++ {
				batch := csBatch(t, rng, b)
				ver, err := feed.Append(ctx, batch)
				if err != nil {
					t.Fatal(err)
				}
				if err := all.AppendRowsFrom(batch, rowRange(0, batch.NumRows())); err != nil {
					t.Fatal(err)
				}
				if ver != uint64(all.NumRows()) {
					t.Fatalf("batch %d committed version %d, want %d", b, ver, all.NumRows())
				}
				for _, s := range subs {
					target := ver
					if s.slide > 0 {
						target -= ver % uint64(s.slide)
					}
					s.await(ctx, t, srv, all, target, credits, rng)
				}
			}
			var expo bytes.Buffer
			if err := srv.Metrics().WritePrometheus(&expo); err != nil {
				t.Fatal(err)
			}
			for _, s := range subs {
				switch s.name {
				case "having", "skyline", "groupby-sum":
					if !s.retired {
						t.Errorf("%s never retired a row: the schedule misses what it is for", s.name)
					}
				}
				for _, m := range []string{"update_frames", "update_bytes"} {
					if series := fmt.Sprintf("cheetah_%s{kind=%q} ", m, s.q.Kind.String()); !strings.Contains(expo.String(), series) {
						t.Errorf("/metrics lacks %s", series)
					}
				}
			}
		})
	}
}

// await consumes updates until one covers target, checking each, and
// returns credit as the schedule draws: at once, or late — once the
// consumer has waited with nothing to read.
func (s *csSub) await(ctx context.Context, t *testing.T, srv *Server, all *table.Table, target uint64, credits int, rng *rand.Rand) {
	t.Helper()
	for !s.seen || s.last < target {
		select {
		case u, ok := <-s.sub.Updates():
			if !ok {
				t.Fatalf("%s: updates closed: %v", s.name, s.sub.cl.Err())
			}
			if s.seen && u.Version < s.last {
				t.Fatalf("%s: version %d delivered after %d", s.name, u.Version, s.last)
			}
			s.seen, s.last = true, u.Version
			s.check(t, srv, all, u)
			if s.owed++; s.owed >= credits && rng.Intn(3) > 0 {
				s.credit(t)
			}
		case <-time.After(5 * time.Millisecond):
			s.credit(t)
		case <-ctx.Done():
			t.Fatalf("%s: no update reached version %d (last %d)", s.name, target, s.last)
		}
	}
}

// credit returns the credit of every update consumed since the last one.
func (s *csSub) credit(t *testing.T) {
	t.Helper()
	if s.owed == 0 {
		return
	}
	if err := s.sub.Credit(s.owed); err != nil {
		t.Fatal(err)
	}
	s.owed = 0
}

// check compares a delivered update with ExecDirect over the rows its
// version covers and, when the server's subscription stands at that
// version, with its Results().
func (s *csSub) check(t *testing.T, srv *Server, all *table.Table, u *wire.UpdateMsg) {
	t.Helper()
	got := &engine.Result{Columns: u.Columns, Rows: u.Rows}
	if u.Version == 0 {
		if len(u.Rows) != 0 {
			t.Fatalf("%s: %d rows before any row was committed", s.name, len(u.Rows))
		}
	} else {
		lo := uint64(0)
		if s.window > 0 && u.Version > uint64(s.window) {
			lo = u.Version - uint64(s.window)
		}
		covered, err := all.View(int(lo), int(u.Version))
		if err != nil {
			t.Fatal(err)
		}
		q := *s.q
		q.Table = covered
		want, err := engine.ExecDirect(&q)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got) {
			t.Fatalf("%s at version %d differs from ExecDirect:\ngot  %q\nwant %q", s.name, u.Version, got.Rows, want.Rows)
		}
	}
	if res, ver := serverStanding(srv, s.sub.id); res != nil && ver == u.Version && !res.Equal(got) {
		t.Fatalf("%s at version %d differs from the server's standing result:\ngot    %q\nserver %q", s.name, u.Version, got.Rows, res.Rows)
	}
	if removed, _ := engine.DiffRows(s.prev, u.Rows); len(removed) > 0 {
		s.retired = true
	}
	s.prev = u.Rows
}

// serverStanding returns the server's standing result for subscription
// id and its version (nil and 0 when no connection holds it).
func serverStanding(srv *Server, id uint64) (*engine.Result, uint64) {
	var sub *plan.Subscription
	srv.mu.Lock()
	for c := range srv.conns {
		c.mu.Lock()
		if st := c.subs[id]; st != nil {
			sub = st.sub
		}
		c.mu.Unlock()
	}
	srv.mu.Unlock()
	if sub == nil {
		return nil, 0
	}
	return sub.Results()
}

// TestUpdateVersionsNeverDecrease: three credits out, a consumer returning
// them in bursts of three (or late, after waiting) and 200 small appends
// from another connection make a subscription's sends race its credit
// returns. Versions must never decrease and must reach the last append's;
// a change set sent against the wrong base fails the connection, which
// closes the channel and fails the test as well.
func TestUpdateVersionsNeverDecrease(t *testing.T) {
	srv, live, _ := csServer(t, 1)
	cl := dialMix(t, srv, "subscriber")
	feed := dialMix(t, srv, "feed")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	spec, err := wire.SpecOf(&engine.Query{Kind: engine.KindDistinct, Table: live, DistinctCols: []string{"k", "x"}}, "t", "")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cl.Subscribe(ctx, *spec, SubscribeOptions{Credits: 3, Buffer: 3})
	if err != nil {
		t.Fatal(err)
	}
	var final atomic.Uint64
	done := make(chan error, 1)
	go func() {
		var last uint64
		owed := 0
		for {
			select {
			case u, ok := <-sub.Updates():
				if !ok {
					done <- fmt.Errorf("updates closed at version %d: %v", last, cl.Err())
					return
				}
				if u.Version < last {
					done <- fmt.Errorf("version %d delivered after %d", u.Version, last)
					return
				}
				last = u.Version
				if owed++; owed < 3 {
					continue
				}
			case <-time.After(2 * time.Millisecond):
			}
			if owed > 0 {
				if err := sub.Credit(owed); err != nil {
					done <- err
					return
				}
				owed = 0
			}
			if f := final.Load(); f != 0 && last >= f {
				done <- nil
				return
			}
		}
	}()
	rng := rand.New(rand.NewSource(9))
	var ver uint64
	for b := 0; b < 200; b++ {
		if ver, err = feed.Append(ctx, csBatch(t, rng, b%8)); err != nil {
			t.Fatal(err)
		}
	}
	final.Store(ver)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-ctx.Done():
		t.Fatalf("the consumer never reached version %d", ver)
	}
}

// TestQuietDeltaShipsNoRows: an append that changes none of a DISTINCT
// subscription's 2 000 standing rows ships one Update frame holding no
// row — a few dozen bytes, where the whole result is tens of kilobytes —
// and the client still delivers the whole result.
func TestQuietDeltaShipsNoRows(t *testing.T) {
	srv, live, _ := csServer(t, 1)
	cl := dialMix(t, srv, "subscriber")
	feed := dialMix(t, srv, "feed")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	spec, err := wire.SpecOf(&engine.Query{Kind: engine.KindDistinct, Table: live, DistinctCols: []string{"k"}}, "t", "")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cl.Subscribe(ctx, *spec, SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batch := func(keys func(i int) int, n int) *table.Table {
		b := table.MustNew(csSchema)
		for i := 0; i < n; i++ {
			if err := b.AppendRow(fmt.Sprintf("key-%04d", keys(i)), int64(i), int64(0), int64(0)); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	ver, err := feed.Append(ctx, batch(func(i int) int { return i }, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if u := awaitVersion(ctx, t, sub, ver); len(u.Rows) != 2000 {
		t.Fatalf("the first update holds %d rows, want 2000", len(u.Rows))
	}
	frames := srv.Metrics().Counter("update_frames", "kind", "distinct")
	sent := srv.Metrics().Counter("update_bytes", "kind", "distinct")
	waitUntil(t, "the first update counted", func() bool { return frames.Get() >= 1 })
	f0, b0 := frames.Get(), sent.Get()
	ver, err = feed.Append(ctx, batch(func(i int) int { return i * 31 % 2000 }, 64))
	if err != nil {
		t.Fatal(err)
	}
	if u := awaitVersion(ctx, t, sub, ver); len(u.Rows) != 2000 {
		t.Fatalf("after the quiet delta the client holds %d rows, want 2000", len(u.Rows))
	}
	waitUntil(t, "the quiet update counted", func() bool { return frames.Get() > f0 })
	if f, b := frames.Get()-f0, sent.Get()-b0; f != 1 || b == 0 || b > 64 {
		t.Fatalf("the quiet delta shipped %d frames of %d bytes, want one frame of no rows", f, b)
	}
}
