package stream

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"cheetah/internal/engine"
	"cheetah/internal/table"
	"cheetah/internal/workload"
	"cheetah/internal/workload/multitenant"
)

// TestSubscriptionsShareKeyMemoUnderAppends is the fingerprint memo's
// concurrency shape, for the race detector: two pumped subscriptions on
// one key column (DISTINCT and GROUP BY MAX over userAgent) absorb 256-row
// appends as delta views on their own goroutines while snapshot readers
// run the same kinds one-shot — every one of them reading, and whoever
// gets there first extending, the same column on the ingestor's table.
// Every one-shot equals ExecDirect over its snapshot and both standing
// results end equal to ExecDirect over everything appended.
func TestSubscriptionsShareKeyMemoUnderAppends(t *testing.T) {
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 4096, RankRows: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	target := newEmptyLike(t, mix.Visits)
	in, err := NewIngestor(target, Config{Backlog: 1 << 20, OnFull: Block})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	const seed = 9
	pruned := func(dq *engine.Query) (*engine.Result, error) {
		run, err := engine.ExecCheetah(dq, engine.CheetahOptions{Workers: 2, Seed: seed})
		if err != nil {
			return nil, err
		}
		return run.Result, nil
	}
	var kinds []*engine.Query
	var subs []*Subscription
	for kind := 0; kind < multitenant.NumKinds; kind++ {
		if k := mix.Query(kind).Kind; k != engine.KindDistinct && k != engine.KindGroupByMax {
			continue
		}
		q := *mix.Query(kind)
		q.Table = target
		sub, err := in.Subscribe(&q, SubOptions{Exec: pruned})
		if err != nil {
			t.Fatal(err)
		}
		kinds, subs = append(kinds, mix.Query(kind)), append(subs, sub)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				snap, _, err := in.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				q := *kinds[(g+i)%len(kinds)]
				q.Table = snap
				want, err := engine.ExecDirect(&q)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := engine.ExecCheetah(&q, engine.CheetahOptions{Workers: 2, Seed: seed})
				if err != nil {
					t.Error(err)
					return
				}
				if !want.Equal(got.Result) {
					t.Errorf("reader %d: %v over a %d-row snapshot diverges from ExecDirect", g, q.Kind, snap.NumRows())
					return
				}
			}
		}(g)
	}
	for lo := 0; lo < mix.Visits.NumRows(); lo += 256 {
		batch, err := mix.Visits.View(lo, min(lo+256, mix.Visits.NumRows()))
		if err != nil {
			t.Fatal(err)
		}
		if err := in.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	readers.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, sub := range subs {
		if err := sub.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		want, err := engine.ExecDirect(kinds[i])
		if err != nil {
			t.Fatal(err)
		}
		got, ver := sub.Results()
		if ver != uint64(mix.Visits.NumRows()) {
			t.Fatalf("%v: version %d, want %d", kinds[i].Kind, ver, mix.Visits.NumRows())
		}
		mustEqual(t, fmt.Sprint(kinds[i].Kind), got, want)
	}
}

// TestDeltaColdCost: a subscription's delta pays for its own rows, not for
// the table's. A DISTINCT subscription over a 64 k-row ingestor catches up
// once — that query fingerprints the userAgent column and builds its
// dictionary over every row — and after one 256-row append its delta
// hashes and compares its keys among its own rows: it leaves both memos
// covering the rows they covered and ranks no key. Re-ranking the
// dictionary on every delta once cost 8–19 % of a stream's ingest rate,
// and extending the memos by every delta a sixth of local_sharded's.
func TestDeltaColdCost(t *testing.T) {
	const rows, batch, seed = 1 << 16, 256, 9
	uv, err := workload.UserVisits(workload.DefaultUserVisits(rows+batch, 3))
	if err != nil {
		t.Fatal(err)
	}
	target := newEmptyLike(t, uv)
	in, err := NewIngestor(target, Config{Backlog: 1 << 20, OnFull: Block})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	appendRows := func(lo, hi int) {
		t.Helper()
		v, err := uv.View(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.AppendBatch(v); err != nil {
			t.Fatal(err)
		}
	}
	pruned := func(dq *engine.Query) (*engine.Result, error) {
		run, err := engine.ExecCheetah(dq, engine.CheetahOptions{Workers: 2, Seed: seed})
		if err != nil {
			return nil, err
		}
		return run.Result, nil
	}
	q := &engine.Query{Kind: engine.KindDistinct, Table: target, DistinctCols: []string{"userAgent"}}
	sub, err := in.Subscribe(q, SubOptions{Exec: pruned})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	c := target.Schema().MustIndex("userAgent")
	step := func(want int) table.KeyMemoStats {
		t.Helper()
		flush(t, sub)
		if u := <-sub.Updates(); u.Rows != want {
			t.Fatalf("delta of %d rows, want %d", u.Rows, want)
		}
		return target.KeyMemoStats(c, seed)
	}
	appendRows(0, rows)
	if caught := step(rows); caught != (table.KeyMemoStats{Hashed: rows, IDs: rows}) {
		t.Fatalf("after the catch-up over %d rows the memos cover %+v, want every row", rows, caught)
	}
	// The ranks now cover the caught-up keys; asked again through the same
	// handle, the dictionary hands back its latest ranks as they are.
	dict, built, ok := target.KeyIDs(c, seed)
	if !ok || built != 0 {
		t.Fatalf("the caught-up dictionary turned the table away (%v) or built %d rows", !ok, built)
	}
	ranked := dict.Order()
	appendRows(rows, rows+batch)
	if delta := step(batch); delta != (table.KeyMemoStats{Hashed: rows, IDs: rows}) {
		t.Fatalf("a %d-row delta took the memos to cover %+v", batch, delta)
	}
	if now := dict.Order(); len(now) != len(ranked) {
		t.Fatalf("a %d-row delta ranked %d keys", batch, len(now)-len(ranked))
	}
	all := *q
	all.Table = uv
	want, err := engine.ExecDirect(&all)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := sub.Results()
	mustEqual(t, "DISTINCT", got, want)
}
