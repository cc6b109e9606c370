package plan

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cheetah/internal/engine"
	"cheetah/internal/obs"
	"cheetah/internal/table"
	"cheetah/internal/workload/multitenant"
)

// keyNotes returns the keys part of every shard span's note (JOIN's goes
// on with its ids part).
func keyNotes(ex *Execution) (notes []string) {
	for _, s := range planStages(ex)[obs.StageShard] {
		_, rest, _ := strings.Cut(s.Note, "; ")
		keys, _, _ := strings.Cut(rest, "; ")
		notes = append(notes, keys)
	}
	return notes
}

// TestKeyMemoAcrossFrontDoors: over tables no query has read, the first
// Session.Exec of a keyed kind says it hashed its keys, later ones — in
// process at one switch and at two, and served through a lease — say they
// read them off the table, and every one of them returns ExecDirect's
// result with the first run's Traffic, Stats and SkipStats.
func TestKeyMemoAcrossFrontDoors(t *testing.T) {
	ctx := context.Background()
	keyed := map[string]bool{"distinct": true, "groupby-max": true, "groupby-sum": true, "having": true, "join": true}
	for _, k := range []int{1, 2} {
		for i := range traceKindCases(t, Options{Workers: 2, Seed: 7, Switches: k}) {
			// Fresh tables for every case: several share a key column.
			c := traceKindCases(t, Options{Workers: 2, Seed: 7, Switches: k})[i]
			if !keyed[c.label] {
				continue
			}
			label := fmt.Sprintf("%s k=%d", c.label, k)
			q, err := c.b.Build()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, err := engine.ExecDirect(q)
			if err != nil {
				t.Fatal(err)
			}
			var cold *Execution
			// At k = 2 the second contiguous shard joins the memo one run
			// after the first, so the third run is the all-memo one.
			for run := 0; run < 3; run++ {
				ex, err := c.s.Exec(ctx, q)
				if err != nil {
					t.Fatalf("%s run %d: %v", label, run, err)
				}
				if !want.Equal(ex.Result) {
					t.Fatalf("%s run %d: result diverges from ExecDirect", label, run)
				}
				notes := keyNotes(ex)
				if len(notes) != k {
					t.Fatalf("%s run %d: %d shard spans", label, run, len(notes))
				}
				switch run {
				case 0:
					cold = ex
					for _, n := range notes {
						if !strings.HasPrefix(n, "keys: hashed ") {
							t.Fatalf("%s: a cold shard noted %q", label, n)
						}
					}
				case 2:
					for _, n := range notes {
						if n != "keys: memo" {
							t.Fatalf("%s: a warm shard noted %q", label, n)
						}
					}
				}
				if ex.Traffic != cold.Traffic || ex.Stats != cold.Stats || ex.SkipStats != cold.SkipStats {
					t.Fatalf("%s run %d: traffic %+v stats %+v skipped %+v, cold run had %+v %+v %+v",
						label, run, ex.Traffic, ex.Stats, ex.SkipStats, cold.Traffic, cold.Stats, cold.SkipStats)
				}
			}
			if k != 1 {
				continue
			}
			ex, err := c.s.Submit(ctx, q)
			if err != nil {
				t.Fatalf("%s served: %v", label, err)
			}
			if !want.Equal(ex.Result) || ex.Traffic != cold.Traffic || ex.Stats != cold.Stats {
				t.Fatalf("%s: the served run diverges from the in-process one", label)
			}
			if notes := keyNotes(ex); len(notes) != 1 || notes[0] != "keys: memo" {
				t.Fatalf("%s: the served run's shard noted %q", label, notes)
			}
		}
	}
}

// TestKeyMemoUnderStreaming drives the served workloads' shape: standing
// subscriptions of the keyed kinds — two of them on one key column — absorb
// appends as delta views while one-shot queries of the same kinds run on
// snapshots of the growing table, all sharing and extending one set of
// fingerprint columns. Every one-shot equals ExecDirect over its snapshot,
// and every standing result ends equal to ExecDirect over the full table.
func TestKeyMemoUnderStreaming(t *testing.T) {
	for _, switches := range []int{1, 2} {
		t.Run(fmt.Sprintf("switches=%d", switches), func(t *testing.T) {
			ctx := streamCtx(t)
			mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 2400, RankRows: 700, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			target, err := table.New(mix.Visits.Schema())
			if err != nil {
				t.Fatal(err)
			}
			db, err := Open(target, Options{Workers: 2, Seed: 3, Switches: switches})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			st, err := db.Stream(ctx, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var kinds []int
			var subs []*Subscription
			for kind := 0; kind < multitenant.NumKinds; kind++ {
				switch mix.Query(kind).Kind {
				case engine.KindDistinct, engine.KindGroupByMax, engine.KindGroupBySum, engine.KindHaving, engine.KindJoin:
				default:
					continue
				}
				q := *mix.Query(kind)
				q.Table = target
				sub, err := st.Subscribe(ctx, &q)
				if err != nil {
					t.Fatalf("%v: %v", q.Kind, err)
				}
				kinds, subs = append(kinds, kind), append(subs, sub)
			}
			// Uneven batches, so delta views start at, before and past where
			// the one-shots left the memo.
			n := mix.Visits.NumRows()
			for lo, step := 0, 0; lo < n; step++ {
				hi := min(lo+[]int{700, 256, 61, 256, 9}[step%5], n)
				batch, err := mix.Visits.View(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.AppendBatch(batch); err != nil {
					t.Fatal(err)
				}
				lo = hi
				snap, _, err := st.Ingest().Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				q := *mix.Query(kinds[step%len(kinds)])
				q.Table = snap
				want, err := engine.ExecDirect(&q)
				if err != nil {
					t.Fatal(err)
				}
				ex, err := db.Exec(ctx, &q)
				if err != nil {
					t.Fatalf("%v on a %d-row snapshot: %v", q.Kind, snap.NumRows(), err)
				}
				if !want.Equal(ex.Result) {
					t.Fatalf("%v on a %d-row snapshot diverges from ExecDirect", q.Kind, snap.NumRows())
				}
			}
			for i, sub := range subs {
				if err := sub.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				want, err := engine.ExecDirect(mix.Query(kinds[i]))
				if err != nil {
					t.Fatal(err)
				}
				got, ver := sub.Results()
				if ver != uint64(n) || !want.Equal(got) {
					t.Fatalf("%v: standing result at version %d diverges from ExecDirect over %d rows", mix.Query(kinds[i]).Kind, ver, n)
				}
				sub.Close()
			}
		})
	}
}
