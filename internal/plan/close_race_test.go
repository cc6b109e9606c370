package plan

// Dedicated race coverage for Session.Close against the QoS submit and
// streaming append paths (the plain-Submit race lives in
// TestSessionCloseDuringSubmit). The contract under test, documented on
// Session.Close:
//
//   - SubmitQoS racing Close never hangs and never returns a
//     wrong result: it completes exactly (direct fallback included) or
//     fails with a QoS shed (fabric.ErrDeadline) it could have returned
//     anyway.
//   - Streaming.Append racing Close either commits atomically before
//     the ingestor closes or fails with stream.ErrClosed — the
//     retryable "handle gone" signal; no partial rows, no other error.
//   - Subscriptions racing Close drain their in-flight delta; their
//     standing result stays exact for whatever prefix committed.
//
// Queries submitted while appenders run read consistent Ingestor
// snapshots, the same discipline netserve uses: the live table's
// column storage may grow mid-scan.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cheetah/internal/engine"
	"cheetah/internal/fabric"
	"cheetah/internal/stream"
	"cheetah/internal/table"
	"cheetah/internal/workload/multitenant"
)

// TestSessionCloseRaceQoSAndAppend closes the session while QoS
// submitters, appenders and a standing subscription are all mid-flight.
// Run under -race this pins the close path's synchronization; the
// assertions pin the error contract.
func TestSessionCloseRaceQoSAndAppend(t *testing.T) {
	for round := 0; round < 3; round++ {
		mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 1200, RankRows: 400, Seed: uint64(31 + round)})
		if err != nil {
			t.Fatal(err)
		}
		// The served table starts as a copy of the mix's visits; the
		// original stays immutable as the appenders' row donor.
		live := table.MustNew(mix.Visits.Schema())
		if err := live.AppendRowsFrom(mix.Visits, seqRows(0, 600)); err != nil {
			t.Fatal(err)
		}
		ctx := streamCtx(t)
		db, err := Open(live, Options{Workers: 1, Seed: uint64(round), Switches: 2, TenantQuota: 2})
		if err != nil {
			t.Fatal(err)
		}
		st, err := db.Stream(ctx, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		topn := &engine.Query{Kind: engine.KindTopN, Table: live, OrderCol: "adRevenue", N: 25}
		sub, err := st.Subscribe(ctx, topn)
		if err != nil {
			t.Fatal(err)
		}

		const submitters, appenders, perWorker = 4, 3, 8
		var wg sync.WaitGroup
		errs := make(chan error, (submitters+appenders)*perWorker)

		for c := 0; c < submitters; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					idx := c*perWorker + i
					// Read a consistent prefix: the live table grows
					// concurrently.
					snap, _, err := st.Ingest().Snapshot()
					if err != nil {
						if errors.Is(err, stream.ErrClosed) {
							return
						}
						errs <- err
						return
					}
					q := *mix.Query(idx)
					q.Table = snap
					qos := fabric.QoS{Tenant: mix.Tenant(idx), Priority: mix.Priority(idx)}
					if i%4 == 3 {
						// Some submissions carry deadlines: a shed on a
						// closing fabric is allowed, a hang is not.
						qos.Deadline = time.Now().Add(50 * time.Millisecond)
					}
					ex, err := db.SubmitQoS(ctx, &q, qos)
					if err != nil {
						if errors.Is(err, fabric.ErrDeadline) {
							continue // deadline shed: dropped, not degraded
						}
						errs <- fmt.Errorf("submitter %d query %d: %v", c, i, err)
						return
					}
					if ex.Result == nil {
						errs <- fmt.Errorf("submitter %d query %d: nil result without error", c, i)
						return
					}
				}
			}(c)
		}
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					lo := 600 + (a*perWorker+i)*10%(mix.Visits.NumRows()-610)
					batch := table.MustNew(mix.Visits.Schema())
					if err := batch.AppendRowsFrom(mix.Visits, seqRows(lo, lo+10)); err != nil {
						errs <- err
						return
					}
					if err := st.AppendBatch(batch); err != nil {
						if errors.Is(err, stream.ErrClosed) {
							return // closed mid-append: the documented signal
						}
						errs <- fmt.Errorf("appender %d batch %d: %v", a, i, err)
						return
					}
				}
			}(a)
		}

		// Close mid-flight, jittered per round so the race window moves.
		time.Sleep(time.Duration(round+1) * time.Millisecond)
		db.Close()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		// The subscription's standing result stays exact for whatever
		// prefix committed before the close won the race.
		res, ver := sub.Results()
		if res != nil && ver > 0 {
			prefix, err := live.SnapshotPrefix(int(ver))
			if err != nil {
				t.Fatal(err)
			}
			want, err := engine.ExecDirect(&engine.Query{
				Kind: engine.KindTopN, Table: prefix, OrderCol: "adRevenue", N: 25,
			})
			if err != nil {
				t.Fatal(err)
			}
			want.Sort()
			got := &engine.Result{Columns: res.Columns, Rows: res.Rows}
			got.Sort()
			if !want.Equal(got) {
				t.Fatalf("round %d: standing result at version %d diverges after close race", round, ver)
			}
		}

		// Idempotence under concurrency: racing extra Closes is safe.
		var cwg sync.WaitGroup
		for i := 0; i < 4; i++ {
			cwg.Add(1)
			go func() { defer cwg.Done(); db.Close() }()
		}
		cwg.Wait()
	}
}

// seqRows returns the index range [lo, hi).
func seqRows(lo, hi int) []int {
	rows := make([]int, hi-lo)
	for i := range rows {
		rows[i] = lo + i
	}
	return rows
}
