// Command stream demonstrates the streaming subsystem: a table as an
// append-able source and queries as continuous subscriptions whose
// standing results stay fresh as rows arrive — no history re-scan. A
// session opens its table as a stream, registers three continuous
// queries (a standing TOP N, a HAVING over running sums, and a sliding
// windowed GROUP BY SUM), then ingests the UserVisits workload in
// batches. Each committed batch runs through the held switch program
// incrementally — the standing program keeps its caches warm across
// deltas — and every standing result is always bit-identical to
// re-running the query from scratch on everything committed so far.
package main

import (
	"context"
	"fmt"
	"log"

	"cheetah"
	"cheetah/internal/workload"
)

func main() {
	ctx := context.Background()

	// The stream's source data, pre-generated so batches are just views.
	src, err := workload.UserVisits(workload.DefaultUserVisits(30_000, 1))
	if err != nil {
		log.Fatal(err)
	}

	// The session's table starts EMPTY: everything arrives as a stream.
	live, err := cheetah.NewTable(src.Schema())
	if err != nil {
		log.Fatal(err)
	}
	db, err := cheetah.Open(live, cheetah.SessionOptions{Workers: 2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	st, err := db.Stream(ctx, cheetah.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Three continuous queries, built with the usual fluent builder.
	topQ, err := db.Select().TopN("adRevenue", 5).Build()
	if err != nil {
		log.Fatal(err)
	}
	topN, err := st.Subscribe(ctx, topQ)
	if err != nil {
		log.Fatal(err)
	}
	heavyQ, err := db.Select().GroupBySum("languageCode", "duration").Having(100_000).Build()
	if err != nil {
		log.Fatal(err)
	}
	heavy, err := st.Subscribe(ctx, heavyQ)
	if err != nil {
		log.Fatal(err)
	}
	sumQ, err := db.Select().GroupBySum("countryCode", "adRevenue").Build()
	if err != nil {
		log.Fatal(err)
	}
	// A sliding window: the last 10k rows, advancing every 5k.
	windowed, err := st.SubscribeWindow(ctx, sumQ, 10_000, 5_000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("continuous queries registered: topn plan=%q\n\n", topN.Plan().PrunerName)

	// Ingest in batches; after each flush the standing results moved.
	const batch = 6_000
	for lo := 0; lo < src.NumRows(); lo += batch {
		hi := lo + batch
		if hi > src.NumRows() {
			hi = src.NumRows()
		}
		view, err := src.View(lo, hi)
		if err != nil {
			log.Fatal(err)
		}
		if err := st.AppendBatch(view); err != nil {
			log.Fatal(err)
		}
		if err := topN.Flush(ctx); err != nil {
			log.Fatal(err)
		}
		res, ver := topN.Results()
		top := "-"
		if len(res.Rows) > 0 {
			top = res.Rows[len(res.Rows)-1][0]
		}
		if err := heavy.Flush(ctx); err != nil {
			log.Fatal(err)
		}
		hres, _ := heavy.Results()
		if err := windowed.Flush(ctx); err != nil {
			log.Fatal(err)
		}
		wlo, whi := windowed.WindowBounds()
		fmt.Printf("after %6d rows: top adRevenue=%s  heavy languages=%d  window=[%d,%d)\n",
			ver, top, len(hres.Rows), wlo, whi)
	}

	// The standing program pruned across the whole stream.
	tr := topN.Traffic()
	fmt.Printf("\ntopn standing program: %d entries streamed, %d forwarded (%.1f%% pruned across all deltas)\n",
		tr.EntriesSent, tr.Forwarded, 100*(1-float64(tr.Forwarded)/float64(tr.EntriesSent)))

	// The invariant the whole subsystem is built on: the standing result
	// equals a from-scratch run on the full prefix.
	ex, err := db.Exec(ctx, topQ)
	if err != nil {
		log.Fatal(err)
	}
	got, _ := topN.Results()
	fmt.Printf("standing == from-scratch: %v\n", ex.Result.Equal(got))

	// Backpressure and occupancy gauges.
	active := db.Fabric().Total().Active
	ist := st.Ingest().Stats()
	fmt.Printf("ingest: %d rows committed, %d standing queries, backlog %d, %d switch program(s) held\n",
		ist.Rows, ist.Subscriptions, ist.Backlog, active)
}
