// Command multiquery demonstrates §5/§6: packing several query programs
// onto one switch pipeline concurrently. The first half does it by hand
// — each program comes out of the session planner (which sizes it to
// fit the model); the pipeline's admission control packs them onto
// shared stages and the example prints the occupancy map. The second
// half lets the serving layer do the same for real executions: four
// goroutine clients Submit through the session's fabric and the switch
// multiplexes their traffic by QueryID.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"cheetah"
	"cheetah/internal/prune"
	"cheetah/internal/workload"
)

func main() {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(10_000, 1))
	if err != nil {
		log.Fatal(err)
	}
	db, err := cheetah.Open(uv, cheetah.SessionOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	builders := []*cheetah.QueryBuilder{
		db.Select().Where("adRevenue", prune.OpGT, 500_000),
		db.Select().Distinct("userAgent"),
		db.Select().TopN("adRevenue", 250),
		db.Select().GroupByMax("userAgent", "adRevenue"),
	}

	pl, err := cheetah.NewPipeline(cheetah.Tofino())
	if err != nil {
		log.Fatal(err)
	}
	var pruners []cheetah.Pruner
	for i, b := range builders {
		plan, err := b.Plan()
		if err != nil {
			log.Fatal(err)
		}
		p, err := plan.NewPruner()
		if err != nil {
			log.Fatal(err)
		}
		flow := uint32(i + 1)
		if err := pl.Install(flow, p); err != nil {
			log.Fatalf("install flow %d (%s): %v", flow, p.Name(), err)
		}
		fmt.Printf("installed %-14s on flow %d: %s\n", p.Name(), flow, p.Profile())
		pruners = append(pruners, p)
	}

	// Traffic for all four queries interleaves through one pipeline.
	for i := uint64(0); i < 10_000; i++ {
		pl.Process(1, []uint64{i % 1_000_000})
		pl.Process(2, []uint64{i % 500})
		pl.Process(3, []uint64{i * 2654435761})
		pl.Process(4, []uint64{i % 100, i % 999})
	}
	fmt.Println()
	fmt.Print(pl.String())
	u := pl.Utilization()
	fmt.Printf("\nutilization: %d/%d stages, %d/%d ALUs, %d/%d KB SRAM\n",
		u.StagesUsed, u.StagesTotal, u.ALUsUsed, u.ALUsTotal,
		u.SRAMBitsUsed/8192, u.SRAMBitsCap/8192)
	for i, p := range pruners {
		st := p.Stats()
		fmt.Printf("flow %d %-14s processed=%d pruned=%d (%.1f%%)\n",
			i+1, p.Name(), st.Processed, st.Pruned, 100*st.PruneRate())
	}

	// The serving layer automates all of the above for live traffic:
	// the session's fabric owns the shared pipeline, and concurrent
	// db.Submit calls are admitted (FIFO when full), multiplexed by
	// QueryID, executed end-to-end and uninstalled on completion.
	fmt.Println("\n--- concurrent clients via db.Submit ---")
	ctx := context.Background()
	var wg sync.WaitGroup
	results := make([]string, len(builders))
	for i, b := range builders {
		q, err := b.Build()
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(i int, q *cheetah.Query) {
			defer wg.Done()
			ex, err := db.Submit(ctx, q)
			if err != nil {
				results[i] = fmt.Sprintf("client %d: %v", i, err)
				return
			}
			results[i] = fmt.Sprintf("client %d: %-12s query %d → %5d rows, %5.1f%% pruned",
				i, ex.Plan.Query.Kind, ex.QueryID, len(ex.Result.Rows), 100*ex.Stats.PruneRate())
		}(i, q)
	}
	wg.Wait()
	for _, r := range results {
		fmt.Println(r)
	}
	fmt.Printf("serving stats: %+v\n", db.Fabric().Total())
}
