// Command fabric demonstrates the multi-switch execution fabric: the
// paper's deployment shape, where each rack's ToR switch prunes its own
// workers' streams. A 4-switch session shards every query across the
// fabric (scatter/gather): the table splits per switch — contiguously
// for most kinds, hash-on-key for JOIN so matching keys co-locate —
// each shard streams through its own switch program concurrently, and
// the master runs the two-level merge (shard-local partials, then a
// global combine) that reproduces exact single-node results.
//
// The example also shows the storage half directly: the key shards a
// 4-switch JOIN places on each switch, and how their sizes balance.
package main

import (
	"context"
	"fmt"
	"log"

	"cheetah"
	"cheetah/internal/prune"
	"cheetah/internal/workload"
)

func main() {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(40_000, 1))
	if err != nil {
		log.Fatal(err)
	}
	rk := workload.Rankings(20_000, 2)

	// Storage half: a sharded JOIN splits both tables by a hash of their
	// key cells, so matching keys meet on one switch. A key shard copies
	// no cell: it is the list of a table's rows placed on that switch.
	fmt.Println("== JOIN key shards ==")
	left, err := uv.ShardKeys("destURL", 4)
	if err != nil {
		log.Fatal(err)
	}
	right, err := rk.ShardKeys("pageURL", 4)
	if err != nil {
		log.Fatal(err)
	}
	for i := range left {
		fmt.Printf("switch %d: UserVisits.destURL=%6d rows   Rankings.pageURL=%6d rows\n",
			i, len(left[i]), len(right[i]))
	}

	// Execution half: a 4-switch fabric session. Every Exec scatters the
	// query across the switches and gathers exactly.
	db, err := cheetah.Open(uv, cheetah.SessionOptions{Switches: 4, Workers: 2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== scatter/gather: TOP 100 adRevenue across 4 switches ==")
	ex, err := db.Select().TopN("adRevenue", 100).Exec(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ex.Explain())

	fmt.Println("\n== scatter/gather: JOIN (hash-on-key co-location) ==")
	ex, err = db.Select().Join(rk, "destURL", "pageURL").Exec(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ex.Explain())

	// The merged results are exact: compare against single-node truth.
	q, err := db.Select().
		Where("adRevenue", cheetah.OpGT, 9_000).
		Where("duration", prune.OpLE, 300).
		Build()
	if err != nil {
		log.Fatal(err)
	}
	want, err := cheetah.ExecDirect(q)
	if err != nil {
		log.Fatal(err)
	}
	got, err := db.Exec(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== exactness ==\nfilter rows: direct=%d fabric=%d equal=%v\n",
		len(want.Rows), len(got.Result.Rows), want.Equal(got.Result))

	// Serving across the fabric: concurrent queries are placed whole on
	// the least-loaded switch instead of being sharded.
	fmt.Printf("\n== serving placement across %d switches ==\n", db.Fabric().Size())
	for _, b := range []*cheetah.QueryBuilder{
		db.Select().Distinct("userAgent"),
		db.Select().GroupByMax("countryCode", "adRevenue"),
		db.Select().TopN("duration", 50),
	} {
		q, err := b.Build()
		if err != nil {
			log.Fatal(err)
		}
		ex, err := db.Submit(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s → switch %d, queryid %d, %d rows\n",
			q.Kind, ex.Switch, ex.QueryID, len(ex.Result.Rows))
	}
	fmt.Printf("fabric admissions: %+v\n", db.Fabric().Total())
}
