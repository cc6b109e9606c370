// Command chaos demonstrates the fabric's fault tolerance: switches
// are killed, restored, and hot-added while served queries and a
// continuous query keep running — and every answer stays bit-identical
// to direct execution, because the servers are the exactness backstop
// (§7.2 of the paper: a dead switch prunes nothing, it never lies).
//
// Three failure modes are shown:
//
//  1. A switch dies in the middle of a served query's stream. The
//     attempt is discarded (register state absorbed by the dead switch
//     is unrecoverable) and the query fails over to a survivor with a
//     fresh program.
//  2. The whole fabric dies. Submissions degrade to exact direct
//     execution until a hot-added switch brings pruning back.
//  3. The switch hosting a continuous query's standing program dies
//     between deltas. The subscription re-places a fresh program onto
//     the least-loaded survivor, and its standing result never
//     diverges.
package main

import (
	"context"
	"fmt"
	"log"

	"cheetah"
	"cheetah/internal/workload"
)

func main() {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(30_000, 1))
	if err != nil {
		log.Fatal(err)
	}
	want, err := cheetah.ExecDirect(&cheetah.Query{
		Kind: cheetah.KindDistinct, Table: uv, DistinctCols: []string{"userAgent"},
	})
	if err != nil {
		log.Fatal(err)
	}

	db, err := cheetah.Open(uv, cheetah.SessionOptions{Switches: 2, Workers: 2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fab := db.Fabric()
	ctx := context.Background()
	query := func() *cheetah.Query {
		return &cheetah.Query{Kind: cheetah.KindDistinct, Table: uv, DistinctCols: []string{"userAgent"}}
	}

	// 1. Kill the placed switch in the middle of the query's stream: a
	// fault injector takes switch 0's pipeline down at its next batch,
	// so the query's first attempt dies mid-stream and fails over to
	// switch 1 with a fresh program.
	fmt.Println("== mid-query switch death → failover ==")
	fab.Pipeline(0).SetFaultInjector(func(uint32, int) bool { return true })
	ex, err := db.SubmitQoS(ctx, query(), cheetah.QoS{Tenant: "acme", Priority: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact=%v  failed over %d time(s), finished on switch %d\n",
		want.Equal(ex.Result), ex.FailedOver, ex.Switch)

	// 2. Kill every switch: §7.2 backstop — exact direct execution.
	fmt.Println("\n== whole fabric dead → exact direct backstop ==")
	for i := 0; i < fab.Size(); i++ {
		fab.Fail(i)
	}
	ex, err = db.Submit(ctx, query())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact=%v  mode=%v (%s)\n", want.Equal(ex.Result), ex.Plan.Mode, ex.Plan.Reason)

	// Hot-add a switch: pruning comes back without touching the dead ones.
	idx, err := fab.Add()
	if err != nil {
		log.Fatal(err)
	}
	ex, err = db.Submit(ctx, query())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after Add(): exact=%v  mode=%v on switch %d (added switch %d)\n",
		want.Equal(ex.Result), ex.Plan.Mode, ex.Switch, idx)
	for i := 0; i < fab.Size(); i++ {
		if fab.Failed(i) {
			if err := fab.Restore(i); err != nil {
				log.Fatal(err)
			}
		}
	}
	st := db.Fabric().Total()
	fmt.Printf("fabric counters: admitted=%d failed_over=%d revoked=%d shed=%d\n",
		st.Admitted, st.FailedOver, st.Revoked, st.Shed)

	// 3. A continuous query survives its switch dying: the standing
	// program re-places onto a survivor between deltas.
	fmt.Println("\n== continuous query re-placement ==")
	target, err := cheetah.NewTable(uv.Schema())
	if err != nil {
		log.Fatal(err)
	}
	sdb, err := cheetah.Open(target, cheetah.SessionOptions{Switches: 1, Workers: 2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	stream, err := sdb.Stream(ctx, cheetah.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer stream.Close()
	sub, err := stream.Subscribe(ctx, &cheetah.Query{
		Kind: cheetah.KindDistinct, Table: target, DistinctCols: []string{"userAgent"},
	})
	if err != nil {
		log.Fatal(err)
	}
	half := uv.NumRows() / 2
	first, err := uv.View(0, half)
	if err != nil {
		log.Fatal(err)
	}
	if err := stream.AppendBatch(first); err != nil {
		log.Fatal(err)
	}
	if err := sub.Flush(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("standing program on switch %d; killing it and hot-adding a spare\n", sub.Switch())
	sdb.Fabric().Fail(sub.Switch())
	if _, err := sdb.Fabric().Add(); err != nil {
		log.Fatal(err)
	}
	rest, err := uv.View(half, uv.NumRows())
	if err != nil {
		log.Fatal(err)
	}
	if err := stream.AppendBatch(rest); err != nil {
		log.Fatal(err)
	}
	if err := sub.Flush(ctx); err != nil {
		log.Fatal(err)
	}
	got, _ := sub.Results()
	fmt.Printf("re-placed %d time(s), now on switch %d, standing result exact=%v\n",
		sub.Replaced(), sub.Switch(), want.Equal(got))
}
