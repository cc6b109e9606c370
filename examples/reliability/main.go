// Command reliability runs a DISTINCT query end-to-end over the
// simulated lossy network — five CWorkers, the switch dataplane, and the
// CMaster speaking the §7.2 reliability protocol — at increasing loss
// rates, verifying the result stays exact while retransmissions grow. The
// session API sends each switch's entries through the rack via UseCluster.
// It exits non-zero if any run's result is not exact.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"cheetah"
	"cheetah/internal/workload"
)

func main() {
	rows := flag.Int("rows", 3000, "UserVisits rows")
	seed := flag.Uint64("seed", 11, "generator seed")
	flag.Parse()

	uv, err := workload.UserVisits(workload.DefaultUserVisits(*rows, *seed))
	if err != nil {
		log.Fatal(err)
	}
	truth, err := cheetah.ExecDirect(&cheetah.Query{
		Kind: cheetah.KindDistinct, Table: uv, DistinctCols: []string{"userAgent"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ground truth: %d distinct user agents over %d rows\n\n", len(truth.Rows), *rows)
	fmt.Printf("%-8s %8s %8s %10s %12s %8s\n",
		"loss", "sent", "pruned", "delivered", "retransmits", "exact")
	inexact := 0
	for _, loss := range []float64{0, 0.05, 0.15, 0.25} {
		db, err := cheetah.Open(uv, cheetah.SessionOptions{
			Workers:    5,
			Seed:       *seed,
			UseCluster: true,
			LossRate:   loss,
			RTO:        8 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		ex, err := db.Select().Distinct("userAgent").Exec(context.Background())
		if err != nil {
			log.Fatalf("loss %.2f: %v", loss, err)
		}
		rep := ex.ClusterReport
		exact := "yes"
		if !truth.Equal(ex.Result) {
			exact = "NO"
			inexact++
		}
		fmt.Printf("%-8.2f %8d %8d %10d %12d %8s\n",
			loss, rep.EntriesSent, rep.Pruned, rep.Delivered, rep.Retransmissions, exact)
	}
	fmt.Println("\nEvery packet is either pruned-and-ACKed by the switch or delivered")
	fmt.Println("to the master; duplicates from retransmission are harmless (§7.2).")
	if inexact > 0 {
		fmt.Fprintf(os.Stderr, "%d of the runs returned a wrong result\n", inexact)
		os.Exit(1)
	}
}
