package cluster

import (
	"testing"
	"time"

	"cheetah/internal/boolexpr"
	"cheetah/internal/engine"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
	"cheetah/internal/workload"
)

func distinctQuery(t *testing.T, rows int, seed uint64) *engine.Query {
	t.Helper()
	uv, err := workload.UserVisits(workload.DefaultUserVisits(rows, seed))
	if err != nil {
		t.Fatal(err)
	}
	return &engine.Query{Kind: engine.KindDistinct, Table: uv, DistinctCols: []string{"userAgent"}}
}

// defaults returns k instances of q's default program.
func defaults(t *testing.T, q *engine.Query, k int, seed uint64) []prune.Pruner {
	t.Helper()
	progs := make([]prune.Pruner, k)
	for i := range progs {
		p, err := engine.DefaultPruner(q, seed)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = p
	}
	return progs
}

// execRacks runs q through the engine's pruned driver with one rack per
// program as the shards' dataplanes, closes the racks and returns the run
// and their reports.
func execRacks(t *testing.T, q *engine.Query, progs []prune.Pruner, cfg Config) (*engine.ShardedRun, []*Report) {
	t.Helper()
	racks := make([]*Rack, len(progs))
	flows := make([]engine.BatchDataplane, len(progs))
	for i, p := range progs {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		r, err := NewRack(p, c)
		if err != nil {
			t.Fatal(err)
		}
		racks[i], flows[i] = r, r
	}
	run, err := engine.ExecSharded(q, engine.ShardedOptions{
		Shards: len(progs), Workers: cfg.Workers, Seed: cfg.Seed, Pruners: progs, Flows: flows,
	})
	reps := make([]*Report, len(racks))
	for i, r := range racks {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		reps[i] = r.Report()
	}
	if err != nil {
		t.Fatal(err)
	}
	return run, reps
}

func TestClusterDistinctLossless(t *testing.T) {
	q := distinctQuery(t, 3000, 1)
	want, err := engine.ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	run, reps := execRacks(t, q, defaults(t, q, 1, 42), Config{Workers: 5, Seed: 42, RTO: 10 * time.Millisecond})
	if !want.Equal(run.Result) {
		t.Fatalf("cluster result diverges: want %d rows got %d", len(want.Rows), len(run.Result.Rows))
	}
	rep := reps[0]
	if rep.Pruned == 0 {
		t.Fatal("switch pruned nothing on a Zipfian distinct stream")
	}
	if rep.EntriesSent != 3000 {
		t.Fatalf("EntriesSent = %d", rep.EntriesSent)
	}
	if rep.Pruned+rep.Delivered < uint64(rep.EntriesSent) {
		t.Fatalf("conservation violated: pruned %d + delivered %d < sent %d",
			rep.Pruned, rep.Delivered, rep.EntriesSent)
	}
}

func TestClusterDistinctUnderLoss(t *testing.T) {
	q := distinctQuery(t, 1500, 3)
	want, err := engine.ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	run, reps := execRacks(t, q, defaults(t, q, 1, 7), Config{
		Workers: 3, Seed: 7, LossRate: 0.1, RTO: 8 * time.Millisecond,
	})
	if !want.Equal(run.Result) {
		t.Fatal("lossy cluster run diverges from ground truth")
	}
	if reps[0].Retransmissions == 0 {
		t.Fatal("10% loss with no retransmissions")
	}
	if run.Degraded != 0 {
		t.Fatalf("a 10%% lossy rack degraded to the backstop (%d)", run.Degraded)
	}
}

func TestClusterTopN(t *testing.T) {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(4000, 5))
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{Kind: engine.KindTopN, Table: uv, OrderCol: "adRevenue", N: 100}
	want, _ := engine.ExecDirect(q)
	run, reps := execRacks(t, q, defaults(t, q, 1, 9), Config{Workers: 4, Seed: 9, RTO: 10 * time.Millisecond})
	if !want.Equal(run.Result) {
		t.Fatal("top-n cluster run diverges")
	}
	if reps[0].PrunerName != "topn-rand" {
		t.Fatalf("pruner = %s", reps[0].PrunerName)
	}
}

func TestClusterSkylineWithDrain(t *testing.T) {
	rank := workload.Rankings(3000, 11)
	if err := rank.Shuffle(1); err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{Kind: engine.KindSkyline, Table: rank, SkylineCols: []string{"pageRank", "avgDuration"}}
	want, _ := engine.ExecDirect(q)
	run, _ := execRacks(t, q, defaults(t, q, 1, 13), Config{Workers: 2, Seed: 13, RTO: 10 * time.Millisecond})
	if !want.Equal(run.Result) {
		t.Fatal("skyline cluster run diverges (drain path broken?)")
	}
}

func TestClusterGroupByMax(t *testing.T) {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(3000, 17))
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{Kind: engine.KindGroupByMax, Table: uv, KeyCol: "languageCode", AggCol: "adRevenue"}
	want, _ := engine.ExecDirect(q)
	run, _ := execRacks(t, q, defaults(t, q, 1, 3), Config{Workers: 5, Seed: 3, RTO: 10 * time.Millisecond})
	if !want.Equal(run.Result) {
		t.Fatal("group-by cluster run diverges")
	}
}

func TestClusterCustomPruner(t *testing.T) {
	q := distinctQuery(t, 1000, 19)
	// An undersized FIFO matrix: still correct, just prunes less.
	p, err := prune.NewDistinct(prune.DistinctConfig{Rows: 8, Cols: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := engine.ExecDirect(q)
	run, reps := execRacks(t, q, []prune.Pruner{p}, Config{Workers: 2, Seed: 21, RTO: 10 * time.Millisecond})
	if !want.Equal(run.Result) {
		t.Fatal("custom pruner run diverges")
	}
	if reps[0].PrunerName != "distinct-FIFO" {
		t.Fatalf("pruner = %s", reps[0].PrunerName)
	}
}

func TestClusterRejectsOversizedProgram(t *testing.T) {
	// A matrix too large for the per-stage SRAM of the model.
	p, err := prune.NewDistinct(prune.DistinctConfig{Rows: 1 << 22, Cols: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r, err := NewRack(p, Config{Workers: 1}); err == nil {
		r.Close()
		t.Fatal("oversized program admitted")
	}
}

// TestRunShardedMatchesDirect runs single-stream kinds across 1, 2 and 4
// racks (own network + pipeline each) and checks the merged completion
// against ground truth, clean and lossy.
func TestRunShardedMatchesDirect(t *testing.T) {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(2400, 21))
	if err != nil {
		t.Fatal(err)
	}
	queries := map[string]*engine.Query{
		"distinct":    {Kind: engine.KindDistinct, Table: uv, DistinctCols: []string{"userAgent"}},
		"topn":        {Kind: engine.KindTopN, Table: uv, OrderCol: "adRevenue", N: 60},
		"groupby-max": {Kind: engine.KindGroupByMax, Table: uv, KeyCol: "countryCode", AggCol: "adRevenue"},
		"skyline":     {Kind: engine.KindSkyline, Table: uv, SkylineCols: []string{"adRevenue", "duration"}},
	}
	for name, q := range queries {
		want, err := engine.ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, switches := range []int{1, 2, 4} {
			run, reps := execRacks(t, q, defaults(t, q, switches, 13), Config{Workers: 2, Seed: 13, RTO: 10 * time.Millisecond})
			if !want.Equal(run.Result) {
				t.Fatalf("%s switches=%d: sharded cluster run diverges", name, switches)
			}
			sent := 0
			for _, r := range reps {
				sent += r.EntriesSent
			}
			if sent != q.Table.NumRows() {
				t.Fatalf("%s switches=%d: per-rack EntriesSent sums to %d, want %d",
					name, switches, sent, q.Table.NumRows())
			}
		}
	}

	// Lossy fabric: retransmissions per rack, result still exact.
	q := queries["distinct"]
	want, _ := engine.ExecDirect(q)
	run, reps := execRacks(t, q, defaults(t, q, 3, 17), Config{
		Workers: 2, Seed: 17, LossRate: 0.08, RTO: 8 * time.Millisecond,
	})
	if !want.Equal(run.Result) {
		t.Fatal("lossy sharded run diverges from ground truth")
	}
	retrans := uint64(0)
	for _, r := range reps {
		retrans += r.Retransmissions
	}
	if retrans == 0 {
		t.Fatal("8% loss across 3 racks with no retransmissions")
	}
}

// TestRackMarksWhatTheMasterReceived drives ProcessBatch directly with a
// stateless program, whose verdicts do not depend on arrival order: over
// chunks of every shape (fewer entries than flows, one flow's worth, many)
// each entry is marked Forward at least when the program forwards it —
// exactly then on a clean link — and the rack's counters add up.
func TestRackMarksWhatTheMasterReceived(t *testing.T) {
	filter := func() prune.Pruner {
		f, err := prune.NewFilter(prune.FilterConfig{
			Predicates: []prune.Predicate{{ValIdx: 0, Op: prune.OpGT, Const: 60}},
			Formula:    boolexpr.Leaf{V: 0},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, loss := range []float64{0, 0.2} {
		// A clean link needs no timer, and a long one cannot fire early on
		// a loaded machine and forward a pruned entry's retransmission.
		rto := time.Second
		if loss > 0 {
			rto = 4 * time.Millisecond
		}
		twin := filter()
		r, err := NewRack(filter(), Config{Workers: 3, Seed: 5, LossRate: loss, RTO: rto})
		if err != nil {
			t.Fatal(err)
		}
		sent := 0
		for c, n := range []int{1, 2, 3, 7, 400} {
			b := &switchsim.Batch{Cols: [][]uint64{make([]uint64, n), make([]uint64, n)}, N: n}
			for j := 0; j < n; j++ {
				b.Cols[0][j] = uint64((j*37 + c) % 100)
				b.Cols[1][j] = uint64(j) // a column the program never reads
			}
			got := make([]switchsim.Decision, n)
			want := make([]switchsim.Decision, n)
			r.ProcessBatch(b, got)
			switchsim.ProcessBatchOf(twin, b, want)
			sent += n
			for j := range got {
				if want[j] == switchsim.Forward && got[j] != switchsim.Forward {
					t.Fatalf("loss %v chunk %d entry %d: the program forwarded it, the rack did not", loss, c, j)
				}
				if loss == 0 && got[j] != want[j] {
					t.Fatalf("clean link chunk %d entry %d: rack %v, program %v", c, j, got[j], want[j])
				}
			}
		}
		if r.Err() != nil {
			t.Fatalf("loss %v: %v", loss, r.Err())
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		rep := r.Report()
		if rep.EntriesSent != sent || rep.Pruned+rep.Delivered < uint64(sent) {
			t.Fatalf("loss %v: report %+v for %d entries", loss, rep, sent)
		}
		if loss > 0 && rep.Retransmissions == 0 {
			t.Fatalf("loss %v with no retransmissions", loss)
		}
	}
}

// TestRackDeadLinkDegrades: a link that loses everything breaks its rack's
// switch, not the query — each shard finishes on the master-side backstop
// and the result stays exact.
func TestRackDeadLinkDegrades(t *testing.T) {
	q := distinctQuery(t, 300, 29)
	want, _ := engine.ExecDirect(q)
	const switches = 2
	run, _ := execRacks(t, q, defaults(t, q, switches, 31), Config{
		Workers: 2, Seed: 31, LossRate: 1, RTO: time.Millisecond,
	})
	if !want.Equal(run.Result) {
		t.Fatal("dead-link run diverges from ground truth")
	}
	if run.Degraded != switches {
		t.Fatalf("Degraded = %d, want %d", run.Degraded, switches)
	}
}

// TestRackCloseUninstalls: a rack reports the occupancy its program took
// and leaves its pipeline empty on Close; a failed uninstall is Close's
// error, not a panic; and a second Close is a no-op.
func TestRackCloseUninstalls(t *testing.T) {
	q := distinctQuery(t, 10, 1)
	r, err := NewRack(defaults(t, q, 1, 1)[0], Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if u := r.Report().Util; u.StagesUsed == 0 {
		t.Fatalf("report missing per-query utilization: %v", u)
	}
	if u := r.pipe.Utilization(); u.StagesUsed != 0 {
		t.Fatalf("Close left the program installed: %v", u)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	failed, err := NewRack(defaults(t, q, 1, 1)[0], Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	failed.pipe.Fail()
	if err := failed.Close(); err == nil {
		t.Fatal("uninstall from a failed pipeline reported no error")
	}
}
