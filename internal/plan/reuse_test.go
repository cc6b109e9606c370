package plan_test

// Programs handed back to a session's free list are Reset and reused by
// the next query of the same configuration. These tests hold every front
// door that reuses them to a cold run: the same exact result, the same
// traffic and pruning statistics, the same reported occupancy.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"cheetah/internal/engine"
	"cheetah/internal/fabric"
	"cheetah/internal/netserve"
	"cheetah/internal/plan"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
	"cheetah/internal/wire"
	"cheetah/internal/workload/multitenant"
)

// TestReusedProgramsStayExact runs each of the 8 kinds three times
// through Exec at one and two switches, through SubmitQoS and through a
// loopback netserve client. Every run equals ExecDirect, and the warm
// runs' traffic and statistics equal the cold first run's. A switch
// killed mid-query keeps its program off the list; a flood of distinct
// TOP N Ns leaves the list within one switch's SRAM; and a warm served
// GROUP BY allocates a fraction of its register matrix.
func TestReusedProgramsStayExact(t *testing.T) {
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 1600, RankRows: 700, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for kind := 0; kind < multitenant.NumKinds; kind++ {
		q := mix.Query(kind)
		want, err := engine.ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprint(q.Kind), func(t *testing.T) {
			for _, k := range []int{1, 2} {
				db, err := plan.Open(mix.Visits, plan.Options{Workers: 2, Seed: 1, Switches: k})
				if err != nil {
					t.Fatal(err)
				}
				var cold *plan.Execution
				for run := 0; run < 3; run++ {
					ex, err := db.Exec(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					checkRun(t, fmt.Sprintf("Exec k=%d run %d", k, run), ex, cold, want)
					if run == 0 {
						cold = ex
					}
					if got, want := ex.PipelineUtil, installedUtil(t, db.Model(), ex.Plan.Profile); got != want {
						t.Fatalf("Exec k=%d: PipelineUtil %+v, a pipeline installing the program reports %+v", k, got, want)
					}
				}
				// Each run takes the idle programs its plan needs and hands
				// them back: k of them stay listed (none for FILTER).
				if progs, _ := plan.IdlePrograms(db); len(progs) != pooled(q, k) {
					t.Fatalf("Exec k=%d: %d idle programs after three runs, want %d", k, len(progs), pooled(q, k))
				}
			}
			servedReuse(t, mix, q, want)
		})
	}
	t.Run("netserve", func(t *testing.T) { netReuse(t, mix) })
	t.Run("flood", func(t *testing.T) { floodTopN(t, mix) })
	t.Run("alloc", warmServedAlloc)
}

// checkRun requires ex to equal ExecDirect and, past the cold run, to
// match its traffic and statistics.
func checkRun(t *testing.T, what string, ex, cold *plan.Execution, want *engine.Result) {
	t.Helper()
	if !want.Equal(ex.Result) {
		t.Fatalf("%s: result diverges from ExecDirect\n got: %v\nwant: %v", what, ex.Result, want)
	}
	if cold != nil && (ex.Traffic != cold.Traffic || ex.Stats != cold.Stats) {
		t.Fatalf("%s: traffic %+v stats %+v, cold run %+v %+v", what, ex.Traffic, ex.Stats, cold.Traffic, cold.Stats)
	}
}

// pooled is how many programs a k-switch plan of q lists after a run.
func pooled(q *engine.Query, k int) int {
	if q.Kind == engine.KindFilter {
		return 0
	}
	return k
}

// servedReuse submits q three times, then kills the placed switch under
// a fourth submission, then submits once more.
func servedReuse(t *testing.T, mix *multitenant.Mix, q *engine.Query, want *engine.Result) {
	t.Helper()
	db, err := plan.Open(mix.Visits, plan.Options{Workers: 2, Seed: 1, Switches: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	var cold *plan.Execution
	for run := 0; run < 3; run++ {
		ex, err := db.SubmitQoS(ctx, q, fabric.QoS{Tenant: "t"})
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, fmt.Sprintf("SubmitQoS run %d", run), ex, cold, want)
		if run == 0 {
			cold = ex
		}
	}
	before, _ := plan.IdlePrograms(db)
	if len(before) != pooled(q, 1) {
		t.Fatalf("SubmitQoS: %d idle programs after three runs, want %d", len(before), pooled(q, 1))
	}

	// The switch the next query lands on dies under its first batch: the
	// query fails over, and neither the program the dead switch touched
	// nor its replacement goes back to the list.
	var killed atomic.Bool
	fab := db.Fabric()
	for i := 0; i < fab.Size(); i++ {
		fab.Pipeline(i).SetFaultInjector(func(uint32, int) bool {
			return killed.CompareAndSwap(false, true)
		})
	}
	ex, err := db.SubmitQoS(ctx, q, fabric.QoS{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(ex.Result) || ex.FailedOver < 1 {
		t.Fatalf("killed switch: FailedOver %d, result exact %v", ex.FailedOver, want.Equal(ex.Result))
	}
	after, _ := plan.IdlePrograms(db)
	if len(after) != 0 {
		t.Fatalf("killed switch: %d programs went back to the list, want none", len(after))
	}
	for i := 0; i < fab.Size(); i++ {
		fab.Pipeline(i).SetFaultInjector(nil)
		if fab.Failed(i) {
			if err := fab.Restore(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	ex, err = db.SubmitQoS(ctx, q, fabric.QoS{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, "SubmitQoS after the kill", ex, cold, want)
	after, _ = plan.IdlePrograms(db)
	if len(after) != pooled(q, 1) || len(before) > 0 && slices.Contains(after, before[0]) {
		t.Fatalf("after the kill: idle programs %v, the killed query's program was %v", after, before)
	}
}

// netReuse runs every kind three times through a loopback client: each
// answer equals ExecDirect and carries the cold run's traffic.
func netReuse(t *testing.T, mix *multitenant.Mix) {
	srv, err := netserve.Listen("127.0.0.1:0", netserve.Options{
		Tables:  map[string]*table.Table{"visits": mix.Visits, "rankings": mix.Rankings},
		Primary: "visits",
		Plan:    plan.Options{Workers: 2, Seed: 1, Switches: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := netserve.Dial(srv.Addr().String(), "t")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	for kind := 0; kind < multitenant.NumKinds; kind++ {
		q := mix.Query(kind)
		want, err := engine.ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		right := ""
		if q.Right != nil {
			right = "rankings"
		}
		spec, err := wire.SpecOf(q, "visits", right)
		if err != nil {
			t.Fatal(err)
		}
		var cold *wire.ResultMsg
		for run := 0; run < 3; run++ {
			res, err := cl.Query(ctx, *spec, netserve.QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := (&engine.Result{Columns: res.Columns, Rows: res.Rows}); !want.Equal(got) {
				t.Fatalf("%v run %d over the wire diverges from ExecDirect\n got: %v\nwant: %v", q.Kind, run, got, want)
			}
			if run == 0 {
				cold = res
			} else if res.EntriesSent != cold.EntriesSent || res.Forwarded != cold.Forwarded {
				t.Fatalf("%v run %d: sent %d forwarded %d, cold run %d %d",
					q.Kind, run, res.EntriesSent, res.Forwarded, cold.EntriesSent, cold.Forwarded)
			}
		}
	}
	if progs, _ := plan.IdlePrograms(srv.Session()); len(progs) != multitenant.NumKinds-1 {
		t.Fatalf("%d idle programs after every kind ran, want one per pooled kind (%d)", len(progs), multitenant.NumKinds-1)
	}
}

// floodTopN submits TOP N queries with distinct Ns — each its own
// configuration, so none reuses another's program — on a switch small
// enough for them to overflow it, then a GROUP BY MAX twice. The list
// stays within one switch's SRAM throughout, drops its oldest programs,
// and still lists the GROUP BY program the flood could have crowded out.
func floodTopN(t *testing.T, mix *multitenant.Mix) {
	model := switchsim.Tofino()
	model.SRAMPerStageBits = 512 << 10
	db, err := plan.Open(mix.Visits, plan.Options{Workers: 2, Seed: 1, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	bound := model.TotalSRAMBits()
	ctx := context.Background()
	const flood = 200
	for n := 50; n < 50+flood; n++ {
		q := &engine.Query{Kind: engine.KindTopN, Table: mix.Visits, OrderCol: "adRevenue", N: n}
		ex, err := db.SubmitQoS(ctx, q, fabric.QoS{})
		if err != nil {
			t.Fatal(err)
		}
		if ex.Plan.PrunerName != "topn-rand" {
			t.Fatalf("N=%d planned %s (%s), want the randomized program", n, ex.Plan.PrunerName, ex.Plan.Reason)
		}
		if _, bits := plan.IdlePrograms(db); bits > bound {
			t.Fatalf("N=%d: idle programs hold %d SRAM bits, over one switch's %d", n, bits, bound)
		}
	}
	progs, bits := plan.IdlePrograms(db)
	if len(progs) == 0 || len(progs) >= flood {
		t.Fatalf("after %d distinct Ns: %d idle programs (%d bits of %d): the flood should overflow the list", flood, len(progs), bits, bound)
	}
	gq := mix.Query(3)
	want, err := engine.ExecDirect(gq)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		ex, err := db.SubmitQoS(ctx, gq, fabric.QoS{})
		if err != nil {
			t.Fatal(err)
		}
		if ex.Plan.Mode != plan.ModeCheetah || !want.Equal(ex.Result) {
			t.Fatalf("GROUP BY MAX after the flood: mode %v, exact %v", ex.Plan.Mode, want.Equal(ex.Result))
		}
	}
	progs, bits = plan.IdlePrograms(db)
	if bits > bound || progs[len(progs)-1].Name() != "groupby-max" {
		t.Fatalf("after the flood and a GROUP BY MAX: %d bits of %d, newest idle program %s", bits, bound, progs[len(progs)-1].Name())
	}
}

// warmServedAlloc measures what a warm served GROUP BY allocates on an
// 8192-row table: with its program reused, a query allocates well under
// the 0.5 MB register matrix a build costs.
func warmServedAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes allocation counts")
	}
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 8192, RankRows: 4096, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	db, err := plan.Open(mix.Visits, plan.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, c := range []struct {
		q     *engine.Query
		bound uint64
	}{
		{mix.Query(4), 64 << 10},  // GROUP BY SUM
		{mix.Query(3), 192 << 10}, // GROUP BY MAX
	} {
		submit := func() {
			if _, err := db.SubmitQoS(context.Background(), c.q, fabric.QoS{}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			submit()
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			submit()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%v: %d KiB allocated per warm served query", c.q.Kind, per>>10)
		if per > c.bound {
			t.Fatalf("%v: %d KiB allocated per warm served query, want ≤ %d KiB", c.q.Kind, per>>10, c.bound>>10)
		}
	}
}

// installedUtil is what a fresh pipeline of the model reports after
// installing a program with profile prof.
func installedUtil(t *testing.T, m switchsim.Model, prof switchsim.Profile) switchsim.Utilization {
	t.Helper()
	if prof.Stages == 0 {
		return switchsim.Utilization{} // a direct plan has no program
	}
	pl, err := switchsim.NewPipeline(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Install(1, profileOnly{prof}); err != nil {
		t.Fatal(err)
	}
	return pl.Utilization()
}

// profileOnly is a program that is nothing but its resource profile.
type profileOnly struct{ prof switchsim.Profile }

func (p profileOnly) Profile() switchsim.Profile        { return p.prof }
func (profileOnly) Process([]uint64) switchsim.Decision { return switchsim.Forward }
func (profileOnly) Reset()                              {}
