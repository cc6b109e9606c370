package plan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"cheetah/internal/engine"
	"cheetah/internal/switchsim"
	"cheetah/internal/workload/multitenant"
)

// TestServeConcurrentEquivalence is the serving acceptance bar: N
// goroutine clients multiplexing the full mixed workload through one
// shared switch — and through four, where least-loaded placement races
// the queue fallback — must produce, for every query, exactly the result
// of exact direct execution.
func TestServeConcurrentEquivalence(t *testing.T) {
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 4000, RankRows: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, switches := range []int{1, 4} {
		t.Run(fmt.Sprintf("switches=%d", switches), func(t *testing.T) {
			db, err := Open(mix.Visits, Options{Workers: 3, Seed: 9, Switches: switches})
			if err != nil {
				t.Fatal(err)
			}

			const clients = 8
			const total = 3 * multitenant.NumKinds
			jobs := make(chan int, total)
			for i := 0; i < total; i++ {
				jobs <- i
			}
			close(jobs)

			var wg sync.WaitGroup
			var mu sync.Mutex
			sawQueryIDs := false
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range jobs {
						q := mix.Query(i)
						ex, err := db.Submit(context.Background(), q)
						if err != nil {
							t.Errorf("query %d (%s): %v", i, q.Kind, err)
							continue
						}
						direct, err := engine.ExecDirect(q)
						if err != nil {
							t.Errorf("query %d (%s): direct: %v", i, q.Kind, err)
							continue
						}
						if !direct.Equal(ex.Result) {
							t.Errorf("query %d (%s): served result diverges from ExecDirect", i, q.Kind)
						}
						mu.Lock()
						if ex.QueryID != 0 {
							sawQueryIDs = true
							if ex.PipelineUtil.StagesUsed == 0 {
								t.Errorf("query %d (%s): served execution reports empty pipeline utilization", i, q.Kind)
							}
						}
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			if !sawQueryIDs {
				t.Fatal("no query executed through the shared pipeline")
			}
			assertFabricDrained(t, db.Fabric())
		})
	}
}

// TestServeOversizedFallsBackDirect pins the oversized-query bypass: on
// a switch no pruning program fits, Submit must run the exact direct
// path immediately instead of queueing forever.
func TestServeOversizedFallsBackDirect(t *testing.T) {
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 1500, RankRows: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tiny := switchsim.Model{
		Name:             "toosmall",
		Stages:           4,
		ALUsPerStage:     1,
		SRAMPerStageBits: 1 << 10,
		TCAMEntries:      1,
		MetadataBits:     64,
		Recirculation:    1,
	}
	db, err := Open(mix.Visits, Options{Workers: 2, Seed: 3, Model: tiny})
	if err != nil {
		t.Fatal(err)
	}
	q := mix.Query(1) // DISTINCT
	ex, err := db.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Plan.Mode != ModeDirect {
		t.Fatalf("mode = %v, want direct fallback", ex.Plan.Mode)
	}
	direct, err := engine.ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(ex.Result) {
		t.Fatal("fallback result diverges from ExecDirect")
	}
}

// TestServeRewritesClusterPlans pins the Submit contract for UseCluster
// sessions: serving has no multiplexed cluster transport, so the plan
// that a served query reports must be the in-process mode that actually
// ran (with the rewrite recorded in the reason), never a phantom
// ModeCluster with a nil ClusterReport.
func TestServeRewritesClusterPlans(t *testing.T) {
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 1500, RankRows: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(mix.Visits, Options{Workers: 2, Seed: 3, UseCluster: true})
	if err != nil {
		t.Fatal(err)
	}
	q := mix.Query(1) // DISTINCT: single-pass, so Plan() picks ModeCluster
	if p, err := db.Plan(q); err != nil || p.Mode != ModeCluster {
		t.Fatalf("precondition: Plan mode = %v, err = %v, want cluster", p.Mode, err)
	}
	ex, err := db.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Plan.Mode != ModeCheetah {
		t.Fatalf("served mode = %v, want cheetah rewrite", ex.Plan.Mode)
	}
	if ex.ClusterReport != nil {
		t.Fatal("in-process served execution carries a cluster report")
	}
	direct, err := engine.ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(ex.Result) {
		t.Fatal("rewritten cluster plan diverges from ExecDirect")
	}
}

// TestServeClosedFallsBackDirect pins the post-Close semantics: queries
// submitted after Close still complete, as exact direct executions.
func TestServeClosedFallsBackDirect(t *testing.T) {
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 1500, RankRows: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(mix.Visits, Options{Workers: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	q := mix.Query(2)
	ex, err := db.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Plan.Mode != ModeDirect {
		t.Fatalf("mode after close = %v (%s), want direct", ex.Plan.Mode, ex.Plan.Reason)
	}
}

// TestSubmitCancelledContextRefused: a context cancelled before Submit is
// refused at admission, as the direct path refuses it, whatever the
// plan's mode: every kind's pruned plan returns context.Canceled and
// takes no lease.
func TestSubmitCancelledContextRefused(t *testing.T) {
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 2000, RankRows: 1500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(mix.Visits, Options{Workers: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < multitenant.NumKinds; i++ {
		q := mix.Query(i)
		p, err := db.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if p.Mode != ModeCheetah {
			t.Fatalf("%s: plan mode = %v (%s), want a pruned plan", q.Kind, p.Mode, p.Reason)
		}
		if _, err := db.Submit(ctx, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Submit with a cancelled context: err = %v, want context.Canceled", q.Kind, err)
		}
	}
	if got := db.Fabric().Total(); got.Active != 0 || got.Admitted != 0 {
		t.Fatalf("fabric after cancelled submits: %+v, want nothing admitted", got)
	}
}
