package plan

// The chaos suite is the fault-tolerance acceptance test: switches are
// killed (control-plane Fail, and fault injectors that die mid-query),
// restored, and added while all eight query kinds run through each
// execution mode — one-shot sharded, served, and streaming — and every
// result must stay bit-identical to ExecDirect (§7.2: the servers are
// the exactness backstop; a dead switch only costs pruning). Afterwards
// the fabric must be clean: no active leases, no queued waiters, no
// flow program left installed.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cheetah/internal/engine"
	"cheetah/internal/fabric"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
	"cheetah/internal/workload/multitenant"
)

// chaosMix builds the small all-kinds workload the chaos tests share.
func chaosMix(t *testing.T, seed uint64) *multitenant.Mix {
	t.Helper()
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 1600, RankRows: 700, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return mix
}

// chaosWant is the ground truth: ExecDirect of the mix's kind-th query
// over the first rows committed rows.
func chaosWant(t *testing.T, mix *multitenant.Mix, kind, rows int) *engine.Result {
	t.Helper()
	q := *mix.Query(kind)
	if rows < mix.Visits.NumRows() {
		v, err := mix.Visits.View(0, rows)
		if err != nil {
			t.Fatal(err)
		}
		q.Table = v
	}
	want, err := engine.ExecDirect(&q)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// assertFabricDrained checks the no-leak invariant after a chaos run:
// every switch restored, zero active leases, zero queued waiters, and
// no flow program still occupying pipeline resources.
func assertFabricDrained(t *testing.T, fab *fabric.Fabric) {
	t.Helper()
	for i := 0; i < fab.Size(); i++ {
		if fab.Failed(i) {
			if err := fab.Restore(i); err != nil {
				t.Fatalf("restore switch %d: %v", i, err)
			}
		}
	}
	for i, c := range fab.Stats() {
		if c.Active != 0 || c.Queued != 0 {
			t.Fatalf("switch %d leaked leases after chaos: %+v", i, c)
		}
	}
	for i, u := range fab.Utilization() {
		if u.ALUsUsed != 0 || u.TCAMUsed != 0 {
			t.Fatalf("switch %d leaked flow programs after chaos: %+v", i, u)
		}
	}
}

// TestChaosServed kills switches under served queries, for every kind:
// a fault injector takes the placed switch down in the middle of the
// query's stream (the result must be discarded and failed over, not
// patched), then the whole fabric dies (the §7.2 direct backstop), then
// a hot-added switch takes over; then a mid-query death with no survivor
// (the master-side backstop) and one whose re-admission misses the
// query's deadline (an error, not a degradation). Every answer is exact
// throughout.
func TestChaosServed(t *testing.T) {
	mix := chaosMix(t, 1)
	for kind := 0; kind < multitenant.NumKinds; kind++ {
		q := mix.Query(kind)
		t.Run(fmt.Sprintf("%v", q.Kind), func(t *testing.T) {
			db, err := Open(mix.Visits, Options{Workers: 2, Seed: 1, Switches: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			fab := db.Fabric()
			want := chaosWant(t, mix, kind, mix.Visits.NumRows())

			// One switch dies mid-query: whichever pipeline sees the
			// query's first batch kills itself. The submit must fail over
			// to the survivor and still be exact.
			var killed atomic.Bool
			for i := 0; i < fab.Size(); i++ {
				fab.Pipeline(i).SetFaultInjector(func(uint32, int) bool {
					return killed.CompareAndSwap(false, true)
				})
			}
			ex, err := db.Submit(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Plan.Mode != ModeCheetah {
				t.Fatalf("plan mode = %v (%s), want cheetah", ex.Plan.Mode, ex.Plan.Reason)
			}
			if !want.Equal(ex.Result) {
				t.Fatalf("mid-query death result diverged\n got: %v\nwant: %v", ex.Result, want)
			}
			if ex.FailedOver < 1 {
				t.Fatalf("FailedOver = %d, want >= 1 (injector killed the placed switch)", ex.FailedOver)
			}
			if got := db.Fabric().Total().FailedOver; got < 1 {
				t.Fatalf("fabric FailedOver counter = %d, want >= 1", got)
			}

			// Restore the victim; a clean submit must not fail over.
			for i := 0; i < fab.Size(); i++ {
				if fab.Failed(i) {
					if err := fab.Restore(i); err != nil {
						t.Fatal(err)
					}
				}
			}
			ex, err = db.Submit(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if ex.FailedOver != 0 || !want.Equal(ex.Result) {
				t.Fatalf("post-restore submit: FailedOver=%d, exact=%v", ex.FailedOver, want.Equal(ex.Result))
			}

			// The whole fabric dies: the submit degrades to exact direct
			// execution — the §7.2 backstop — rather than failing.
			for i := 0; i < fab.Size(); i++ {
				fab.Fail(i)
			}
			ex, err = db.Submit(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Plan.Mode != ModeDirect {
				t.Fatalf("dead-fabric submit mode = %v, want direct", ex.Plan.Mode)
			}
			if !want.Equal(ex.Result) {
				t.Fatalf("dead-fabric result diverged\n got: %v\nwant: %v", ex.Result, want)
			}

			// A hot-added switch brings pruning back while the original
			// switches stay dead.
			idx, err := fab.Add()
			if err != nil {
				t.Fatal(err)
			}
			ex, err = db.Submit(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Plan.Mode != ModeCheetah || ex.Switch != idx {
				t.Fatalf("post-add submit: mode=%v switch=%d, want cheetah on %d", ex.Plan.Mode, ex.Switch, idx)
			}
			if !want.Equal(ex.Result) {
				t.Fatalf("post-add result diverged\n got: %v\nwant: %v", ex.Result, want)
			}
			assertFabricDrained(t, fab)

			// No survivor mid-query: the only switch of a one-switch fabric
			// dies at the query's first batch and re-admission finds the
			// fabric dead, so the engine's master-side backstop finishes the
			// query — still the pruned plan, still exact.
			db1, err := Open(mix.Visits, Options{Workers: 2, Seed: 1, Switches: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer db1.Close()
			db1.Fabric().Pipeline(0).SetFaultInjector(func(uint32, int) bool { return true })
			ex, err = db1.Submit(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Plan.Mode != ModeCheetah || !strings.Contains(ex.Plan.Reason, "backstop") {
				t.Fatalf("no-survivor submit: mode=%v reason=%q, want cheetah finished on the backstop", ex.Plan.Mode, ex.Plan.Reason)
			}
			if !want.Equal(ex.Result) {
				t.Fatalf("no-survivor result diverged\n got: %v\nwant: %v", ex.Result, want)
			}
			if ex.FailedOver < 1 || db1.Fabric().Total().FailedOver < 1 {
				t.Fatalf("no-survivor submit: FailedOver=%d, fabric counter=%d, want both >= 1", ex.FailedOver, db1.Fabric().Total().FailedOver)
			}
			assertFabricDrained(t, db1.Fabric())

			// A deadline on re-admission is still an error: the placed
			// switch dies mid-query, the survivor is quota-blocked for the
			// query's tenant, and the deadline expires in its queue — the
			// Submit fails with ErrDeadline instead of degrading, and
			// nothing leaks.
			db2, err := Open(mix.Visits, Options{Workers: 2, Seed: 1, Switches: 2, TenantQuota: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			fab2 := db2.Fabric()
			blocker, err := prune.NewDistinct(prune.DefaultDistinctConfig(1))
			if err != nil {
				t.Fatal(err)
			}
			// Least-loaded placement pins the lease to switch 1: a standing
			// filler takes switch 0 first and leaves once the lease is held.
			filler, err := prune.NewDistinct(prune.DefaultDistinctConfig(1))
			if err != nil {
				t.Fatal(err)
			}
			fill, err := fab2.Admit(context.Background(), fabric.Request{Prog: filler, Standing: true})
			if err != nil {
				t.Fatal(err)
			}
			leases, err := fab2.Admit(context.Background(), fabric.Request{Prog: blocker, QoS: fabric.QoS{Tenant: "t"}, Wait: true})
			if err != nil {
				t.Fatal(err)
			}
			fill[0].Release()
			held := leases[0]
			if fill[0].Switch != 0 || held.Switch != 1 {
				t.Fatalf("filler on switch %d, held lease on switch %d, want 0 and 1", fill[0].Switch, held.Switch)
			}
			fab2.Pipeline(0).SetFaultInjector(func(uint32, int) bool { return true })
			_, err = db2.SubmitQoS(context.Background(), q, fabric.QoS{Tenant: "t", Deadline: time.Now().Add(30 * time.Millisecond)})
			if !errors.Is(err, fabric.ErrDeadline) {
				t.Fatalf("deadline on re-admission: err = %v, want fabric.ErrDeadline", err)
			}
			if got := fab2.Total().FailedOver; got < 1 {
				t.Fatalf("deadline on re-admission: fabric FailedOver counter = %d, want >= 1", got)
			}
			held.Release()
			assertFabricDrained(t, fab2)
		})
	}
}

// TestChaosServedUnderLoad is the served chaos soak: sixteen clients
// submit the mix under its tenants' QoS to a four-switch fabric while,
// every killEvery submissions, the previous victim is restored and the
// next switch round-robin is killed — one switch is down at any moment,
// and each takes its turn dying with queries in flight. Every result
// must equal ExecDirect of the same index, some query must have been
// redone on a replacement switch, and the fabric must drain clean.
func TestChaosServedUnderLoad(t *testing.T) {
	const clients, total, killEvery = 16, 16 * multitenant.NumKinds, 8
	mix := chaosMix(t, 5)
	db, err := Open(mix.Visits, Options{Workers: 1, Seed: 5, Switches: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fab := db.Fabric()

	// A victim dies at the next batch that crosses it, so its death always
	// lands in the middle of some query's stream; one whose injector never
	// fired is disarmed before the restore.
	var mu sync.Mutex
	submitted, victim := 0, -1
	tick := func() {
		mu.Lock()
		defer mu.Unlock()
		if submitted++; submitted%killEvery != 0 {
			return
		}
		if victim >= 0 {
			fab.Pipeline(victim).SetFaultInjector(nil)
			if err := fab.Restore(victim); err != nil {
				t.Error(err)
			}
		}
		victim = (victim + 1) % fab.Size()
		var died atomic.Bool
		fab.Pipeline(victim).SetFaultInjector(func(uint32, int) bool {
			return died.CompareAndSwap(false, true)
		})
	}

	jobs := make(chan int, total)
	for i := 0; i < total; i++ {
		jobs <- i
	}
	close(jobs)
	var failedOver atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				q := mix.Query(i)
				tick()
				ex, err := db.SubmitQoS(context.Background(), q, fabric.QoS{Tenant: mix.Tenant(i), Priority: mix.Priority(i)})
				if err != nil {
					t.Errorf("query %d (%v): %v", i, q.Kind, err)
					continue
				}
				want, err := engine.ExecDirect(q)
				if err != nil {
					t.Errorf("query %d (%v): direct: %v", i, q.Kind, err)
					continue
				}
				if !want.Equal(ex.Result) {
					t.Errorf("query %d (%v): result under chaos diverges from ExecDirect", i, q.Kind)
				}
				failedOver.Add(int64(ex.FailedOver))
			}
		}()
	}
	wg.Wait()
	if failedOver.Load() < 1 {
		t.Fatalf("no query failed over in %d kills under %d clients", total/killEvery, clients)
	}
	assertFabricDrained(t, fab)
}

// TestChaosStreamingPlaced drives single-switch subscriptions of every
// kind through the full failure lifecycle: the placed switch dies with
// no survivor (deltas finish on the exact master-side backstop, one at a
// time), a hot-added switch picks up a fresh cold program, a second
// death re-places it onto the restored original, and a death in the
// middle of a delta with no survivor is ridden out until the switch is
// restored. The standing result equals a from-scratch run
// at every step.
func TestChaosStreamingPlaced(t *testing.T) {
	mix := chaosMix(t, 2)
	for kind := 0; kind < multitenant.NumKinds; kind++ {
		base := mix.Query(kind)
		t.Run(fmt.Sprintf("%v", base.Kind), func(t *testing.T) {
			ctx := streamCtx(t)
			target, err := table.New(mix.Visits.Schema())
			if err != nil {
				t.Fatal(err)
			}
			db, err := Open(target, Options{Workers: 2, Seed: 2, Switches: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			st, err := db.Stream(ctx, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			fab := db.Fabric()
			q := *base
			q.Table = target
			sub, err := st.Subscribe(ctx, &q)
			if err != nil {
				t.Fatal(err)
			}
			if sub.Plan().Mode != ModeCheetah {
				t.Fatalf("plan mode = %v (%s), want cheetah", sub.Plan().Mode, sub.Plan().Reason)
			}
			if sub.Switch() != 0 {
				t.Fatalf("initial placement on switch %d, want 0", sub.Switch())
			}
			total := mix.Visits.NumRows()
			marks := []int{total / 4, total / 2, total - 600, total - 400, total - 200, total}
			appendTo := func(lo, hi int) {
				t.Helper()
				v, err := mix.Visits.View(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				appendInChunks(t, st, v, 113)
				if err := sub.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				if want := chaosWant(t, mix, kind, hi); !want.Equal(firstResult(sub)) {
					t.Fatalf("standing result diverged at %d rows\n got: %v\nwant: %v", hi, firstResult(sub), want)
				}
			}
			// Healthy warm-up.
			appendTo(0, marks[0])
			// The only switch dies: no survivor, so deltas run exact and
			// unpruned until capacity returns.
			fab.Fail(0)
			appendTo(marks[0], marks[1])
			if sub.Replaced() != 0 {
				t.Fatalf("Replaced = %d with no survivor, want 0", sub.Replaced())
			}
			// A hot-added switch hosts the replacement program.
			idx, err := fab.Add()
			if err != nil {
				t.Fatal(err)
			}
			appendTo(marks[1], marks[2])
			if sub.Replaced() != 1 || sub.Switch() != idx {
				t.Fatalf("after add: Replaced=%d Switch=%d, want 1 on %d", sub.Replaced(), sub.Switch(), idx)
			}
			// The replacement's switch dies too; the restored original
			// takes the program back.
			if err := fab.Restore(0); err != nil {
				t.Fatal(err)
			}
			fab.Fail(idx)
			appendTo(marks[2], marks[3])
			if sub.Replaced() != 2 || sub.Switch() != 0 {
				t.Fatalf("after second death: Replaced=%d Switch=%d, want 2 on 0", sub.Replaced(), sub.Switch())
			}
			// The last live switch dies in the middle of a delta: with no
			// survivor that delta (and every one until capacity returns)
			// finishes on the engine's master-side backstop, exact.
			fab.Pipeline(0).SetFaultInjector(func(uint32, int) bool { return true })
			appendTo(marks[3], marks[4])
			if sub.Replaced() != 2 {
				t.Fatalf("Replaced = %d after a mid-delta death with no survivor, want 2", sub.Replaced())
			}
			// Once a switch is restored the next delta re-places the program.
			if err := fab.Restore(0); err != nil {
				t.Fatal(err)
			}
			appendTo(marks[4], marks[5])
			if sub.Replaced() != 3 || sub.Switch() != 0 {
				t.Fatalf("after restore: Replaced=%d Switch=%d, want 3 on 0", sub.Replaced(), sub.Switch())
			}
			if got := fab.Metrics().Total("replaced"); got < 3 {
				t.Fatalf("replaced metric = %d, want >= 3", got)
			}
			sub.Close()
			assertFabricDrained(t, fab)
		})
	}
}

// TestChaosStreamingSharded drives scatter/gather subscriptions of
// every kind while shards die and move: the engine's Failover hook
// re-places dead shards on survivors (and on a hot-added switch)
// between and during deltas, with the standing result exact at every
// mark.
func TestChaosStreamingSharded(t *testing.T) {
	mix := chaosMix(t, 3)
	for kind := 0; kind < multitenant.NumKinds; kind++ {
		base := mix.Query(kind)
		t.Run(fmt.Sprintf("%v", base.Kind), func(t *testing.T) {
			ctx := streamCtx(t)
			target, err := table.New(mix.Visits.Schema())
			if err != nil {
				t.Fatal(err)
			}
			db, err := Open(target, Options{Workers: 2, Seed: 3, Switches: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			st, err := db.Stream(ctx, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			fab := db.Fabric()
			q := *base
			q.Table = target
			sub, err := st.Subscribe(ctx, &q)
			if err != nil {
				t.Fatal(err)
			}
			if sub.Plan().Mode != ModeCheetah {
				t.Fatalf("plan mode = %v (%s), want cheetah", sub.Plan().Mode, sub.Plan().Reason)
			}
			total := mix.Visits.NumRows()
			appendTo := func(lo, hi int) {
				t.Helper()
				v, err := mix.Visits.View(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				appendInChunks(t, st, v, 113)
				if err := sub.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				if want := chaosWant(t, mix, kind, hi); !want.Equal(firstResult(sub)) {
					t.Fatalf("standing result diverged at %d rows\n got: %v\nwant: %v", hi, firstResult(sub), want)
				}
			}
			appendTo(0, total/3)
			// One shard's switch dies between deltas: its standing
			// program re-places onto a survivor.
			fab.Fail(0)
			appendTo(total/3, 2*total/3)
			if sub.Replaced() < 1 {
				t.Fatalf("Replaced = %d after shard death, want >= 1", sub.Replaced())
			}
			// Churn: restore the victim, kill another switch, and add a
			// fourth — the fabric reshapes under the standing query.
			if err := fab.Restore(0); err != nil {
				t.Fatal(err)
			}
			if _, err := fab.Add(); err != nil {
				t.Fatal(err)
			}
			fab.Fail(1)
			appendTo(2*total/3, total)
			if sub.Replaced() < 2 {
				t.Fatalf("Replaced = %d after second death, want >= 2", sub.Replaced())
			}
			sub.Close()
			assertFabricDrained(t, fab)
		})
	}
}

// TestChaosOneShotSharded runs every kind through one scatter/gather
// execution whose shard programs live on fabric leases, with a fault
// injector killing one switch in the middle of the shard's stream: the
// engine's failover (with exponential backoff) must redo the shard on a
// fresh placement and the merged result must equal ExecDirect.
func TestChaosOneShotSharded(t *testing.T) {
	mix := chaosMix(t, 4)
	for kind := 0; kind < multitenant.NumKinds; kind++ {
		q := mix.Query(kind)
		t.Run(fmt.Sprintf("%v", q.Kind), func(t *testing.T) {
			db, err := Open(mix.Visits, Options{Workers: 2, Seed: 4, Switches: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			p, err := db.planFor(q, 3)
			if err != nil {
				t.Fatal(err)
			}
			if p.Mode != ModeCheetah {
				t.Fatalf("plan mode = %v (%s), want cheetah", p.Mode, p.Reason)
			}
			fab, err := fabric.New(fabric.Options{Switches: 3, Model: p.Model})
			if err != nil {
				t.Fatal(err)
			}
			defer fab.Close()
			pruners, err := p.NewShardPruners()
			if err != nil {
				t.Fatal(err)
			}
			progs := make([]switchsim.Program, len(pruners))
			for i, pr := range pruners {
				progs[i] = pr
			}
			placements, err := fab.Admit(context.Background(), fabric.Request{Shards: progs, Wait: true, Standing: true})
			if err != nil {
				t.Fatal(err)
			}
			flows := make([]engine.BatchDataplane, len(placements))
			for i, pl := range placements {
				flows[i] = pl
			}
			// Switch 0 dies at the first batch that reaches it.
			var killed atomic.Bool
			fab.Pipeline(0).SetFaultInjector(func(uint32, int) bool {
				return killed.CompareAndSwap(false, true)
			})
			var mu sync.Mutex
			failover := func(shard, attempt int) (prune.Pruner, engine.BatchDataplane, error) {
				npr, err := p.NewPruner()
				if err != nil {
					return nil, nil, err
				}
				leases, err := fab.Admit(context.Background(), fabric.Request{Prog: npr, Standing: true})
				if err != nil {
					return nil, nil, err
				}
				npl := leases[0]
				mu.Lock()
				old := placements[shard]
				placements[shard] = npl
				mu.Unlock()
				old.Release()
				return npr, npl, nil
			}
			run, err := engine.ExecSharded(q, engine.ShardedOptions{
				Shards: 3, Workers: p.Workers, Seed: p.Seed,
				Pruners: pruners, Flows: flows, Failover: failover,
			})
			if err != nil {
				t.Fatal(err)
			}
			if run.FailedOver < 1 {
				t.Fatalf("FailedOver = %d, want >= 1 (injector killed switch 0)", run.FailedOver)
			}
			want, err := engine.ExecDirect(q)
			if err != nil {
				t.Fatal(err)
			}
			if !want.Equal(run.Result) {
				t.Fatalf("sharded chaos result diverged\n got: %v\nwant: %v", run.Result, want)
			}
			mu.Lock()
			for _, pl := range placements {
				pl.Release()
			}
			mu.Unlock()
			assertFabricDrained(t, fab)
		})
	}
}

// firstResult unwraps Results()'s (result, version) pair.
func firstResult(sub *Subscription) *engine.Result {
	r, _ := sub.Results()
	return r
}
