package plan

// The session's one fabric carries served queries and standing programs
// side by side. These tests pin the two contracts that sharing adds: a
// standing program counts toward no tenant's quota, and one switch's
// death is one event for everything placed on it.

import (
	"errors"
	"strings"
	"testing"

	"cheetah/internal/engine"
	"cheetah/internal/fabric"
	"cheetah/internal/prune"
	"cheetah/internal/table"
)

// TestStandingProgramsOutsideQuota: with a quota of one lease per tenant,
// a session holding two subscriptions on its one switch still admits a
// one-shot query from the default tenant and one from tenant "a", neither
// of them waiting; the quota still bounds one-shot leases.
func TestStandingProgramsOutsideQuota(t *testing.T) {
	mix := chaosMix(t, 4)
	ctx := streamCtx(t)
	target, err := table.New(mix.Visits.Schema())
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(target, Options{Workers: 2, Seed: 4, TenantQuota: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := db.Stream(ctx, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []int{1, 3} { // DISTINCT, GROUP BY MAX
		q := *mix.Query(kind)
		q.Table = target
		sub, err := st.Subscribe(ctx, &q)
		if err != nil {
			t.Fatal(err)
		}
		if sub.Plan().Mode != ModeCheetah {
			t.Fatalf("%v subscription mode = %v (%s), want cheetah", q.Kind, sub.Plan().Mode, sub.Plan().Reason)
		}
	}
	fab := db.Fabric()
	if got := fab.Total().Active; got != 2 {
		t.Fatalf("active leases = %d with two subscriptions, want 2", got)
	}
	waited := fab.Total().Waited
	q := mix.Query(1)
	want, err := engine.ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"", "a"} {
		ex, err := db.SubmitQoS(ctx, q, fabric.QoS{Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		if ex.Plan.Mode != ModeCheetah || ex.QueryID == 0 {
			t.Fatalf("tenant %q: mode=%v queryid=%d (%s), want an admitted pruned query", tenant, ex.Plan.Mode, ex.QueryID, ex.Plan.Reason)
		}
		if !want.Equal(ex.Result) {
			t.Fatalf("tenant %q: result diverged from ExecDirect", tenant)
		}
		if got := fab.Total().Waited; got != waited {
			t.Fatalf("tenant %q: Waited went %d → %d, want no wait behind standing programs", tenant, waited, got)
		}
	}
	// One-shot leases still count: a second lease of tenant "a" is refused.
	prog := func() prune.Pruner {
		pr, err := prune.NewDistinct(prune.DefaultDistinctConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	held, err := fab.Admit(ctx, fabric.Request{Prog: prog(), QoS: fabric.QoS{Tenant: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	defer held[0].Release()
	if _, err := fab.Admit(ctx, fabric.Request{Prog: prog(), QoS: fabric.QoS{Tenant: "a"}}); !errors.Is(err, fabric.ErrBusy) {
		t.Fatalf("second one-shot lease of a tenant at quota: err = %v, want fabric.ErrBusy", err)
	}
}

// TestSharedFabricSwitchDeath: on a two-switch session holding one
// subscription, switch 0's death reaches the served query and the
// standing program alike. Failed through the fabric, the next served
// query routes around it; killed under a served query, the query fails
// over. Either way the subscription re-places on its next delta, and
// every result equals ExecDirect.
func TestSharedFabricSwitchDeath(t *testing.T) {
	mix := chaosMix(t, 5)
	for _, midQuery := range []bool{false, true} {
		name := "fail-then-submit"
		if midQuery {
			name = "death-mid-query"
		}
		t.Run(name, func(t *testing.T) {
			ctx := streamCtx(t)
			target, err := table.New(mix.Visits.Schema())
			if err != nil {
				t.Fatal(err)
			}
			db, err := Open(target, Options{Workers: 2, Seed: 5, Switches: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			st, err := db.Stream(ctx, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			const kind = 1 // DISTINCT
			sq := *mix.Query(kind)
			sq.Table = target
			sub, err := st.Subscribe(ctx, &sq)
			if err != nil {
				t.Fatal(err)
			}
			fab := db.Fabric()
			for i, c := range fab.Stats() {
				if c.Active != 1 {
					t.Fatalf("switch %d holds %d leases, want the subscription's one", i, c.Active)
				}
			}
			half := mix.Visits.NumRows() / 2
			appendTo := func(lo, hi int) {
				t.Helper()
				v, err := mix.Visits.View(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				appendInChunks(t, st, v, 211)
				if err := sub.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				if want := chaosWant(t, mix, kind, hi); !want.Equal(firstResult(sub)) {
					t.Fatalf("standing result diverged at %d rows", hi)
				}
			}
			appendTo(0, half)

			if midQuery {
				fab.Pipeline(0).SetFaultInjector(func(uint32, int) bool { return true })
			} else {
				fab.Fail(0)
			}
			q := mix.Query(2) // TOP N
			ex, err := db.Submit(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if want := chaosWant(t, mix, 2, mix.Visits.NumRows()); !want.Equal(ex.Result) {
				t.Fatal("served result diverged from ExecDirect")
			}
			if ex.Plan.Mode != ModeCheetah || ex.Switch != 1 {
				t.Fatalf("served query: mode=%v switch=%d, want cheetah on the survivor 1", ex.Plan.Mode, ex.Switch)
			}
			if midQuery && ex.FailedOver < 1 {
				t.Fatalf("FailedOver = %d, want >= 1 (switch 0 died under the query)", ex.FailedOver)
			}
			if !fab.Failed(0) {
				t.Fatal("switch 0 is not failed")
			}
			appendTo(half, mix.Visits.NumRows())
			if sub.Replaced() < 1 {
				t.Fatalf("Replaced = %d after its switch died, want >= 1", sub.Replaced())
			}
			// The dead switch's counters and metric series record the
			// retired leases: the standing program's re-placement on both
			// arms, the served query's failover on the mid-query one.
			total := fab.Total()
			if total.Replaced < 1 {
				t.Fatalf("fabric Replaced = %d, want >= 1", total.Replaced)
			}
			if midQuery && total.FailedOver < 1 {
				t.Fatalf("fabric FailedOver = %d, want >= 1", total.FailedOver)
			}
			var replaced0 uint64
			for key, v := range fab.Metrics().SnapshotMap() {
				if strings.HasPrefix(key, "replaced{switch=0,") {
					replaced0 += v
				}
			}
			if replaced0 < 1 {
				t.Fatalf(`replaced{switch="0"} = %d, want >= 1: %v`, replaced0, fab.Metrics().SnapshotMap())
			}
			sub.Close()
			assertFabricDrained(t, fab)
		})
	}
}
