package plan

// Tests for the multi-switch session paths: Exec's scatter/gather
// across Options.Switches pipelines, and SubmitQoS's placement of whole
// queries on the least-loaded switch.

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"cheetah/internal/engine"
	"cheetah/internal/prune"
	"cheetah/internal/workload"
)

// fabricCases builds one query per kind over shared test tables.
func fabricCases(t *testing.T, db, dbOrd, dbRk *Session, lineitem *Builder) []struct {
	label string
	s     *Session
	b     *Builder
} {
	t.Helper()
	return []struct {
		label string
		s     *Session
		b     *Builder
	}{
		{"filter", db, db.Select().Where("adRevenue", prune.OpGT, 300_000).Where("duration", prune.OpLE, 150)},
		{"distinct", db, db.Select().Distinct("userAgent")},
		{"topn", db, db.Select().TopN("adRevenue", 100)},
		{"groupby-max", db, db.Select().GroupByMax("userAgent", "adRevenue")},
		{"groupby-sum", db, db.Select().GroupBySum("languageCode", "adRevenue")},
		{"having", db, db.Select().GroupBySum("languageCode", "adRevenue").Having(500_000)},
		{"join", dbOrd, lineitem},
		{"skyline", dbRk, dbRk.Select().Skyline("pageRank", "avgDuration")},
	}
}

// TestExecShardedEquivalence: a multi-switch session's Exec must return
// exactly ExecDirect's result for every kind, with per-switch reports.
func TestExecShardedEquivalence(t *testing.T) {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(3000, 1))
	if err != nil {
		t.Fatal(err)
	}
	rk := workload.Rankings(2000, 2)
	orders, lineitem, err := workload.TPCHQ3(600, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, switches := range []int{2, 4} {
		opts := Options{Workers: 2, Seed: 11, Switches: switches}
		db, err := Open(uv, opts)
		if err != nil {
			t.Fatal(err)
		}
		dbOrd, err := Open(orders, opts)
		if err != nil {
			t.Fatal(err)
		}
		dbRk, err := Open(rk, opts)
		if err != nil {
			t.Fatal(err)
		}
		join := dbOrd.Select().Join(lineitem, "o_orderkey", "l_orderkey")
		for _, c := range fabricCases(t, db, dbOrd, dbRk, join) {
			q, err := c.b.Build()
			if err != nil {
				t.Fatalf("%s: build: %v", c.label, err)
			}
			want, err := engine.ExecDirect(q)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := c.s.Exec(context.Background(), q)
			if err != nil {
				t.Fatalf("%s switches=%d: %v", c.label, switches, err)
			}
			if ex.Plan.Mode != ModeCheetah {
				t.Fatalf("%s switches=%d: planned %v, want cheetah (%s)", c.label, switches, ex.Plan.Mode, ex.Plan.Reason)
			}
			if !want.Equal(ex.Result) {
				t.Fatalf("%s switches=%d: result diverges from direct", c.label, switches)
			}
			if len(ex.PerSwitch) != switches {
				t.Fatalf("%s: %d per-switch reports, want %d", c.label, len(ex.PerSwitch), switches)
			}
			sent := 0
			for _, sw := range ex.PerSwitch {
				sent += sw.Traffic.EntriesSent
				if sw.Util.StagesTotal == 0 {
					t.Fatalf("%s: empty per-switch utilization", c.label)
				}
			}
			if sent != ex.Traffic.EntriesSent {
				t.Fatalf("%s: per-switch traffic sums to %d, aggregate says %d", c.label, sent, ex.Traffic.EntriesSent)
			}
			if !strings.Contains(ex.Plan.Reason, "switches") {
				t.Fatalf("%s: plan reason does not mention the fabric: %q", c.label, ex.Plan.Reason)
			}
			if !strings.Contains(ex.Explain(), "switch 0:") {
				t.Fatalf("%s: Explain misses per-switch lines:\n%s", c.label, ex.Explain())
			}
		}
	}
}

// TestExecShardedJoinConcurrent: concurrent JOINs on one multi-switch
// session share the inputs' memoised key co-partition (table.ShardKeys)
// read-only — the first ones race to build it, the rest hit it — and every
// one of them returns ExecDirect's result. Run under -race.
func TestExecShardedJoinConcurrent(t *testing.T) {
	orders, lineitem, err := workload.TPCHQ3(600, 3)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(orders, Options{Workers: 2, Seed: 11, Switches: 2})
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.Select().Join(lineitem, "o_orderkey", "l_orderkey").Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				ex, err := db.Exec(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				if len(ex.PerSwitch) != 2 || !want.Equal(ex.Result) {
					t.Errorf("concurrent sharded join diverges from direct (%d switches)", len(ex.PerSwitch))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestExecShardedCluster routes a single-pass kind over the simulated
// network on every switch of the fabric.
func TestExecShardedCluster(t *testing.T) {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(uv, Options{
		Workers: 2, Seed: 9, Switches: 3,
		UseCluster: true, LossRate: 0.05, RTO: 8 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.Select().Distinct("userAgent").Build()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := engine.ExecDirect(q)
	ex, err := db.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Plan.Mode != ModeCluster {
		t.Fatalf("planned %v, want cluster", ex.Plan.Mode)
	}
	if !want.Equal(ex.Result) {
		t.Fatal("sharded cluster execution diverges from direct")
	}
	if len(ex.PerSwitch) != 3 {
		t.Fatalf("%d per-switch reports, want 3", len(ex.PerSwitch))
	}
	if ex.ClusterReport == nil || ex.ClusterReport.EntriesSent != uv.NumRows() {
		t.Fatalf("merged cluster report: %+v", ex.ClusterReport)
	}
}

// TestServeFabricPlacement: with a multi-switch session, concurrent
// Submits spread across switches, results stay exact, and the aggregate
// counters see every admission.
func TestServeFabricPlacement(t *testing.T) {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(2000, 7))
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(uv, Options{Workers: 1, Seed: 3, Switches: 4})
	if err != nil {
		t.Fatal(err)
	}
	if db.Fabric().Size() != 4 {
		t.Fatalf("fabric width %d, want 4", db.Fabric().Size())
	}

	builders := []*Builder{
		db.Select().Distinct("userAgent"),
		db.Select().TopN("adRevenue", 50),
		db.Select().GroupByMax("countryCode", "adRevenue"),
		db.Select().Where("duration", prune.OpGT, 100),
	}
	const rounds = 4
	var mu sync.Mutex
	seenSwitch := map[int]int{}
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for _, b := range builders {
			q, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(q *engine.Query) {
				defer wg.Done()
				want, err := engine.ExecDirect(q)
				if err != nil {
					t.Error(err)
					return
				}
				ex, err := db.Submit(context.Background(), q)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if !want.Equal(ex.Result) {
					t.Errorf("served result diverges for %v", q.Kind)
					return
				}
				if ex.QueryID == 0 {
					t.Errorf("served execution has no QueryID")
					return
				}
				if ex.Plan.Switches != 1 {
					t.Errorf("served plan sized for %d switches, want 1", ex.Plan.Switches)
				}
				mu.Lock()
				seenSwitch[ex.Switch]++
				mu.Unlock()
			}(q)
		}
	}
	wg.Wait()
	// Placement must stay within the fabric. (Whether load spreads here
	// depends on query overlap — the least-loaded policy itself is
	// pinned deterministically in the fabric package's tests.)
	for sw := range seenSwitch {
		if sw < 0 || sw >= 4 {
			t.Fatalf("placement outside the fabric: %v", seenSwitch)
		}
	}
	st := db.Fabric().Total()
	if st.Admitted != uint64(rounds*len(builders)) {
		t.Fatalf("aggregate Admitted = %d, want %d", st.Admitted, rounds*len(builders))
	}
	if st.Active != 0 || st.Queued != 0 {
		t.Fatalf("leftover load: %+v", st)
	}
	per := db.Fabric().Stats()
	if len(per) != 4 {
		t.Fatalf("%d per-switch counters, want 4", len(per))
	}
	var sum uint64
	for _, c := range per {
		sum += c.Admitted
	}
	if sum != st.Admitted {
		t.Fatalf("per-switch counters sum to %d, aggregate says %d", sum, st.Admitted)
	}
	if got := len(db.Fabric().Utilization()); got != 4 {
		t.Fatalf("%d per-switch utilizations, want 4", got)
	}
	assertFabricDrained(t, db.Fabric())
}
