package netserve

// Observability over the wire: the Result frame's compact trace
// summary and wall clock, the server's shared metrics registry
// (per-kind latency histograms, slow-query counter + log hook,
// admission gauges), and the health signal cheetahd's /healthz serves.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cheetah/internal/obs"
	"cheetah/internal/plan"
	"cheetah/internal/table"
	"cheetah/internal/wire"
	"cheetah/internal/workload/multitenant"
)

// FormatTrace renders a result's server-side stage summary — the
// compact form of the execution's lifecycle trace that travels in the
// Result frame — one "stage  duration  entries->forwarded" line per
// stage, in lifecycle order. Empty when the server disabled tracing.
func FormatTrace(res *wire.ResultMsg) string {
	if res == nil || len(res.Trace) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "server wall %s\n", time.Duration(res.WallNanos).Round(time.Microsecond))
	for _, st := range res.Trace {
		fmt.Fprintf(&b, "  %-8s %10s", obs.Stage(st.Stage), time.Duration(st.Nanos).Round(time.Microsecond))
		if st.Entries > 0 || st.Forwarded > 0 {
			fmt.Fprintf(&b, "  %d->%d", st.Entries, st.Forwarded)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestWireTraceAndMetrics runs all 8 kinds over TCP and checks each
// result carries the server-side wall clock and stage summary, the
// shared registry accumulates per-kind latency histograms, and the
// slow-query hook fires (threshold 1ns: everything is slow).
func TestWireTraceAndMetrics(t *testing.T) {
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 2000, RankRows: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var slowLines []string
	srv, err := Listen("127.0.0.1:0", Options{
		Tables:             map[string]*table.Table{"visits": mix.Visits, "rankings": mix.Rankings},
		Primary:            "visits",
		Plan:               plan.Options{Switches: 2, Seed: 11},
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog: func(format string, args ...any) {
			mu.Lock()
			slowLines = append(slowLines, format)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	reg := srv.Metrics()
	if reg != srv.Session().Fabric().Metrics() {
		t.Fatal("srv.Metrics() is not the session fabric's registry")
	}
	if !srv.Healthy() {
		t.Fatal("fresh server reports unhealthy")
	}

	cl := dialMix(t, srv, "tenant-0")
	ctx := context.Background()
	kinds := map[string]bool{}
	for i := 0; i < multitenant.NumKinds; i++ {
		q := mix.Query(i)
		kinds[q.Kind.String()] = true
		spec, err := wire.SpecOf(q, "visits", rightName(q))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Query(ctx, *spec, QueryOptions{})
		if err != nil {
			t.Fatalf("query %d (%v): %v", i, q.Kind, err)
		}
		if res.WallNanos == 0 {
			t.Fatalf("query %d (%v): result carries no wall clock", i, q.Kind)
		}
		if len(res.Trace) == 0 {
			t.Fatalf("query %d (%v): result carries no trace summary", i, q.Kind)
		}
		var sawPlan bool
		for _, st := range res.Trace {
			if obs.Stage(st.Stage) == obs.StagePlan {
				sawPlan = true
			}
		}
		if !sawPlan {
			t.Fatalf("query %d (%v): trace summary %v has no plan stage", i, q.Kind, res.Trace)
		}
		rendered := FormatTrace(res)
		if !strings.Contains(rendered, "server wall") || !strings.Contains(rendered, "plan") {
			t.Fatalf("query %d (%v): FormatTrace rendered %q", i, q.Kind, rendered)
		}
	}

	// Per-kind latency histograms: every kind submitted shows up, each
	// with at least one observation and a positive sum.
	for kind := range kinds {
		h := reg.Histogram("query_latency", "kind", kind)
		if h.Count() == 0 || h.Sum() <= 0 {
			t.Fatalf("query_latency{kind=%s} is empty", kind)
		}
	}
	// Each catalog table's derived bytes, read at the scrape: at least
	// the skip index the session built on the primary.
	var expo strings.Builder
	if err := srv.WriteMetrics(&expo); err != nil {
		t.Fatal(err)
	}
	for name, tb := range map[string]*table.Table{"visits": mix.Visits, "rankings": mix.Rankings} {
		n := tb.DerivedBytes().Total()
		if series := fmt.Sprintf("cheetah_table_derived_bytes{table=%q} %d\n", name, n); !strings.Contains(expo.String(), series) {
			t.Errorf("/metrics lacks %q", series)
		}
		if name == "visits" && n == 0 {
			t.Error("the primary's skip index is not accounted")
		}
	}
	if n := reg.Total("slow_queries"); n == 0 {
		t.Fatal("slow-query counter never fired at a 1ns threshold")
	}
	mu.Lock()
	lines := len(slowLines)
	mu.Unlock()
	if lines == 0 {
		t.Fatal("slow-query log hook never fired")
	}

	srv.Close()
	if srv.Healthy() {
		t.Fatal("closed server still reports healthy")
	}
}

// TestWireTraceDisabled pins the opt-out: with session tracing off the
// Result frame carries no stage summary (the wall clock still does —
// it comes from the execution, not the trace) and FormatTrace renders
// nothing.
func TestWireTraceDisabled(t *testing.T) {
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 1000, RankRows: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", Options{
		Tables:  map[string]*table.Table{"visits": mix.Visits, "rankings": mix.Rankings},
		Primary: "visits",
		Plan:    plan.Options{Switches: 2, Seed: 11, DisableTracing: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl := dialMix(t, srv, "tenant-0")
	q := mix.Query(0)
	spec, err := wire.SpecOf(q, "visits", rightName(q))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(context.Background(), *spec, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 0 {
		t.Fatalf("tracing disabled but summary present: %v", res.Trace)
	}
	if res.WallNanos == 0 {
		t.Fatal("wall clock must not depend on tracing")
	}
	if FormatTrace(res) != "" {
		t.Fatal("FormatTrace must render nothing without a summary")
	}
}

// TestHealthyTracksFabric pins Healthy() to the failure state of the
// session's one fabric, which serves queries and hosts standing programs
// alike: every switch failed → unhealthy; one restored → healthy.
func TestHealthyTracksFabric(t *testing.T) {
	srv, _ := testServer(t, true, 500)
	fab := srv.Session().Fabric()
	for i := 0; i < fab.Size(); i++ {
		fab.Fail(i)
	}
	if srv.Healthy() {
		t.Fatal("every switch failed but server reports healthy")
	}
	if err := fab.Restore(0); err != nil {
		t.Fatal(err)
	}
	if !srv.Healthy() {
		t.Fatal("restored a switch but server reports unhealthy")
	}
}

// TestActiveLeasesMetricMatchesFabric pins /metrics' per-switch lease
// gauge to the switch it names: with one subscription's standing
// programs held and one-shot queries run after it, active_leases{switch}
// reads each switch's count of active leases, standing ones included.
// One fabric writes each series, so no writer can overwrite another's.
func TestActiveLeasesMetricMatchesFabric(t *testing.T) {
	srv, mix := testServer(t, true, 1000)
	cl := dialMix(t, srv, "tenant-0")
	ctx := context.Background()
	spec, err := wire.SpecOf(mix.Query(1), "visits", "") // DISTINCT
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe(ctx, *spec, SubscribeOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		q := mix.Query(i)
		if _, err := cl.QueryEngine(ctx, q, "visits", rightName(q), QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	var expo strings.Builder
	if err := srv.WriteMetrics(&expo); err != nil {
		t.Fatal(err)
	}
	standing := 0
	for i, c := range srv.Session().Fabric().Stats() {
		standing += c.Active
		series := fmt.Sprintf("cheetah_active_leases{switch=\"%d\"} %d\n", i, c.Active)
		if !strings.Contains(expo.String(), series) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(series))
		}
	}
	if standing == 0 {
		t.Fatal("the subscription holds no lease on the fabric")
	}
}
