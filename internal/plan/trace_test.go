package plan

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cheetah/internal/fabric"
	"cheetah/internal/obs"
	"cheetah/internal/prune"
	"cheetah/internal/table"
	"cheetah/internal/workload"
)

// traceKindCases opens sessions with opts and builds one query per kind —
// the same 8-kind matrix the equivalence tests pin.
func traceKindCases(t *testing.T, opts Options) []struct {
	label string
	s     *Session
	b     *Builder
} {
	t.Helper()
	uv, err := workload.UserVisits(workload.DefaultUserVisits(4000, 1))
	if err != nil {
		t.Fatal(err)
	}
	rk := workload.Rankings(3000, 2)
	orders, lineitem, err := workload.TPCHQ3(800, 3)
	if err != nil {
		t.Fatal(err)
	}
	open := func(tb *table.Table) *Session {
		s, err := Open(tb, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	sUV, sRK, sOrd := open(uv), open(rk), open(orders)
	return []struct {
		label string
		s     *Session
		b     *Builder
	}{
		{"filter", sUV, sUV.Select().Where("adRevenue", prune.OpGT, 300_000)},
		{"distinct", sUV, sUV.Select().Distinct("userAgent")},
		{"topn", sUV, sUV.Select().TopN("adRevenue", 100)},
		{"groupby-max", sUV, sUV.Select().GroupByMax("userAgent", "adRevenue")},
		{"groupby-sum", sUV, sUV.Select().GroupBySum("languageCode", "adRevenue")},
		{"having", sUV, sUV.Select().GroupBySum("languageCode", "adRevenue").Having(500_000)},
		{"join", sOrd, sOrd.Select().Join(lineitem, "o_orderkey", "l_orderkey")},
		{"skyline", sRK, sRK.Select().Skyline("pageRank", "avgDuration")},
	}
}

// planStages indexes an execution's spans by stage.
func planStages(ex *Execution) map[obs.Stage][]obs.Span {
	out := make(map[obs.Stage][]obs.Span)
	for _, s := range ex.Trace().Spans() {
		out[s.Stage] = append(out[s.Stage], s)
	}
	return out
}

// prunedScheme reports how ex's trace departs from the one span scheme of
// a pruned run — a shard span on each of k switches, then one merge, and
// never a fused, encode or prune span; over racks exactly k shard spans,
// each on the chunked stream — or "" when it does not.
func prunedScheme(ex *Execution, k int) string {
	st := planStages(ex)
	seen := map[int]bool{}
	for _, s := range st[obs.StageShard] {
		seen[s.Switch] = true
		if ex.Plan.Mode == ModeCluster && !strings.HasPrefix(s.Note, "chunked") {
			return fmt.Sprintf("a rack's shard span noted %q, want chunked", s.Note)
		}
	}
	switch {
	case len(seen) != k:
		return fmt.Sprintf("shard spans on %d switches, want %d", len(seen), k)
	case ex.Plan.Mode == ModeCluster && len(st[obs.StageShard]) != k:
		return fmt.Sprintf("%d shard spans over %d racks", len(st[obs.StageShard]), k)
	case len(st[obs.StageMerge]) != 1:
		return fmt.Sprintf("%d merge spans, want 1", len(st[obs.StageMerge]))
	case len(st[obs.StageFused])+len(st[obs.StageEncode])+len(st[obs.StagePrune]) != 0:
		return "a retired fused/encode/prune span"
	}
	return ""
}

// TestExplainAnalyzeAllKindsAcrossPaths is the tracing layer's rendering
// acceptance: for every kind, the pruned path at one switch and at three
// and the direct path each produce a trace whose span tree renders the
// stages that actually ran — plan and the per-switch engine stages —
// plus a measured wall clock.
func TestExplainAnalyzeAllKindsAcrossPaths(t *testing.T) {
	ctx := context.Background()

	// Pruned path, in process: plan span + per-switch shard spans + the
	// master's merge, at every width.
	for _, k := range []int{1, 3} {
		for _, c := range traceKindCases(t, Options{Workers: 2, Seed: 7, Switches: k}) {
			q, err := c.b.Build()
			if err != nil {
				t.Fatalf("%s: %v", c.label, err)
			}
			ex, err := c.s.Exec(ctx, q)
			if err != nil {
				t.Fatalf("%s k=%d: %v", c.label, k, err)
			}
			if ex.Wall <= 0 {
				t.Fatalf("%s k=%d: Wall not captured", c.label, k)
			}
			st := planStages(ex)
			if len(st[obs.StagePlan]) == 0 {
				t.Fatalf("%s k=%d: no plan span:\n%s", c.label, k, ex.Trace())
			}
			if bad := prunedScheme(ex, k); bad != "" {
				t.Fatalf("%s k=%d: %s:\n%s", c.label, k, bad, ex.Trace())
			}
			if ex.RowsSkipped > 0 && len(st[obs.StageSkip]) == 0 {
				t.Fatalf("%s k=%d: rows skipped but no skip span:\n%s", c.label, k, ex.Trace())
			}
			out := ex.ExplainAnalyze()
			for _, want := range []string{"wall:", "trace:", "plan", "shard", "merge", "switch="} {
				if !strings.Contains(out, want) {
					t.Fatalf("%s k=%d: ExplainAnalyze missing %q:\n%s", c.label, k, want, out)
				}
			}
		}
	}

	// Direct path: the scan span (ExecPlan on a direct plan — no plan
	// span, planning happened outside the call).
	for _, c := range traceKindCases(t, Options{Workers: 2, Seed: 7}) {
		q, err := c.b.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		fb := &Plan{
			Query: q, Mode: ModeDirect, Model: c.s.opts.Model,
			Workers: 1, Switches: 1, Reason: "test: forced direct",
		}
		ex, err := c.s.ExecPlan(ctx, fb)
		if err != nil {
			t.Fatalf("%s direct: %v", c.label, err)
		}
		st := planStages(ex)
		if len(st[obs.StageScan]) == 0 {
			t.Fatalf("%s direct: no scan span:\n%s", c.label, ex.Trace())
		}
		if got := st[obs.StageScan][0].Entries; got != int64(queryRows(q)) {
			t.Fatalf("%s direct: scan span entries %d != %d rows", c.label, got, queryRows(q))
		}
		if !strings.Contains(ex.ExplainAnalyze(), "scan") {
			t.Fatalf("%s direct: ExplainAnalyze missing scan:\n%s", c.label, ex.ExplainAnalyze())
		}
	}
}

// TestPlanTracingEquivalenceAndOptOut pins the invariant at the session
// layer: tracing (default-on) changes no results, and DisableTracing
// yields a nil trace with the wall clock still captured.
func TestPlanTracingEquivalenceAndOptOut(t *testing.T) {
	ctx := context.Background()
	uv, err := workload.UserVisits(workload.DefaultUserVisits(4000, 1))
	if err != nil {
		t.Fatal(err)
	}
	on, err := Open(uv, Options{Workers: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Open(uv, Options{Workers: 2, Seed: 7, DisableTracing: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []func(s *Session) *Builder{
		func(s *Session) *Builder { return s.Select().Where("adRevenue", prune.OpGT, 300_000) },
		func(s *Session) *Builder { return s.Select().TopN("adRevenue", 100) },
		func(s *Session) *Builder { return s.Select().GroupBySum("languageCode", "adRevenue") },
	} {
		qOn, err := build(on).Build()
		if err != nil {
			t.Fatal(err)
		}
		qOff, err := build(off).Build()
		if err != nil {
			t.Fatal(err)
		}
		exOn, err := on.Exec(ctx, qOn)
		if err != nil {
			t.Fatal(err)
		}
		exOff, err := off.Exec(ctx, qOff)
		if err != nil {
			t.Fatal(err)
		}
		if !exOn.Result.Equal(exOff.Result) {
			t.Fatal("tracing changed the result")
		}
		if exOn.Traffic != exOff.Traffic || exOn.Stats != exOff.Stats {
			t.Fatalf("tracing changed traffic/stats: %+v vs %+v", exOn.Traffic, exOff.Traffic)
		}
		if exOn.Trace() == nil {
			t.Fatal("tracing is not on by default")
		}
		if exOff.Trace() != nil {
			t.Fatal("DisableTracing left a trace attached")
		}
		if exOff.Wall <= 0 {
			t.Fatal("DisableTracing lost the wall clock")
		}
		if !strings.Contains(exOff.ExplainAnalyze(), "trace:   disabled") {
			t.Fatalf("untraced ExplainAnalyze:\n%s", exOff.ExplainAnalyze())
		}
	}
}

// TestSubmitQoSTrace pins the served path's spans: plan + admission
// (stamped with the placed switch and the fabric-assigned QueryID) +
// the engine stages, with one Wall over the whole submission.
func TestSubmitQoSTrace(t *testing.T) {
	ctx := context.Background()
	uv, err := workload.UserVisits(workload.DefaultUserVisits(4000, 1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(uv, Options{Workers: 2, Seed: 7, Switches: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q, err := s.Select().Where("adRevenue", prune.OpGT, 300_000).Build()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := s.Submit(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Wall <= 0 {
		t.Fatal("Submit: Wall not captured")
	}
	st := planStages(ex)
	if len(st[obs.StagePlan]) == 0 || len(st[obs.StageAdmit]) == 0 {
		t.Fatalf("Submit: missing plan/admit spans:\n%s", ex.Trace())
	}
	if got := st[obs.StageAdmit][0].Switch; got != ex.Switch {
		t.Fatalf("admit span switch %d != placed switch %d", got, ex.Switch)
	}
	if ex.QueryID != 0 && ex.Trace().QueryID() != ex.QueryID {
		t.Fatalf("trace query id %d != execution's %d", ex.Trace().QueryID(), ex.QueryID)
	}
	if out := ex.ExplainAnalyze(); !strings.Contains(out, "admit") {
		t.Fatalf("ExplainAnalyze missing admit:\n%s", out)
	}
}

// fusedShards reports how tr's shard spans depart from the premise of the
// gated paths — at least one, and every one noted fused — or "" when they
// do not: a silent fall to the chunked stream costs a Process call per
// entry.
func fusedShards(tr *obs.Trace) string {
	n := 0
	for _, sp := range tr.Spans() {
		if sp.Stage != obs.StageShard {
			continue
		}
		if n++; !strings.HasPrefix(sp.Note, "fused") {
			return fmt.Sprintf("shard span on switch %d noted %q, want fused", sp.Switch, sp.Note)
		}
	}
	if n == 0 {
		return "no shard span"
	}
	return ""
}

// TestGatedPathsRunFused pins the premise that the gated front doors run
// the fused loops: every kind submitted with SubmitQoS to a healthy fabric,
// and one delta each of a FILTER-count, DISTINCT, TOP N and HAVING
// subscription, records only shard spans noted fused.
func TestGatedPathsRunFused(t *testing.T) {
	ctx := streamCtx(t)
	for _, c := range traceKindCases(t, Options{Workers: 2, Seed: 7, Switches: 2}) {
		q, err := c.b.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		ex, err := c.s.SubmitQoS(ctx, q, fabric.QoS{Tenant: "t", Priority: 1})
		if err != nil {
			t.Fatalf("%s: SubmitQoS: %v", c.label, err)
		}
		if ex.Plan.Mode != ModeCheetah {
			t.Fatalf("%s: served as %v (%s)", c.label, ex.Plan.Mode, ex.Plan.Reason)
		}
		if bad := fusedShards(ex.Trace()); bad != "" {
			t.Fatalf("%s: SubmitQoS: %s:\n%s", c.label, bad, ex.Trace())
		}
	}

	uv, err := workload.UserVisits(workload.DefaultUserVisits(1600, 1))
	if err != nil {
		t.Fatal(err)
	}
	target, err := table.New(uv.Schema())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(target, Options{Workers: 2, Seed: 7, Switches: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Stream(ctx, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	subs := map[string]*Subscription{}
	for label, b := range map[string]*Builder{
		"filter-count": s.Select().Where("adRevenue", prune.OpGT, 300_000).Count(),
		"distinct":     s.Select().Distinct("userAgent"),
		"topn":         s.Select().TopN("adRevenue", 100),
		"having":       s.Select().GroupBySum("languageCode", "adRevenue").Having(500_000),
	} {
		q, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if subs[label], err = st.Subscribe(ctx, q); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		defer subs[label].Close()
	}
	if err := st.AppendBatch(uv); err != nil {
		t.Fatal(err)
	}
	for label, sub := range subs {
		if err := sub.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if sub.Plan().Mode != ModeCheetah || sub.Trace() == nil {
			t.Fatalf("%s: subscription %v (%s), trace %v", label, sub.Plan().Mode, sub.Plan().Reason, sub.Trace())
		}
		if bad := fusedShards(sub.Trace()); bad != "" {
			t.Fatalf("%s: delta: %s:\n%s", label, bad, sub.Trace())
		}
	}
}

// TestSpansInsideWall pins where the one clock starts: before the trace
// and before planning, on Session.Exec as on Submit, so that for every
// kind every span — the plan span included — ends inside Execution.Wall;
// over racks too, where Exec opens and closes them inside the call, and
// the k passes keep the one pruned span scheme.
func TestSpansInsideWall(t *testing.T) {
	ctx := context.Background()
	for _, opts := range []Options{
		{Workers: 2, Seed: 7, Switches: 1},
		{Workers: 2, Seed: 7, Switches: 1, UseCluster: true},
		{Workers: 2, Seed: 7, Switches: 2, UseCluster: true},
	} {
		for _, c := range traceKindCases(t, opts) {
			label := fmt.Sprintf("k=%d cluster=%v %s", opts.Switches, opts.UseCluster, c.label)
			q, err := c.b.Build()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			local, err := c.s.Exec(ctx, q)
			if err != nil {
				t.Fatalf("%s: Exec: %v", label, err)
			}
			if bad := prunedScheme(local, opts.Switches); bad != "" {
				t.Errorf("%s: Exec trace: %s:\n%s", label, bad, local.Trace())
			}
			served, err := c.s.Submit(ctx, q)
			if err != nil {
				t.Fatalf("%s: Submit: %v", label, err)
			}
			for door, ex := range map[string]*Execution{"Exec": local, "Submit": served} {
				if len(planStages(ex)[obs.StagePlan]) == 0 {
					t.Fatalf("%s: %s: no plan span:\n%s", label, door, ex.Trace())
				}
				for _, sp := range ex.Trace().Spans() {
					if end := sp.Start + sp.Dur; end > ex.Wall {
						t.Errorf("%s: %s: %v span ends at %v, outside Wall %v:\n%s", label, door, sp.Stage, end, ex.Wall, ex.Trace())
					}
				}
			}
		}
	}
}

// TestSubscriptionDeltaTrace pins the streaming path: every completed
// delta publishes a fresh trace with a top-level delta span bracketing
// the engine stages that ran beneath it.
func TestSubscriptionDeltaTrace(t *testing.T) {
	ctx := streamCtx(t)
	uv, err := workload.UserVisits(workload.DefaultUserVisits(1600, 1))
	if err != nil {
		t.Fatal(err)
	}
	target, err := table.New(uv.Schema())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(target, Options{Workers: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Stream(ctx, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.Select().Where("adRevenue", prune.OpGT, 300_000).Build()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := st.Subscribe(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.Trace() != nil {
		t.Fatal("subscription has a trace before any delta ran")
	}
	appendInChunks(t, st, uv, 400)
	if err := sub.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	tr := sub.Trace()
	if tr == nil {
		t.Fatal("no delta trace after flush")
	}
	var delta, engineStages int
	for _, sp := range tr.Spans() {
		switch sp.Stage {
		case obs.StageDelta:
			delta++
			if sp.Entries <= 0 {
				t.Fatalf("delta span carries no entries:\n%s", tr)
			}
		case obs.StageShard, obs.StageMerge, obs.StageScan:
			engineStages++
		}
	}
	if delta == 0 {
		t.Fatalf("no delta span:\n%s", tr)
	}
	if engineStages == 0 {
		t.Fatalf("delta trace has no engine stages beneath it:\n%s", tr)
	}
}
