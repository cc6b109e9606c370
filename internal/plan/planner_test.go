package plan

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cheetah/internal/engine"
	"cheetah/internal/fabric"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
	"cheetah/internal/workload"
)

// TestPlannerChoicesFitTofino is the acceptance check: for every query
// kind, the planner's chosen pruner and parameters pass the Tofino()
// admission arithmetic, and the plan explains the derivation.
func TestPlannerChoicesFitTofino(t *testing.T) {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	orders, lineitem, err := workload.TPCHQ3(500, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(uv, Options{Workers: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	so, err := Open(orders, Options{Workers: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rk := workload.Rankings(2000, 3)
	sr, err := Open(rk, Options{Workers: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		b      *Builder
		pruner string // expected Plan.PrunerName
	}{
		{s.Select().Where("adRevenue", prune.OpGT, 400_000).WhereLike("userAgent", "agent/0%"), "filter"},
		{s.Select().Distinct("userAgent"), "distinct-LRU"},
		{s.Select().TopN("adRevenue", 50), "topn-rand"},
		{s.Select().GroupByMax("userAgent", "adRevenue"), "groupby-max"},
		{s.Select().GroupBySum("languageCode", "adRevenue"), "groupby-sum"},
		{s.Select().GroupBySum("languageCode", "adRevenue").Having(100_000), "having-SUM"},
		{so.Select().Join(lineitem, "o_orderkey", "l_orderkey"), "join-BF"},
		{sr.Select().Skyline("pageRank", "avgDuration"), "skyline-APH"},
	}
	for _, c := range cases {
		p, err := c.b.Plan()
		if err != nil {
			t.Errorf("%s: %v", c.pruner, err)
			continue
		}
		if p.Mode != ModeCheetah {
			t.Errorf("%s: mode %v (reason %q), want cheetah", c.pruner, p.Mode, p.Reason)
			continue
		}
		if p.PrunerName != c.pruner {
			t.Errorf("pruner %q, want %q", p.PrunerName, c.pruner)
		}
		if p.Reason == "" {
			t.Errorf("%s: empty plan reason", c.pruner)
		}
		if err := switchsim.Tofino().Admits(p.Profile); err != nil {
			t.Errorf("%s: planned profile does not fit Tofino: %v", c.pruner, err)
		}
		pr, err := p.NewPruner()
		if err != nil {
			t.Errorf("%s: NewPruner: %v", c.pruner, err)
		} else if pr.Name() != p.PrunerName {
			t.Errorf("factory built %q, plan says %q", pr.Name(), p.PrunerName)
		}
	}
}

// TestPlannerAsymmetricJoinSizing: a left (build) side ≥8× smaller
// selects the §4.3 asymmetric strategy, with the Bloom filter sized for
// the small side's keys — not the probe side's.
func TestPlannerAsymmetricJoinSizing(t *testing.T) {
	small := wideTable(t, 2, 500)
	big := wideTable(t, 2, 500*8)
	s, err := Open(small, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Select().Join(big, "c0", "c0").Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != ModeCheetah || !strings.Contains(p.Reason, "asymmetric") {
		t.Fatalf("mode=%v reason=%q, want asymmetric cheetah join", p.Mode, p.Reason)
	}
	wantBits := 2 * prune.JoinFilterBitsFor(small.NumRows())
	if p.Profile.SRAMBits != wantBits {
		t.Fatalf("asymmetric join SRAM %d bits, want %d (sized for the %d-row build side)",
			p.Profile.SRAMBits, wantBits, small.NumRows())
	}
	ex, err := s.ExecPlan(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := s.Select().Join(big, "c0", "c0").Build()
	direct, err := engine.ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(ex.Result) {
		t.Fatal("asymmetric join diverges from direct")
	}
}

// TestPlannerTopNParameterDerivation pins that the planner derives the
// TOP N matrix via the §5 joint optimization, not the engine's fixed-d
// legacy default.
func TestPlannerTopNParameterDerivation(t *testing.T) {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(500, 1))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := Open(uv, Options{Seed: 1})
	p, err := s.Select().TopN("adRevenue", 1000).Plan()
	if err != nil {
		t.Fatal(err)
	}
	d, w, err := prune.OptimalTopNRows(1000, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("d=%d w=%d", d, w)
	if !strings.Contains(p.Reason, want) || !strings.Contains(p.Reason, "OptimalTopNRows") {
		t.Fatalf("reason %q does not carry the optimized %s", p.Reason, want)
	}
	// The paper's worked example: N=1000, δ=1e-4 → d=481, w=19.
	if d != 481 || w != 19 {
		t.Fatalf("OptimalTopNRows(1000, 1e-4) = (%d, %d), want (481, 19)", d, w)
	}
}

// TestPlannerGiantTopNFallsBackToDeterministic: when N is so large that
// every randomized matrix violates the per-stage SRAM budget (or the
// theorem premise), the planner degrades to the deterministic threshold
// pruner — still Cheetah, tiny profile.
func TestPlannerGiantTopNFallsBackToDeterministic(t *testing.T) {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(200, 1))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := Open(uv, Options{Seed: 1})
	p, err := s.Select().TopN("adRevenue", 2_000_000).Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != ModeCheetah || p.PrunerName != "topn-det" {
		t.Fatalf("mode=%v pruner=%q (reason %q), want cheetah/topn-det", p.Mode, p.PrunerName, p.Reason)
	}
	if !strings.Contains(p.Reason, "deterministic") {
		t.Fatalf("reason %q does not explain the deterministic fallback", p.Reason)
	}
}

// wideTable builds a table with dims Int64 columns c0..c(dims-1).
func wideTable(t *testing.T, dims, rows int) *table.Table {
	t.Helper()
	sch := make(table.Schema, dims)
	for i := range sch {
		sch[i] = table.ColumnDef{Name: fmt.Sprintf("c%d", i), Type: table.Int64}
	}
	tbl := table.MustNew(sch)
	v := make([]int64, dims)
	for r := 0; r < rows; r++ {
		for i := range v {
			v[i] = int64((r*31+i*17)%97 + 1)
		}
		if err := tbl.AppendInt64Row(v...); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestPlannerOversizedSkylineFallsBackToDirect is the acceptance
// criterion's oversized query: a 12-dimensional skyline needs more
// per-stage comparisons than the Tofino has ALUs, so the planner must
// fall back to direct execution with an explanation — and Exec must
// still return the exact result.
func TestPlannerOversizedSkylineFallsBackToDirect(t *testing.T) {
	tbl := wideTable(t, 12, 300)
	s, err := Open(tbl, Options{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]string, 12)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	b := s.Select().Skyline(cols...)
	p, err := b.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != ModeDirect {
		t.Fatalf("mode %v, want direct", p.Mode)
	}
	if !strings.Contains(p.Reason, "no pruning program fits") || !strings.Contains(p.Reason, "D=12") {
		t.Fatalf("fallback reason %q does not explain the resource violation", p.Reason)
	}
	ex, err := b.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := engine.ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(ex.Result) {
		t.Fatal("direct-fallback Exec diverges from ExecDirect")
	}
	if ex.Traffic.EntriesSent != 0 {
		t.Fatalf("direct execution reported traffic %+v", ex.Traffic)
	}
	if !strings.Contains(ex.Explain(), "direct") {
		t.Fatalf("Explain() = %q does not mention the direct fallback", ex.Explain())
	}
}

// TestPlannerTinyModelFallsBackToDirect: the same DISTINCT query that
// fits a Tofino is rejected by a toy model with one usable stage, and
// the plan says why.
func TestPlannerTinyModelFallsBackToDirect(t *testing.T) {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(300, 1))
	if err != nil {
		t.Fatal(err)
	}
	tiny := switchsim.Model{
		Name: "toy", Stages: switchsim.ReservedStages + 1, ALUsPerStage: 1,
		SRAMPerStageBits: 1 << 10, TCAMEntries: 16, MetadataBits: 64,
	}
	s, err := Open(uv, Options{Model: tiny, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Select().Distinct("userAgent").Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != ModeDirect || !strings.Contains(p.Reason, "toy") {
		t.Fatalf("mode=%v reason=%q, want explained direct fallback on toy model", p.Mode, p.Reason)
	}
}

// TestPlannerMixedKeyJoinRunsDirect: a JOIN of an Int64 key with a String
// key, which no switch can prune (their fingerprints never meet), plans as
// an explained direct query at every width, and every front door — Exec at
// one and two switches, SubmitQoS, a subscription — answers it as ExecDirect
// does, through the rendered cells.
func TestPlannerMixedKeyJoinRunsDirect(t *testing.T) {
	ctx := streamCtx(t)
	ints := table.MustNew(table.Schema{{Name: "k", Type: table.Int64}})
	strs := table.MustNew(table.Schema{{Name: "name", Type: table.String}})
	for i := 0; i < 100; i++ {
		if err := ints.AppendRow(int64(i % 40)); err != nil {
			t.Fatal(err)
		}
		if err := strs.AppendRow(fmt.Sprint(i * 7 % 50)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := engine.ExecDirect(&engine.Query{Kind: engine.KindJoin, Table: ints, Right: strs, LeftKey: "k", RightKey: "name"})
	if err != nil || len(want.Rows) == 0 {
		t.Fatalf("ExecDirect: %v, err %v", want, err)
	}
	for _, k := range []int{1, 2} {
		s, err := Open(ints, Options{Workers: 2, Seed: 7, Switches: k})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		b := s.Select().Join(strs, "k", "name")
		p, err := b.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if p.Mode != ModeDirect || !strings.Contains(p.Reason, "same-typed keys") {
			t.Fatalf("k=%d: mode=%v reason=%q, want an explained direct plan", k, p.Mode, p.Reason)
		}
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		ex, err := s.Exec(ctx, q)
		if err != nil || !want.Equal(ex.Result) {
			t.Fatalf("k=%d Exec: %v, err %v; want\n%v", k, ex, err, want)
		}
		ex, err = s.SubmitQoS(ctx, q, fabric.QoS{Tenant: "t"})
		if err != nil || !want.Equal(ex.Result) {
			t.Fatalf("k=%d SubmitQoS: %v, err %v; want\n%v", k, ex, err, want)
		}

		target, err := table.New(ints.Schema())
		if err != nil {
			t.Fatal(err)
		}
		ds, err := Open(target, Options{Workers: 2, Seed: 7, Switches: k})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		st, err := ds.Stream(ctx, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sq, err := ds.Select().Join(strs, "k", "name").Build()
		if err != nil {
			t.Fatal(err)
		}
		sub, err := st.Subscribe(ctx, sq)
		if err != nil {
			t.Fatal(err)
		}
		appendInChunks(t, st, ints, 30)
		if err := sub.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if got, _ := sub.Results(); sub.Plan().Mode != ModeDirect || !want.Equal(got) {
			t.Fatalf("k=%d subscription (%v): %v; want\n%v", k, sub.Plan().Mode, got, want)
		}
	}
}

// TestPlannerClusterRouting: UseCluster routes the kinds the rack can
// carry over the network path and keeps the others in-process, each with
// its own reason.
func TestPlannerClusterRouting(t *testing.T) {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(400, 1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(uv, Options{Workers: 3, Seed: 1, UseCluster: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Select().Distinct("userAgent").Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != ModeCluster {
		t.Fatalf("distinct mode %v, want cluster", p.Mode)
	}
	ex, err := s.ExecPlan(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if ex.ClusterReport == nil {
		t.Fatal("cluster execution returned no protocol report")
	}
	q, _ := s.Select().Distinct("userAgent").Build()
	direct, err := engine.ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(ex.Result) {
		t.Fatal("cluster result diverges from direct")
	}

	// The two-stream kinds ride the rack too: a pass streams as many times
	// as it needs through the same dataplane.
	rk := workload.Rankings(300, 2)
	for _, b := range []*Builder{
		s.Select().GroupBySum("languageCode", "adRevenue").Having(50_000),
		s.Select().Join(rk, "destURL", "pageURL"),
	} {
		ex, err := b.Exec(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if ex.Plan.Mode != ModeCluster || ex.ClusterReport == nil {
			t.Fatalf("%v mode=%v (%s), want cluster with a protocol report", ex.Plan.Query.Kind, ex.Plan.Mode, ex.Plan.Reason)
		}
		if want, _ := engine.ExecDirect(ex.Plan.Query); !want.Equal(ex.Result) {
			t.Fatalf("%v over the rack diverges from direct", ex.Plan.Query.Kind)
		}
	}

	// GROUP BY SUM, whose program rewrites packets, stays in process and
	// says why.
	p, err = s.Select().GroupBySum("languageCode", "adRevenue").Plan()
	if err != nil {
		t.Fatal(err)
	}
	why := "program rewrites packets; the §7.2 switch forwards them unmodified"
	if p.Mode != ModeCheetah || !strings.Contains(p.Reason, why+", running in-process") {
		t.Fatalf("group-by-sum mode=%v reason=%q, want in-process because %q", p.Mode, p.Reason, why)
	}
}

// TestExecHonorsContext: a cancelled context stops Exec before any work.
func TestExecHonorsContext(t *testing.T) {
	s := openTest(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Select().Distinct("seller").Exec(ctx); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

// TestOpenValidation pins Open's error paths and defaulting.
func TestOpenValidation(t *testing.T) {
	if _, err := Open(nil, Options{}); err == nil {
		t.Fatal("nil table accepted")
	}
	bad := switchsim.Tofino()
	bad.ALUsPerStage = -1
	if _, err := Open(wideTable(t, 2, 1), Options{Model: bad}); err == nil {
		t.Fatal("invalid model accepted")
	}
	s, err := Open(wideTable(t, 2, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := s.Options()
	if o.Model.Name != "tofino" || o.Workers != 1 || o.Switches != 1 {
		t.Fatalf("defaults not filled: %+v", o)
	}
}
