package plan

import (
	"context"
	"fmt"
	"testing"

	"cheetah/internal/engine"
	"cheetah/internal/prune"
	"cheetah/internal/table"
	"cheetah/internal/workload"
)

// equivCase is one query of the equivalence mix with its session.
type equivCase struct {
	label string
	s     *Session
	b     *Builder
}

// equivMix opens sessions over the shared test tables with opts and
// returns one query builder per kind.
func equivMix(t *testing.T, opts Options) []equivCase {
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
	return []equivCase{
		{"filter", sUV, sUV.Select().
			Where("adRevenue", prune.OpGT, 300_000).
			Where("duration", prune.OpLE, 150).
			WhereLike("userAgent", "agent/0_%")},
		{"distinct", sUV, sUV.Select().Distinct("userAgent")},
		{"topn", sUV, sUV.Select().TopN("adRevenue", 100)},
		{"groupby-max", sUV, sUV.Select().GroupByMax("userAgent", "adRevenue")},
		{"groupby-sum", sUV, sUV.Select().GroupBySum("languageCode", "adRevenue")},
		{"having", sUV, sUV.Select().GroupBySum("languageCode", "adRevenue").Having(500_000)},
		{"join", sOrd, sOrd.Select().Join(lineitem, "o_orderkey", "l_orderkey")},
		{"skyline", sRK, sRK.Select().Skyline("pageRank", "avgDuration")},
	}
}

// TestExecEquivalenceAllKinds is the acceptance criterion: for every
// QueryKind and several seeds, the session Exec, the direct executor and
// the legacy free-function ExecCheetah return the same result.
func TestExecEquivalenceAllKinds(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		cases := equivMix(t, Options{Workers: 3, Seed: seed})
		for _, c := range cases {
			q, err := c.b.Build()
			if err != nil {
				t.Fatalf("seed %d %s: build: %v", seed, c.label, err)
			}
			direct, err := engine.ExecDirect(q)
			if err != nil {
				t.Fatalf("seed %d %s: direct: %v", seed, c.label, err)
			}
			legacy, err := engine.ExecCheetah(q, engine.CheetahOptions{Workers: 3, Seed: seed})
			if err != nil {
				t.Fatalf("seed %d %s: legacy ExecCheetah: %v", seed, c.label, err)
			}
			ex, err := c.s.Exec(context.Background(), q)
			if err != nil {
				t.Fatalf("seed %d %s: session Exec: %v", seed, c.label, err)
			}
			if ex.Plan.Mode != ModeCheetah {
				t.Fatalf("seed %d %s: planned %v (%s), want cheetah", seed, c.label, ex.Plan.Mode, ex.Plan.Reason)
			}
			if !direct.Equal(legacy.Result) {
				t.Errorf("seed %d %s: legacy ExecCheetah diverges from direct", seed, c.label)
			}
			if !direct.Equal(ex.Result) {
				t.Errorf("seed %d %s: session Exec diverges from direct", seed, c.label)
			}
			// Block skipping may eliminate the whole scan from metadata
			// alone (this filter matches no rows, and the zone maps prove
			// it); every table row must be accounted for either way —
			// sent through the switch or skipped before encode.
			if ex.Traffic.EntriesSent == 0 && ex.RowsSkipped == 0 {
				t.Errorf("seed %d %s: pruned run reported no traffic (%+v)", seed, c.label, ex.Traffic)
			}
			if ex.Stats.Processed == 0 && ex.RowsSkipped == 0 {
				t.Errorf("seed %d %s: pruner processed nothing and nothing was skipped", seed, c.label)
			}
		}
	}
}

// TestFrontDoorsAgree drives every kind through the three front doors —
// Session.Exec, Session.Submit, and a subscription fed by chunked appends
// — at fabric widths 1 and 2, in process and with UseCluster: all run the
// one pruned driver (Session.run) and all equal ExecDirect. UseCluster
// sends Exec's entries through one rack per switch (GROUP BY SUM aside),
// while serving and streaming run in process whatever it says. At one
// switch a served run is the in-process run through a lease, so its
// Traffic and Stats are Exec's (randomized TOP N's RNG stream aside).
func TestFrontDoorsAgree(t *testing.T) {
	ctx := streamCtx(t)
	for _, cluster := range []bool{false, true} {
		for _, k := range []int{1, 2} {
			testFrontDoorsAgree(t, ctx, Options{Workers: 3, Seed: 7, Switches: k, UseCluster: cluster})
		}
	}
}

func testFrontDoorsAgree(t *testing.T, ctx context.Context, opts Options) {
	k := opts.Switches
	for _, c := range equivMix(t, opts) {
		label := fmt.Sprintf("k=%d cluster=%v %s", k, opts.UseCluster, c.label)
		q, err := c.b.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", label, err)
		}
		want, err := engine.ExecDirect(q)
		if err != nil {
			t.Fatalf("%s: direct: %v", label, err)
		}
		local, err := c.s.Exec(ctx, q)
		if err != nil {
			t.Fatalf("%s: Exec: %v", label, err)
		}
		served, err := c.s.Submit(ctx, q)
		if err != nil {
			t.Fatalf("%s: Submit: %v", label, err)
		}
		execMode := ModeCheetah
		if opts.UseCluster && q.Kind != engine.KindGroupBySum {
			execMode = ModeCluster
		}
		for door, ex := range map[string]*Execution{"Exec": local, "Submit": served} {
			mode := ModeCheetah
			if door == "Exec" {
				mode = execMode
			}
			if ex.Plan.Mode != mode {
				t.Fatalf("%s: %s planned %v (%s), want %v", label, door, ex.Plan.Mode, ex.Plan.Reason, mode)
			}
			if !want.Equal(ex.Result) {
				t.Errorf("%s: %s diverges from direct", label, door)
			}
		}
		// Every pruned run reports alike, leased, racked or in process:
		// Exec's k passes, and the served query's one on its placed switch.
		if bad := prunedScheme(local, k); bad != "" {
			t.Errorf("%s: Exec trace: %s:\n%s", label, bad, local.Trace())
		}
		if bad := prunedScheme(served, 1); bad != "" {
			t.Errorf("%s: Submit trace: %s:\n%s", label, bad, served.Trace())
		}
		if k == 1 && execMode == ModeCheetah && q.Kind != engine.KindTopN &&
			(served.Traffic != local.Traffic || served.Stats != local.Stats) {
			t.Errorf("%s: Submit accounts %+v %+v, Exec %+v %+v", label, served.Traffic, served.Stats, local.Traffic, local.Stats)
		}

		// The same query as a standing one over an empty copy of the
		// session's table, fed the rows in batches misaligned with
		// everything.
		target, err := table.New(q.Table.Schema())
		if err != nil {
			t.Fatal(err)
		}
		db, err := Open(target, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := db.Stream(ctx, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sq := *q
		sq.Table = target
		sub, err := st.Subscribe(ctx, &sq)
		if err != nil {
			t.Fatalf("%s: Subscribe: %v", label, err)
		}
		if sub.Plan().Mode != ModeCheetah {
			t.Fatalf("%s: Subscribe planned %v (%s), want cheetah", label, sub.Plan().Mode, sub.Plan().Reason)
		}
		appendInChunks(t, st, q.Table, 613)
		if err := sub.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if got := firstResult(sub); !want.Equal(got) {
			t.Errorf("%s: standing result diverges from direct", label)
		}
		db.Close()
	}
}
