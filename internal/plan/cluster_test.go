package plan

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"cheetah/internal/engine"
	"cheetah/internal/obs"
	"cheetah/internal/prune"
	"cheetah/internal/table"
	"cheetah/internal/workload"
)

// rackCases opens sessions with opts over small tables and returns one
// query builder per kind that rides the rack — every kind but GROUP BY
// SUM.
func rackCases(t *testing.T, opts Options) []equivCase {
	t.Helper()
	uv, err := workload.UserVisits(workload.DefaultUserVisits(400, 5))
	if err != nil {
		t.Fatal(err)
	}
	rk := workload.Rankings(300, 6)
	orders, lineitem, err := workload.TPCHQ3(60, 7)
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
			WhereLike("userAgent", "agent/0_%")},
		{"distinct", sUV, sUV.Select().Distinct("userAgent")},
		{"topn", sUV, sUV.Select().TopN("adRevenue", 20)},
		{"groupby-max", sUV, sUV.Select().GroupByMax("languageCode", "adRevenue")},
		{"having", sUV, sUV.Select().GroupBySum("languageCode", "duration").Having(400)},
		{"join", sOrd, sOrd.Select().Join(lineitem, "o_orderkey", "l_orderkey")},
		{"skyline", sRK, sRK.Select().Skyline("pageRank", "avgDuration")},
	}
}

// TestClusterRackExact drives the seven kinds through Session.Exec over
// racks at three loss rates and two fabric widths. The rack changes how
// entries travel, never what a switch decides or how the master completes:
// Results equal ExecDirect, and with one worker flow per rack each switch
// sees the in-process chunked arrival order, so the programs' Stats equal
// the in-process chunked run's at every loss rate, and on a clean link so
// does all of Traffic. Loss only adds deliveries — retransmissions of
// entries the switch had pruned — and the first-pass entries sent never
// change.
func TestClusterRackExact(t *testing.T) {
	ctx := context.Background()
	for _, loss := range []float64{0, 0.01, 0.10} {
		// A clean link needs no timer, and a long one cannot fire early on
		// a loaded machine and forward a pruned entry's retransmission.
		rto := time.Second
		if loss > 0 {
			rto = 3 * time.Millisecond
		}
		for _, k := range []int{1, 2} {
			opts := Options{Workers: 1, Seed: 3, Switches: k, UseCluster: true, LossRate: loss, RTO: rto}
			retrans := uint64(0)
			for _, c := range rackCases(t, opts) {
				label := fmt.Sprintf("loss=%v k=%d %s", loss, k, c.label)
				p, err := c.b.Plan()
				if err != nil {
					t.Fatal(err)
				}
				if p.Mode != ModeCluster {
					t.Fatalf("%s: planned %v (%s), want cluster", label, p.Mode, p.Reason)
				}
				ex, err := c.s.ExecPlan(ctx, p)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if want, _ := engine.ExecDirect(p.Query); !want.Equal(ex.Result) {
					t.Errorf("%s: diverges from direct", label)
				}
				progs, err := p.NewShardPruners()
				if err != nil {
					t.Fatal(err)
				}
				ref, err := engine.ExecSharded(p.Query, engine.ShardedOptions{
					Shards: k, Workers: p.Workers, Seed: p.Seed, Skip: p.Skip, Pruners: progs, NoFuse: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if ex.Stats != ref.Stats {
					t.Errorf("%s: stats %+v, in process %+v", label, ex.Stats, ref.Stats)
				}
				got, want := ex.Traffic, ref.Traffic
				if got.EntriesSent-got.SecondPassSent != want.EntriesSent-want.SecondPassSent {
					t.Errorf("%s: first-pass entries sent %d, in process %d", label,
						got.EntriesSent-got.SecondPassSent, want.EntriesSent-want.SecondPassSent)
				}
				if loss == 0 && got != want {
					t.Errorf("%s: clean-link traffic %+v, in process %+v", label, got, want)
				}
				// Every forward but SKYLINE's control-plane drain crossed the
				// rack's switch, at most once per stored point per switch.
				drained := 0
				if p.Query.Kind == engine.KindSkyline {
					drained = k * prune.DefaultSkylineConfig(2).Points
				}
				rep := ex.ClusterReport
				if rep == nil || int(rep.Delivered) < got.Forwarded-drained {
					t.Fatalf("%s: report %+v against %d forwarded", label, rep, got.Forwarded)
				}
				retrans += rep.Retransmissions
			}
			if loss >= 0.1 && retrans == 0 {
				t.Errorf("loss=%v k=%d: no retransmissions across the kinds", loss, k)
			}
		}
	}
}

// TestClusterDeadLinkDegrades: a link that loses everything costs each
// rack its switch, not the query. Every shard's pass is discarded and
// redone on the master-side backstop, and the result is exact.
func TestClusterDeadLinkDegrades(t *testing.T) {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(300, 9))
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	s, err := Open(uv, Options{Workers: 2, Seed: 1, Switches: k, UseCluster: true, LossRate: 1, RTO: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*Builder{
		s.Select().Where("duration", prune.OpGT, 50),
		s.Select().Distinct("userAgent"),
	} {
		ex, err := b.Exec(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := engine.ExecDirect(ex.Plan.Query); !want.Equal(ex.Result) {
			t.Fatalf("%v over dead links diverges from direct", ex.Plan.Query.Kind)
		}
		degraded := 0
		for _, sp := range planStages(ex)[obs.StageShard] {
			if strings.Contains(sp.Note, "degraded") {
				degraded++
			}
		}
		if degraded != k {
			t.Fatalf("%v: %d shard passes on the backstop, want %d:\n%s", ex.Plan.Query.Kind, degraded, k, ex.Trace())
		}
	}
}
