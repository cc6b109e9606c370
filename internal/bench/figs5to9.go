package bench

import (
	"fmt"
	"io"

	"cheetah/internal/boolexpr"
	"cheetah/internal/engine"
	"cheetah/internal/prune"
	"cheetah/internal/workload"
)

// paper-scale dataset sizes (§8.1–8.2).
const (
	userVisitsRows = 31_700_000
	rankingsRows   = 18_000_000
	tpchOrders     = 1_500_000
)

// fig5Workload bundles one bar group's query and its measured traffic.
type fig5Workload struct {
	label   string
	kind    engine.QueryKind
	workers int
	run     func(o Options) (*engine.ShardedRun, int, error) // run → (traffic, paper-scale rows)
}

// buildTables constructs the scaled benchmark tables once per invocation.
func buildTables(o Options) (uv, rank *engine.Query, orders, lineitem *engine.Query, err error) {
	uvRows := userVisitsRows / o.Scale
	if uvRows < 1000 {
		uvRows = 1000
	}
	uvT, err := workload.UserVisits(workload.DefaultUserVisits(uvRows, o.BaseSeed))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	rankRows := rankingsRows / o.Scale
	if rankRows < 1000 {
		rankRows = 1000
	}
	rankT := workload.Rankings(rankRows, o.BaseSeed+1)
	// "As the data is nearly sorted on the filtered column, we run the
	// query on a random permutation of the table."
	if err := rankT.Shuffle(o.BaseSeed + 2); err != nil {
		return nil, nil, nil, nil, err
	}
	oRows := tpchOrders / o.Scale
	if oRows < 500 {
		oRows = 500
	}
	oT, lT, err := workload.TPCHQ3(oRows, o.BaseSeed+3)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return &engine.Query{Table: uvT}, &engine.Query{Table: rankT},
		&engine.Query{Table: oT}, &engine.Query{Table: lT}, nil
}

// Fig5 regenerates the completion-time comparison: Spark (1st run),
// Spark (subsequent) and Cheetah across the benchmark workloads.
func Fig5(w io.Writer, o Options) (*BarChart, error) {
	o = o.withDefaults()
	uvQ, rankQ, oQ, lQ, err := buildTables(o)
	if err != nil {
		return nil, err
	}
	uv, rank, ordersT, lineitemT := uvQ.Table, rankQ.Table, oQ.Table, lQ.Table
	cm := engine.DefaultCostModel()

	type spec struct {
		label   string
		q       *engine.Query
		workers int
		result  int // representative result entries for the Spark transfer
	}
	specs := []spec{
		{"BigData A", &engine.Query{
			Kind: engine.KindFilter, Table: rank,
			Predicates: []engine.FilterPred{{Col: "avgDuration", Op: prune.OpLT, Const: 10}},
			Formula:    boolexpr.Leaf{V: 0}, CountOnly: true,
		}, 5, 1},
		{"BigData B", &engine.Query{
			Kind: engine.KindGroupBySum, Table: uv, KeyCol: "languageCode", AggCol: "adRevenue",
		}, 5, 100},
		{"TPC-H Q3", &engine.Query{
			Kind: engine.KindJoin, Table: ordersT, Right: lineitemT,
			LeftKey: "o_orderkey", RightKey: "l_orderkey",
		}, 1, tpchOrders / o.Scale},
		{"Distinct", &engine.Query{
			Kind: engine.KindDistinct, Table: uv, DistinctCols: []string{"userAgent"},
		}, 5, 8192},
		{"GroupBy (Max)", &engine.Query{
			Kind: engine.KindGroupByMax, Table: uv, KeyCol: "userAgent", AggCol: "adRevenue",
		}, 5, 8192},
		{"Skyline", &engine.Query{
			Kind: engine.KindSkyline, Table: rank, SkylineCols: []string{"pageRank", "avgDuration"},
		}, 5, 50},
		{"Top-N", &engine.Query{
			Kind: engine.KindTopN, Table: uv, OrderCol: "adRevenue", N: 250,
		}, 5, 250},
		{"Join", &engine.Query{
			Kind: engine.KindJoin, Table: uv, Right: rank,
			LeftKey: "destURL", RightKey: "pageURL",
		}, 5, uv.NumRows() / 10},
	}

	chart := &BarChart{
		ID:     "fig5",
		Title:  "completion time, Big Data benchmark + per-algorithm queries",
		YLabel: "seconds",
		Order:  []string{"Spark (1st run)", "Spark", "Cheetah"},
	}
	var aPlusB *BarGroup
	for _, s := range specs {
		run, err := engine.ExecCheetah(s.q, engine.CheetahOptions{Workers: s.workers, Seed: o.BaseSeed})
		if err != nil {
			return nil, err
		}
		// Extrapolate traffic counts to paper scale; pruning fractions
		// stay as measured.
		tr := run.Traffic
		tr.EntriesSent *= o.Scale
		tr.Forwarded *= o.Scale
		tr.SecondPassSent *= o.Scale
		tr.MasterProcessed *= o.Scale
		perWorker := make([]int, s.workers)
		taskRows := s.q.Table.NumRows()
		if s.q.Kind == engine.KindJoin {
			taskRows += s.q.Right.NumRows()
		}
		for i := range perWorker {
			perWorker[i] = taskRows * o.Scale / s.workers
		}
		group := BarGroup{Label: s.label, Bars: map[string]float64{
			"Spark (1st run)": cm.SparkTime(s.q.Kind, perWorker, s.result*o.Scale, true, 10).Total(),
			"Spark":           cm.SparkTime(s.q.Kind, perWorker, s.result*o.Scale, false, 10).Total(),
			"Cheetah":         cm.CheetahTime(s.q.Kind, tr, 10).Total(),
		}}
		chart.Groups = append(chart.Groups, group)
		if s.label == "BigData B" {
			// A+B shares the serialization pass (§8.2.1): the combined
			// query streams the table once with the filter packed beside
			// the group-by (§6), so Cheetah's A+B ≈ B plus the master's A
			// work; Spark runs the two queries back to back.
			a := chart.Groups[0]
			combined := BarGroup{Label: "BigData A+B", Bars: map[string]float64{}}
			for _, k := range chart.Order {
				if k == "Cheetah" {
					combined.Bars[k] = group.Bars[k] + 0.15*a.Bars[k]
				} else {
					combined.Bars[k] = a.Bars[k] + group.Bars[k] - cm.JobOverheadSeconds
				}
			}
			aPlusB = &combined
		}
	}
	if aPlusB != nil {
		// Insert A+B after BigData B.
		groups := make([]BarGroup, 0, len(chart.Groups)+1)
		for _, g := range chart.Groups {
			groups = append(groups, g)
			if g.Label == "BigData B" {
				groups = append(groups, *aPlusB)
			}
		}
		chart.Groups = groups
	}
	if w != nil {
		if _, err := chart.WriteTo(w); err != nil {
			return nil, err
		}
	}
	return chart, nil
}

// Fig6 regenerates the data-scale and worker-count sweeps on DISTINCT.
func Fig6(w io.Writer, o Options) (*Figure, *Figure, error) {
	o = o.withDefaults()
	cm := engine.DefaultCostModel()

	// (a) fixed total entries, 1..5 workers.
	const totalA = 30_000_000
	rowsA := totalA / o.Scale
	uvA, err := workload.UserVisits(workload.DefaultUserVisits(rowsA, o.BaseSeed+10))
	if err != nil {
		return nil, nil, err
	}
	qA := &engine.Query{Kind: engine.KindDistinct, Table: uvA, DistinctCols: []string{"userAgent"}}
	figA := &Figure{ID: "fig6a", Title: "DISTINCT, fixed 30M entries", XLabel: "workers", YLabel: "seconds"}
	var sparkA, cheetahA Series
	sparkA.Name, cheetahA.Name = "Spark", "Cheetah"
	for workers := 1; workers <= 5; workers++ {
		run, err := engine.ExecCheetah(qA, engine.CheetahOptions{Workers: workers, Seed: o.BaseSeed})
		if err != nil {
			return nil, nil, err
		}
		tr := run.Traffic
		tr.EntriesSent *= o.Scale
		tr.Forwarded *= o.Scale
		tr.MasterProcessed *= o.Scale
		perWorker := make([]int, workers)
		for i := range perWorker {
			perWorker[i] = totalA / workers
		}
		x := float64(workers)
		sparkA.X = append(sparkA.X, x)
		sparkA.Y = append(sparkA.Y, cm.SparkTime(engine.KindDistinct, perWorker, 8192, false, 10).Total())
		cheetahA.X = append(cheetahA.X, x)
		cheetahA.Y = append(cheetahA.Y, cm.CheetahTime(engine.KindDistinct, tr, 10).Total())
	}
	figA.Series = []Series{cheetahA, sparkA}

	// (b) 5 workers, 10/20/30M entries.
	figB := &Figure{ID: "fig6b", Title: "DISTINCT, 5 workers", XLabel: "entries", YLabel: "seconds"}
	var sparkB, cheetahB Series
	sparkB.Name, cheetahB.Name = "Spark", "Cheetah"
	for _, total := range []int{10_000_000, 20_000_000, 30_000_000} {
		rows := total / o.Scale
		uv, err := workload.UserVisits(workload.DefaultUserVisits(rows, o.BaseSeed+20))
		if err != nil {
			return nil, nil, err
		}
		q := &engine.Query{Kind: engine.KindDistinct, Table: uv, DistinctCols: []string{"userAgent"}}
		run, err := engine.ExecCheetah(q, engine.CheetahOptions{Workers: 5, Seed: o.BaseSeed})
		if err != nil {
			return nil, nil, err
		}
		tr := run.Traffic
		tr.EntriesSent *= o.Scale
		tr.Forwarded *= o.Scale
		tr.MasterProcessed *= o.Scale
		perWorker := []int{total / 5, total / 5, total / 5, total / 5, total / 5}
		x := float64(total)
		sparkB.X = append(sparkB.X, x)
		sparkB.Y = append(sparkB.Y, cm.SparkTime(engine.KindDistinct, perWorker, 8192, false, 10).Total())
		cheetahB.X = append(cheetahB.X, x)
		cheetahB.Y = append(cheetahB.Y, cm.CheetahTime(engine.KindDistinct, tr, 10).Total())
	}
	figB.Series = []Series{cheetahB, sparkB}

	if w != nil {
		if _, err := figA.WriteTo(w); err != nil {
			return nil, nil, err
		}
		fmt.Fprintln(w)
		if _, err := figB.WriteTo(w); err != nil {
			return nil, nil, err
		}
	}
	return figA, figB, nil
}

// Fig7 regenerates the NetAccel drain-overhead comparison on TPC-H Q3's
// order-key join: result sizes from 1% to 40% of the input.
func Fig7(w io.Writer, o Options) (*Figure, error) {
	o = o.withDefaults()
	cm := engine.DefaultCostModel()
	input := tpchOrders
	fig := &Figure{
		ID: "fig7", Title: "overhead of moving results off the switch (TPC-H Q3 order-key join)",
		XLabel: "result size (% input)", YLabel: "seconds",
	}
	var cheetah, netaccel Series
	cheetah.Name, netaccel.Name = "Cheetah", "NetAccel lower bound"
	for pct := 1; pct <= 40; pct += 3 {
		result := input * pct / 100
		cheetah.X = append(cheetah.X, float64(pct))
		cheetah.Y = append(cheetah.Y, cm.CheetahResultMoveTime(result, 10))
		netaccel.X = append(netaccel.X, float64(pct))
		netaccel.Y = append(netaccel.Y, cm.NetAccelDrainTime(result))
	}
	fig.Series = []Series{cheetah, netaccel}
	if w != nil {
		if _, err := fig.WriteTo(w); err != nil {
			return nil, err
		}
	}
	return fig, nil
}

// Fig8 regenerates the delay breakdown (computation / network / other)
// for Spark, Cheetah at 10G and Cheetah at 20G on Distinct and Group-By.
func Fig8(w io.Writer, o Options) (*BarChart, error) {
	o = o.withDefaults()
	cm := engine.DefaultCostModel()
	rows := userVisitsRows / o.Scale
	if rows < 1000 {
		rows = 1000
	}
	uv, err := workload.UserVisits(workload.DefaultUserVisits(rows, o.BaseSeed+30))
	if err != nil {
		return nil, err
	}
	chart := &BarChart{
		ID: "fig8", Title: "delay breakdown by network rate",
		YLabel: "seconds",
		Order:  []string{"Computation", "Network", "Other", "Total"},
	}
	queries := []struct {
		label string
		q     *engine.Query
	}{
		{"Distinct", &engine.Query{Kind: engine.KindDistinct, Table: uv, DistinctCols: []string{"userAgent"}}},
		{"Group-By", &engine.Query{Kind: engine.KindGroupByMax, Table: uv, KeyCol: "userAgent", AggCol: "adRevenue"}},
	}
	for _, spec := range queries {
		run, err := engine.ExecCheetah(spec.q, engine.CheetahOptions{Workers: 5, Seed: o.BaseSeed})
		if err != nil {
			return nil, err
		}
		tr := run.Traffic
		tr.EntriesSent *= o.Scale
		tr.Forwarded *= o.Scale
		tr.MasterProcessed *= o.Scale
		perWorker := []int{rows * o.Scale / 5, rows * o.Scale / 5, rows * o.Scale / 5, rows * o.Scale / 5, rows * o.Scale / 5}
		sp := cm.SparkTime(spec.q.Kind, perWorker, 8192, false, 10)
		c10 := cm.CheetahTime(spec.q.Kind, tr, 10)
		c20 := cm.CheetahTime(spec.q.Kind, tr, 20)
		add := func(label string, b engine.Breakdown) {
			chart.Groups = append(chart.Groups, BarGroup{
				Label: spec.label + " / " + label,
				Bars: map[string]float64{
					"Computation": b.Computation,
					"Network":     b.Network,
					"Other":       b.Other,
					"Total":       b.Total(),
				},
			})
		}
		add("Spark", sp)
		add("Cheetah 10G", c10)
		add("Cheetah 20G", c20)
	}
	if w != nil {
		if _, err := chart.WriteTo(w); err != nil {
			return nil, err
		}
	}
	return chart, nil
}

// Fig9 regenerates the blocking-master-latency curves for TOP N,
// DISTINCT and max-GROUP BY as a function of the unpruned fraction.
func Fig9(w io.Writer, o Options) (*Figure, error) {
	o = o.withDefaults()
	cm := engine.DefaultCostModel()
	fig := &Figure{
		ID: "fig9", Title: "blocking master latency vs unpruned fraction",
		XLabel: "unpruned fraction", YLabel: "seconds",
	}
	kinds := []struct {
		name string
		kind engine.QueryKind
	}{
		{"Top N", engine.KindTopN},
		{"Distinct", engine.KindDistinct},
		{"Max Group-By", engine.KindGroupByMax},
	}
	for _, k := range kinds {
		s := Series{Name: k.name}
		for u := 0.05; u <= 0.501; u += 0.05 {
			s.X = append(s.X, u)
			s.Y = append(s.Y, cm.MasterBlockingLatency(k.kind, userVisitsRows, u, 10))
		}
		fig.Series = append(fig.Series, s)
	}
	if w != nil {
		if _, err := fig.WriteTo(w); err != nil {
			return nil, err
		}
	}
	return fig, nil
}
