package bench

// The trace target (cheetah-bench -trace) prints measured execution
// span trees: each of the eight mix kinds runs once per execution path
// — the planner's choice at one switch, the same sharded across the
// fabric, and forced exact direct — and each execution's ExplainAnalyze
// is printed: the plan banner plus the lifecycle trace (plan, skip, one
// shard span per switch pass noted fused or chunked, merge; scan when
// direct) with wall-clock durations and entry counts. This is the human entry point to the
// internal/obs tracing the serving stack records on every query.

import (
	"context"
	"fmt"
	"io"

	"cheetah/internal/plan"
	"cheetah/internal/workload/multitenant"
)

// Trace renders ExplainAnalyze span trees for the whole kind × path
// matrix.
func Trace(w io.Writer, o Options, switches int) error {
	o = o.withDefaults()
	uvRows := userVisitsRows / o.Scale
	if uvRows < 2000 {
		uvRows = 2000
	}
	rankRows := rankingsRows / o.Scale
	if rankRows < 1000 {
		rankRows = 1000
	}
	mix, err := multitenant.NewMix(multitenant.MixConfig{
		VisitRows: uvRows, RankRows: rankRows, Seed: o.BaseSeed,
	})
	if err != nil {
		return err
	}
	if switches < 2 {
		switches = 2
	}
	single, err := plan.Open(mix.Visits, plan.Options{Workers: 1, Seed: o.BaseSeed})
	if err != nil {
		return err
	}
	sharded, err := plan.Open(mix.Visits, plan.Options{Workers: 1, Seed: o.BaseSeed, Switches: switches})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "execution traces: %d kinds × 3 paths, visits=%d rows, rankings=%d rows\n",
		multitenant.NumKinds, uvRows, rankRows)
	ctx := context.Background()
	for i := 0; i < multitenant.NumKinds; i++ {
		q := mix.Query(i)
		fmt.Fprintf(w, "\n===== %v =====\n", q.Kind)
		paths := []struct {
			name string
			run  func() (*plan.Execution, error)
		}{
			{"single-switch (planner's choice)", func() (*plan.Execution, error) {
				return single.Exec(ctx, q)
			}},
			{fmt.Sprintf("sharded ×%d", switches), func() (*plan.Execution, error) {
				return sharded.Exec(ctx, q)
			}},
			{"forced direct (exact reference)", func() (*plan.Execution, error) {
				return single.ExecPlan(ctx, &plan.Plan{
					Query:    q,
					Mode:     plan.ModeDirect,
					Model:    single.Model(),
					Workers:  1,
					Switches: 1,
					Reason:   "trace target: forced exact direct execution",
				})
			}},
		}
		for _, p := range paths {
			ex, err := p.run()
			if err != nil {
				return fmt.Errorf("%v %s: %w", q.Kind, p.name, err)
			}
			fmt.Fprintf(w, "\n--- %s ---\n%s", p.name, ex.ExplainAnalyze())
		}
	}
	return nil
}
