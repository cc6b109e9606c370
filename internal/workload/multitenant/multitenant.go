// Package multitenant is the multi-tenant query mix the serving,
// streaming and network tests share. One Mix holds the benchmark tables
// (UserVisits + Rankings) and deterministically derives, for any query
// index i, one of the eight offloadable query shapes with per-instance
// parameter jitter, plus the index's tenant and admission priority —
// many concurrent clients drawing from the same mix exercise every
// pruner family against the shared switches at once.
//
// It lives as a subpackage of workload because, unlike the raw table
// generators, the mix builds engine.Query values (engine's own tests
// consume the generators, so the parent package must not import engine).
package multitenant

import (
	"fmt"

	"cheetah/internal/boolexpr"
	"cheetah/internal/engine"
	"cheetah/internal/hashutil"
	"cheetah/internal/prune"
	"cheetah/internal/table"
	"cheetah/internal/workload"
)

// MixConfig shapes a multi-tenant query mix.
type MixConfig struct {
	// VisitRows sizes the UserVisits table (most kinds run over it).
	VisitRows int
	// RankRows sizes the Rankings table (the join's right side).
	RankRows int
	// Seed drives table generation and per-query parameter jitter.
	Seed uint64
}

// Mix is a deterministic multi-tenant workload: shared tables plus a
// query generator cycling through the eight kinds.
type Mix struct {
	Visits   *table.Table
	Rankings *table.Table
	cfg      MixConfig
}

// NewMix generates the mix's tables.
func NewMix(cfg MixConfig) (*Mix, error) {
	if cfg.VisitRows <= 0 || cfg.RankRows <= 0 {
		return nil, fmt.Errorf("workload: mix needs positive table sizes, got %d/%d", cfg.VisitRows, cfg.RankRows)
	}
	visits, err := workload.UserVisits(workload.DefaultUserVisits(cfg.VisitRows, cfg.Seed))
	if err != nil {
		return nil, err
	}
	return &Mix{
		Visits:   visits,
		Rankings: workload.Rankings(cfg.RankRows, cfg.Seed^0x5eed),
		cfg:      cfg,
	}, nil
}

// NumKinds is the number of distinct query shapes the mix cycles over.
const NumKinds = 8

// Query returns the i-th query of the mix: kind i mod 8, with
// parameters jittered per index so repeated cycles are not identical
// queries. The same (cfg, i) always yields the same query.
func (m *Mix) Query(i int) *engine.Query {
	jit := hashutil.SplitMix64(m.cfg.Seed ^ uint64(i)*0x9e3779b97f4a7c15)
	switch i % NumKinds {
	case 0: // FILTER: duration window scan
		lo := int64(jit % 300)
		return &engine.Query{
			Kind:  engine.KindFilter,
			Table: m.Visits,
			Predicates: []engine.FilterPred{
				{Col: "duration", Op: prune.OpGT, Const: lo},
				{Col: "adRevenue", Op: prune.OpLT, Const: 9_000},
			},
			Formula:   boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}},
			CountOnly: true,
		}
	case 1: // DISTINCT user agents
		return &engine.Query{
			Kind:         engine.KindDistinct,
			Table:        m.Visits,
			DistinctCols: []string{"userAgent"},
		}
	case 2: // TOP N ad revenues
		return &engine.Query{
			Kind:     engine.KindTopN,
			Table:    m.Visits,
			OrderCol: "adRevenue",
			N:        50 + int(jit%200),
		}
	case 3: // GROUP BY MAX revenue per agent
		return &engine.Query{
			Kind:   engine.KindGroupByMax,
			Table:  m.Visits,
			KeyCol: "userAgent",
			AggCol: "adRevenue",
		}
	case 4: // GROUP BY SUM revenue per country
		return &engine.Query{
			Kind:   engine.KindGroupBySum,
			Table:  m.Visits,
			KeyCol: "countryCode",
			AggCol: "adRevenue",
		}
	case 5: // HAVING: languages with heavy total duration
		return &engine.Query{
			Kind:      engine.KindHaving,
			Table:     m.Visits,
			KeyCol:    "languageCode",
			AggCol:    "duration",
			Threshold: int64(m.cfg.VisitRows),
		}
	case 6: // JOIN visits ⋈ rankings on URL
		return &engine.Query{
			Kind:     engine.KindJoin,
			Table:    m.Visits,
			Right:    m.Rankings,
			LeftKey:  "destURL",
			RightKey: "pageURL",
		}
	default: // SKYLINE over (adRevenue, duration)
		return &engine.Query{
			Kind:        engine.KindSkyline,
			Table:       m.Visits,
			SkylineCols: []string{"adRevenue", "duration"},
		}
	}
}

// NumTenants is the tenant population of the mix: query i belongs to
// tenant i mod NumTenants, so every tenant draws every query kind over
// a full cycle (kind and tenant indices are coprime walks: 8 kinds × 5
// tenants repeat only every 40 queries).
const NumTenants = 5

// Tenant returns the name of the tenant owning the i-th query.
func (m *Mix) Tenant(i int) string {
	return fmt.Sprintf("tenant-%d", i%NumTenants)
}

// Priority returns the i-th query's admission priority: tenant 0 is
// the premium tenant (priority 1), the rest are best-effort (priority
// 0). Serving layers admit higher priorities first within a queue.
func (m *Mix) Priority(i int) int {
	if i%NumTenants == 0 {
		return 1
	}
	return 0
}
