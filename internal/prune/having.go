package prune

import (
	"fmt"

	"cheetah/internal/cacheline"
	"cheetah/internal/sketch"
	"cheetah/internal/switchsim"
)

// HavingAgg selects the aggregate of a HAVING pruner.
type HavingAgg uint8

const (
	// HavingSum prunes SELECT key ... GROUP BY key HAVING SUM(val) > c.
	HavingSum HavingAgg = iota
	// HavingCount prunes ... HAVING COUNT(*) > c.
	HavingCount
)

// String renders the aggregate.
func (a HavingAgg) String() string {
	if a == HavingCount {
		return "COUNT"
	}
	return "SUM"
}

// HavingConfig configures the HAVING pruner (§4.3, Example #5).
type HavingConfig struct {
	// Agg is SUM or COUNT. (MAX/MIN HAVING reduces to the GROUP BY
	// pruner followed by a master-side filter and needs no sketch.)
	Agg HavingAgg
	// Threshold is c in HAVING f(key) > c.
	Threshold int64
	// Rows (d) and CountersPerRow (w) size the Count-Min sketch. Paper
	// defaults: d=3 rows, w=1024 counters (Table 2 swaps the letters:
	// "w=1024, d=3" with stages ⌈d/A⌉ and ALUs d — d there is the row
	// count, matching here).
	Rows, CountersPerRow int
	// Seed derives the sketch hash family.
	Seed uint64
	// ALUsPerStage is Table 2's A (0 selects DefaultALUsPerStage).
	ALUsPerStage int
}

// Having prunes HAVING SUM/COUNT(...) > c streams with a Count-Min
// sketch. Count-Min's one-sided error (estimate ≥ truth for non-negative
// updates) means pruning while the estimate is still ≤ c can never drop a
// key whose true aggregate exceeds c: once the key's aggregate crosses
// the threshold its later entries are forwarded, so the master receives a
// superset of the output keys and completes the query with a partial
// second pass (§4.3) to compute exact aggregates.
type Having struct {
	cfg HavingConfig
	cms *sketch.CountMin
	tally
}

// NewHaving builds the pruner.
func NewHaving(cfg HavingConfig) (*Having, error) {
	if cfg.Rows <= 0 || cfg.CountersPerRow <= 0 {
		return nil, fmt.Errorf("prune: having sketch %dx%d must be positive", cfg.Rows, cfg.CountersPerRow)
	}
	if cfg.Threshold < 0 {
		return nil, fmt.Errorf("prune: having threshold %d must be non-negative (SUM/COUNT < c is future work per §4.3)", cfg.Threshold)
	}
	if cfg.ALUsPerStage == 0 {
		cfg.ALUsPerStage = DefaultALUsPerStage
	}
	cms, err := sketch.NewCountMin(cfg.Rows, cfg.CountersPerRow, cfg.Seed)
	if err != nil {
		return nil, err
	}
	p := cacheline.New[Having]()
	*p = Having{cfg: cfg, cms: cms}
	return p, nil
}

// Name implements Pruner.
func (p *Having) Name() string { return "having-" + p.cfg.Agg.String() }

// Guarantee implements Pruner: one-sided sketch error affects pruning
// rate only, never correctness.
func (p *Having) Guarantee() Guarantee { return Deterministic }

// Profile implements switchsim.Program with Table 2's HAVING row:
// ⌈d/A⌉ stages, d ALUs, (d·w)×64b SRAM.
func (p *Having) Profile() switchsim.Profile {
	return switchsim.Profile{
		Name:         p.Name(),
		Stages:       ceilDiv(p.cfg.Rows, p.cfg.ALUsPerStage),
		ALUs:         p.cfg.Rows,
		SRAMBits:     p.cfg.Rows * p.cfg.CountersPerRow * 64,
		MetadataBits: 64 + 64 + 8,
	}
}

// Process implements switchsim.Program. vals[0] is the (fingerprinted)
// group key and vals[1] the summand, which COUNT ignores: every HAVING
// packet carries both.
func (p *Having) Process(vals []uint64) switchsim.Decision {
	p.stats.Processed++
	if p.FusedOffer(vals[0], int64(vals[1])) {
		p.stats.Pruned++
		return switchsim.Prune
	}
	return switchsim.Forward
}

// Reset implements switchsim.Program.
func (p *Having) Reset() {
	p.cms.Reset()
	p.stats = Stats{}
}

// Estimate exposes the sketch estimate for a key; the master-side second
// pass uses it in tests to cross-check the one-sided property.
func (p *Having) Estimate(key uint64) int64 { return p.cms.Estimate(key) }
