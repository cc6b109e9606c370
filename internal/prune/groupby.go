package prune

import (
	"cheetah/internal/cache"
	"cheetah/internal/cacheline"
	"cheetah/internal/switchsim"
)

// GroupByConfig configures the GROUP BY (max/min aggregate) pruner.
// The paper offloads SELECT key, MAX(val) ... GROUP BY key by caching a
// running per-key maximum in a d×w keyed matrix (§4.3 HAVING's MAX/MIN
// path and the dedicated GROUP BY row of Table 2; default w=8).
type GroupByConfig struct {
	// Rows (d) and Cols (w) size the keyed matrix.
	Rows, Cols int
	// Min flips the aggregate to MIN (values are negated internally).
	Min bool
	// Seed drives key-to-row hashing.
	Seed uint64
}

// GroupBy prunes max/min GROUP BY queries: an entry whose value cannot
// improve its key's cached aggregate is dropped; improvements are
// forwarded (so the master's per-key max over forwarded entries equals
// the true max) and unknown keys are cached with rolling replacement.
type GroupBy struct {
	cfg    GroupByConfig
	matrix *cache.KeyedMax
	tally
}

// NewGroupBy builds the pruner.
func NewGroupBy(cfg GroupByConfig) (*GroupBy, error) {
	if err := validateDims("group-by", cfg.Rows, cfg.Cols); err != nil {
		return nil, err
	}
	m, err := cache.NewKeyedMax(cfg.Rows, cfg.Cols, cfg.Seed)
	if err != nil {
		return nil, err
	}
	p := cacheline.New[GroupBy]()
	*p = GroupBy{cfg: cfg, matrix: m}
	return p, nil
}

// Name implements Pruner.
func (p *GroupBy) Name() string {
	if p.cfg.Min {
		return "groupby-min"
	}
	return "groupby-max"
}

// Guarantee implements Pruner.
func (p *GroupBy) Guarantee() Guarantee { return Deterministic }

// Profile implements switchsim.Program with Table 2's GROUP BY row:
// w stages, w ALUs, d·w×64b SRAM.
func (p *GroupBy) Profile() switchsim.Profile {
	return switchsim.Profile{
		Name:         p.Name(),
		Stages:       p.cfg.Cols,
		ALUs:         p.cfg.Cols,
		SRAMBits:     p.matrix.MemoryBits(),
		MetadataBits: 64 + 64 + 32, // key fingerprint + value + row index
	}
}

// Process implements switchsim.Program. vals[0] is the (fingerprinted)
// group key, vals[1] the aggregate value as int64.
func (p *GroupBy) Process(vals []uint64) switchsim.Decision {
	p.stats.Processed++
	v := int64(vals[1])
	if p.cfg.Min {
		v = -v
	}
	if p.matrix.Offer(vals[0], v) {
		p.stats.Pruned++
		return switchsim.Prune
	}
	return switchsim.Forward
}

// Reset implements switchsim.Program.
func (p *GroupBy) Reset() {
	p.matrix.Reset()
	p.stats = Stats{}
}
