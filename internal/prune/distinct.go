package prune

import (
	"fmt"
	"math"

	"cheetah/internal/cache"
	"cheetah/internal/cacheline"
	"cheetah/internal/sketch"
	"cheetah/internal/switchsim"
)

// DistinctConfig configures the DISTINCT pruner (§4.2, Example #2).
type DistinctConfig struct {
	// Rows (d) and Cols (w) size the cache matrix. Paper defaults:
	// d=4096, w=2 (Table 2).
	Rows, Cols int
	// Policy selects FIFO (cheaper, Table 2's starred row) or LRU
	// replacement.
	Policy cache.Policy
	// FingerprintBits, when non-zero, declares that CWorkers send
	// fingerprints of this length instead of raw values (Example #8).
	// It only affects the guarantee classification and the metadata
	// accounting; values arriving at Process are already fingerprinted.
	FingerprintBits uint
	// Seed drives row selection.
	Seed uint64
	// ALUsPerStage is Table 2's A (0 selects DefaultALUsPerStage).
	ALUsPerStage int
}

// Distinct is the DISTINCT pruner: a d×w matrix of per-row caches with
// rolling replacement. A value found in its row is a guaranteed duplicate
// and is pruned; cache misses (including evicted re-appearances — the
// false negatives) are forwarded for the master to deduplicate.
type Distinct struct {
	cfg    DistinctConfig
	matrix *cache.Matrix
	tally
}

// NewDistinct builds the pruner.
func NewDistinct(cfg DistinctConfig) (*Distinct, error) {
	if err := validateDims("distinct", cfg.Rows, cfg.Cols); err != nil {
		return nil, err
	}
	if cfg.FingerprintBits > 64 {
		return nil, fmt.Errorf("prune: distinct fingerprint bits %d > 64", cfg.FingerprintBits)
	}
	if cfg.ALUsPerStage == 0 {
		cfg.ALUsPerStage = DefaultALUsPerStage
	}
	if cfg.ALUsPerStage < 0 {
		return nil, fmt.Errorf("prune: distinct ALUs per stage %d must be positive", cfg.ALUsPerStage)
	}
	m, err := cache.NewMatrix(cfg.Rows, cfg.Cols, cfg.Policy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	p := cacheline.New[Distinct]()
	*p = Distinct{cfg: cfg, matrix: m}
	return p, nil
}

// Name implements Pruner.
func (p *Distinct) Name() string { return "distinct-" + p.cfg.Policy.String() }

// Guarantee implements Pruner: exact values give a deterministic
// guarantee; fingerprinting makes the result correct with probability
// 1-δ per Theorem 4.
func (p *Distinct) Guarantee() Guarantee {
	if p.cfg.FingerprintBits > 0 {
		return Randomized
	}
	return Deterministic
}

// Profile implements switchsim.Program with Table 2's DISTINCT row:
// FIFO packs ⌈w/A⌉ stages (same-stage ALUs share the row memory), LRU
// needs a stage per column; both use w ALUs and (d·w)×64b SRAM.
func (p *Distinct) Profile() switchsim.Profile {
	stages := p.cfg.Cols
	shared := false
	if p.cfg.Policy == cache.FIFO {
		stages = ceilDiv(p.cfg.Cols, p.cfg.ALUsPerStage)
		shared = true
	}
	return switchsim.Profile{
		Name:              p.Name(),
		Stages:            stages,
		ALUs:              p.cfg.Cols,
		SRAMBits:          p.matrix.MemoryBits(),
		MetadataBits:      64 + 32, // value/fingerprint + row index
		SharedStageMemory: shared,
	}
}

// Process implements switchsim.Program. vals[0] carries the (possibly
// fingerprinted) DISTINCT key.
func (p *Distinct) Process(vals []uint64) switchsim.Decision {
	p.stats.Processed++
	if p.matrix.Insert(vals[0]) {
		p.stats.Pruned++
		return switchsim.Prune
	}
	return switchsim.Forward
}

// Reset implements switchsim.Program.
func (p *Distinct) Reset() {
	p.matrix.Reset()
	p.stats = Stats{}
}

// ExpectedDistinctPruneFraction is Theorem 1's lower bound on the
// expected fraction of duplicate entries pruned on a random-order stream
// with D distinct values: 0.99·min(w·d/(D·e), 1), valid for
// D > d·ln(200d).
func ExpectedDistinctPruneFraction(distinct, d, w int) float64 {
	if distinct <= 0 || d <= 0 || w <= 0 {
		return 0
	}
	frac := float64(w) * float64(d) / (float64(distinct) * math.E)
	if frac > 1 {
		frac = 1
	}
	return 0.99 * frac
}

// DistinctFingerprintBits sizes fingerprints for a DISTINCT query per
// Theorem 4 given the expected distinct count, row count and error budget.
func DistinctFingerprintBits(distinct, d int, delta float64) (uint, error) {
	return sketch.FingerprintBits(distinct, d, delta)
}
