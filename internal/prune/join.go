package prune

import (
	"fmt"

	"cheetah/internal/cacheline"
	"cheetah/internal/sketch"
	"cheetah/internal/switchsim"
)

// JoinSide identifies which table an entry belongs to.
type JoinSide uint64

const (
	// SideA is the left join input.
	SideA JoinSide = 0
	// SideB is the right join input.
	SideB JoinSide = 1
)

// JoinPhase is the pruner's streaming phase (§4.3, Example #4: "we
// propose to send the data through the switch with two passes").
type JoinPhase uint8

const (
	// PhaseBuild is the first pass: the key columns of both tables stream
	// through and populate the Bloom filters; the packets themselves are
	// consumed by the switch (pruned and ACKed).
	PhaseBuild JoinPhase = iota
	// PhaseProbe is the second pass: entries are pruned when the *other*
	// table's filter reports no match.
	PhaseProbe
)

// JoinFilterKind selects the membership structure.
type JoinFilterKind uint8

const (
	// BloomFilter is the standard M-bit, H-hash filter (Table 2 "BF*").
	BloomFilter JoinFilterKind = iota
	// RegisterBloomFilter is the single-stage blocked variant ("RBF").
	RegisterBloomFilter
)

// String renders the kind.
func (k JoinFilterKind) String() string {
	if k == RegisterBloomFilter {
		return "RBF"
	}
	return "BF"
}

// JoinConfig configures the JOIN pruner.
type JoinConfig struct {
	// FilterBits (M) is each filter's size in bits. Paper default: 4 MB.
	FilterBits int
	// Hashes (H) is the hash count. Paper default: 3.
	Hashes int
	// Kind picks BF or RBF.
	Kind JoinFilterKind
	// Asymmetric enables the small-table optimization: the build pass
	// streams only side A (the small table) *without pruning it* while
	// populating its filter, and the probe pass prunes side B against it.
	Asymmetric bool
	// Seed derives the filter hash families.
	Seed uint64
}

// Join prunes INNER JOIN streams with two Bloom filters and two passes.
// False positives cost pruning rate only; Bloom filters have no false
// negatives, so no matching entry is ever dropped — the guarantee stays
// deterministic.
type Join struct {
	cfg   JoinConfig
	fa    sketch.Membership
	fb    sketch.Membership
	phase JoinPhase
	tally
}

// NewJoin builds the pruner in PhaseBuild.
func NewJoin(cfg JoinConfig) (*Join, error) {
	if cfg.FilterBits <= 0 {
		return nil, fmt.Errorf("prune: join filter bits %d must be positive", cfg.FilterBits)
	}
	if cfg.Hashes <= 0 {
		return nil, fmt.Errorf("prune: join hash count %d must be positive", cfg.Hashes)
	}
	mk := func(seed uint64) (sketch.Membership, error) {
		if cfg.Kind == RegisterBloomFilter {
			return sketch.NewRegisterBloom(cfg.FilterBits, cfg.Hashes, seed)
		}
		return sketch.NewBloom(cfg.FilterBits, cfg.Hashes, seed)
	}
	fa, err := mk(cfg.Seed ^ 0xa)
	if err != nil {
		return nil, err
	}
	fb, err := mk(cfg.Seed ^ 0xb)
	if err != nil {
		return nil, err
	}
	p := cacheline.New[Join]()
	*p = Join{cfg: cfg, fa: fa, fb: fb}
	return p, nil
}

// Name implements Pruner.
func (p *Join) Name() string { return "join-" + p.cfg.Kind.String() }

// Guarantee implements Pruner.
func (p *Join) Guarantee() Guarantee { return Deterministic }

// Profile implements switchsim.Program with Table 2's JOIN rows: the BF
// uses 2 logical stages and H ALUs over M bits (same-stage ALUs share the
// filter memory); the RBF folds membership into one stage and one ALU at
// the cost of ⌈64/H⌉ extra spill registers.
func (p *Join) Profile() switchsim.Profile {
	if p.cfg.Kind == RegisterBloomFilter {
		// Table 2 lists the per-filter cost (1 stage, 1 ALU, M bits);
		// a join carries two filters, one physical stage each.
		return switchsim.Profile{
			Name:         p.Name(),
			Stages:       2,
			ALUs:         2,
			SRAMBits:     2*p.cfg.FilterBits + ceilDiv(64, p.cfg.Hashes)*64,
			MetadataBits: 64 + 8,
		}
	}
	return switchsim.Profile{
		Name:              p.Name(),
		Stages:            2,
		ALUs:              p.cfg.Hashes,
		SRAMBits:          2 * p.cfg.FilterBits,
		MetadataBits:      64 + 8,
		SharedStageMemory: true,
	}
}

// Asymmetric reports whether the small-table optimization is active.
func (p *Join) Asymmetric() bool { return p.cfg.Asymmetric }

// Phase returns the current streaming phase.
func (p *Join) Phase() JoinPhase { return p.phase }

// StartProbe transitions to the probe pass. The control plane flips this
// bit between the two data movements.
func (p *Join) StartProbe() { p.phase = PhaseProbe }

// Process implements switchsim.Program. vals[0] is the side (SideA or
// SideB) and vals[1] the (fingerprinted) join key.
func (p *Join) Process(vals []uint64) switchsim.Decision {
	p.stats.Processed++
	side := JoinSide(vals[0])
	key := vals[1]
	if p.phase == PhaseBuild {
		if p.cfg.Asymmetric {
			// Only the small table (side A) streams in the build pass,
			// and it is forwarded unpruned — the master gets it for free
			// while the filter trains.
			p.fa.Add(key)
			return switchsim.Forward
		}
		if side == SideA {
			p.fa.Add(key)
		} else {
			p.fb.Add(key)
		}
		// Build-pass packets terminate at the switch: prune + ACK.
		p.stats.Pruned++
		return switchsim.Prune
	}
	// Probe pass.
	if p.cfg.Asymmetric {
		// Only side B streams; prune when the small table lacks the key.
		if !p.fa.Contains(key) {
			p.stats.Pruned++
			return switchsim.Prune
		}
		return switchsim.Forward
	}
	other := p.fb
	if side == SideB {
		other = p.fa
	}
	if !other.Contains(key) {
		p.stats.Pruned++
		return switchsim.Prune
	}
	return switchsim.Forward
}

// Reset implements switchsim.Program.
func (p *Join) Reset() {
	p.fa.Reset()
	p.fb.Reset()
	p.phase = PhaseBuild
	p.stats = Stats{}
}
