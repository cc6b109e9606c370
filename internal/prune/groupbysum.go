package prune

import (
	"cheetah/internal/cacheline"
	"cheetah/internal/hashutil"
	"cheetah/internal/switchsim"
)

// Drainer is implemented by pruners that hold switch state the master
// must receive at end-of-stream (SKYLINE's stored points, GROUP BY SUM's
// partial aggregates). The control plane reads and clears the state when
// all workers have sent FIN.
type Drainer interface {
	Drain() [][]uint64
}

// GroupBySumConfig configures the SUM GROUP BY offload used for the
// BigData benchmark's query B (§6): the switch keeps d×w (key, partial
// sum) pairs; entries matching a cached key are absorbed (summed and
// pruned); evictions emit the displaced aggregate toward the master; the
// residue drains at end-of-stream.
type GroupBySumConfig struct {
	// Rows (d) and Cols (w) size the aggregation matrix.
	Rows, Cols int
	// Seed drives key-to-row hashing.
	Seed uint64
}

// GroupBySum is the in-switch partial-aggregation pruner. Correctness is
// conservation: every entry's value is accounted exactly once, either in
// a still-cached partial sum (drained at FIN) or in an emitted aggregate
// packet, so the master's per-key totals equal the true sums.
type GroupBySum struct {
	cfg     GroupBySumConfig
	rowSeed uint64 // SplitMix64(cfg.Seed): the seed half of the row hash
	keys    []uint64
	sums    []int64
	used    []bool
	held    int      // slots in use
	emit    []uint64 // scratch for the emitted (key, sum) pair
	tally
}

// NewGroupBySum builds the pruner.
func NewGroupBySum(cfg GroupBySumConfig) (*GroupBySum, error) {
	if err := validateDims("group-by-sum", cfg.Rows, cfg.Cols); err != nil {
		return nil, err
	}
	n := cfg.Rows * cfg.Cols
	p := cacheline.New[GroupBySum]()
	*p = GroupBySum{
		cfg:     cfg,
		rowSeed: hashutil.SplitMix64(cfg.Seed),
		keys:    cacheline.Make[uint64](n),
		sums:    cacheline.Make[int64](n),
		used:    cacheline.Make[bool](n),
		emit:    cacheline.Make[uint64](2),
	}
	return p, nil
}

// Name implements Pruner.
func (p *GroupBySum) Name() string { return "groupby-sum" }

// Guarantee implements Pruner.
func (p *GroupBySum) Guarantee() Guarantee { return Deterministic }

// Profile implements switchsim.Program: like GROUP BY but each slot holds
// a key and a sum register.
func (p *GroupBySum) Profile() switchsim.Profile {
	return switchsim.Profile{
		Name:         p.Name(),
		Stages:       p.cfg.Cols,
		ALUs:         p.cfg.Cols,
		SRAMBits:     p.cfg.Rows * p.cfg.Cols * 2 * 64,
		MetadataBits: 64 + 64 + 32,
	}
}

// Process implements switchsim.Program: ProcessEmit's verdict without
// the packet it rewrites. A caller that forwards the arriving entry on an
// eviction counts its value twice and loses the evicted aggregate, so
// switchsim.ProcessBatchOf calls ProcessEmit instead.
func (p *GroupBySum) Process(vals []uint64) switchsim.Decision {
	d, _ := p.ProcessEmit(vals)
	return d
}

// ProcessEmit implements switchsim.Emitter. vals[0] is the
// (fingerprinted) group key, vals[1] the summand as int64.
func (p *GroupBySum) ProcessEmit(vals []uint64) (switchsim.Decision, []uint64) {
	p.stats.Processed++
	ek, es, evicted := p.FusedAdd(vals[0], int64(vals[1]))
	if !evicted {
		p.stats.Pruned++
		return switchsim.Prune, nil
	}
	p.emit[0], p.emit[1] = ek, uint64(es)
	return switchsim.Forward, p.emit
}

// FusedAdd is ProcessEmit on plain values, without the stats update (an
// absorbed entry is a pruned one, an eviction a forwarded one; the fused
// loop counts both and deposits them through AddStats): the entry (key, v)
// joins the aggregation matrix, and when that displaces an aggregate,
// evicted is set and (evKey, evSum) is the pair the rewritten packet
// carries to the master.
func (p *GroupBySum) FusedAdd(key uint64, v int64) (evKey uint64, evSum int64, evicted bool) {
	// HashUint64(key, Seed) with the seed's mixing hoisted.
	base := hashutil.Reduce(hashutil.Mix64(key^p.rowSeed), p.cfg.Rows) * p.cfg.Cols
	keys, sums, used := p.keys[base:base+p.cfg.Cols], p.sums[base:base+p.cfg.Cols], p.used[base:base+p.cfg.Cols]
	free := -1
	for i, u := range used {
		if !u {
			if free < 0 {
				free = i
			}
			continue
		}
		if keys[i] == key {
			// Absorb: the entry's value joins the cached partial sum and
			// the packet is pruned (and ACKed by the reliability layer).
			sums[i] += v
			return 0, 0, false
		}
	}
	if free >= 0 {
		used[free], keys[free], sums[free] = true, key, v
		p.held++
		return 0, 0, false
	}
	// Row full: evict the first slot (rolling replacement), forwarding
	// the evicted aggregate in the rewritten packet.
	evKey, evSum = keys[0], sums[0]
	last := len(keys) - 1
	copy(keys[:last], keys[1:])
	copy(sums[:last], sums[1:])
	keys[last], sums[last] = key, v
	return evKey, evSum, true
}

// Drain implements Drainer: the cached partial sums leave the switch as
// (key, sum) pairs at end-of-stream.
func (p *GroupBySum) Drain() [][]uint64 {
	out := make([][]uint64, 0, p.held)
	backing := make([]uint64, 0, 2*p.held)
	p.DrainTo(func(key uint64, sum int64) {
		backing = append(backing, key, uint64(sum))
		out = append(out, backing[len(backing)-2:len(backing):len(backing)])
	})
	return out
}

// DrainTo is Drain handing each pair to emit, for callers that fold the
// pairs and have no use for a slice per slot. It stops at the last held
// slot, so draining an empty program reads none.
func (p *GroupBySum) DrainTo(emit func(key uint64, sum int64)) {
	if p.held == 0 {
		return
	}
	for i, u := range p.used {
		if !u {
			continue
		}
		emit(p.keys[i], p.sums[i])
		p.used[i] = false
		if p.held--; p.held == 0 {
			return
		}
	}
}

// Reset implements switchsim.Program.
func (p *GroupBySum) Reset() {
	clear(p.used)
	p.held = 0
	p.stats = Stats{}
}

var (
	_ Pruner            = (*GroupBySum)(nil)
	_ switchsim.Emitter = (*GroupBySum)(nil)
	_ Drainer           = (*GroupBySum)(nil)
	_ Drainer           = (*Skyline)(nil)
)
