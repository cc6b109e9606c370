package prune

import (
	"fmt"
	"math"
	"sync"

	"cheetah/internal/cache"
	"cheetah/internal/cacheline"
	"cheetah/internal/hashutil"
	"cheetah/internal/stats"
	"cheetah/internal/switchsim"
)

// DetTopNConfig configures the deterministic TOP N pruner (§4.3,
// Example #3).
type DetTopNConfig struct {
	// N is the requested result size.
	N int
	// Thresholds (w) is the number of exponentially spaced thresholds
	// t_i = 2^i·t0 maintained after the warm-up minimum t0. Paper
	// default: w=4 (Table 2).
	Thresholds int
}

// DetTopN prunes for SELECT TOP N ... ORDER BY col with a deterministic
// guarantee. The switch learns t0, the minimum of the first N entries,
// then counts how many entries exceed each threshold t_i = 2^i·t0; once
// N entries above t_i have been observed, everything below t_i is
// prunable.
type DetTopN struct {
	cfg DetTopNConfig

	warmSeen int64
	t0       int64
	counts   []int64 // entries seen ≥ t_i
	cur      int     // highest i with counts[i] ≥ N, or -1 during warm-up
	tally
}

// NewDetTopN builds the pruner.
func NewDetTopN(cfg DetTopNConfig) (*DetTopN, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("prune: top-n N=%d must be positive", cfg.N)
	}
	if cfg.Thresholds <= 0 || cfg.Thresholds > 62 {
		return nil, fmt.Errorf("prune: top-n thresholds w=%d out of range 1..62", cfg.Thresholds)
	}
	p := cacheline.New[DetTopN]()
	*p = DetTopN{
		cfg:    cfg,
		t0:     math.MaxInt64,
		counts: cacheline.Make[int64](cfg.Thresholds),
		cur:    -1,
	}
	return p, nil
}

// Name implements Pruner.
func (p *DetTopN) Name() string { return "topn-det" }

// Guarantee implements Pruner.
func (p *DetTopN) Guarantee() Guarantee { return Deterministic }

// Profile implements switchsim.Program with Table 2's TOP N Det row:
// w+1 stages, w+1 ALUs (one per threshold counter plus the t0 rolling
// minimum), (w+1)×64b SRAM.
func (p *DetTopN) Profile() switchsim.Profile {
	w := p.cfg.Thresholds
	return switchsim.Profile{
		Name:         p.Name(),
		Stages:       w + 1,
		ALUs:         w + 1,
		SRAMBits:     (w + 1) * 64,
		MetadataBits: 64 + 8,
	}
}

// threshold returns t_i = 2^i·t0, clamped so a non-positive warm-up
// minimum (the paper assumes positive ORDER BY values) degrades to a
// never-advancing threshold rather than a wrong one.
func (p *DetTopN) threshold(i int) int64 {
	if p.t0 <= 0 {
		if i == 0 {
			return p.t0
		}
		return math.MaxInt64
	}
	shifted := p.t0 << uint(i)
	if shifted>>uint(i) != p.t0 || shifted < 0 { // overflow guard
		return math.MaxInt64
	}
	return shifted
}

// Process implements switchsim.Program. vals[0] is the ORDER BY value as
// a two's-complement int64.
func (p *DetTopN) Process(vals []uint64) switchsim.Decision {
	p.stats.Processed++
	if p.FusedOffer(int64(vals[0])) {
		p.stats.Pruned++
		return switchsim.Prune
	}
	return switchsim.Forward
}

// Reset implements switchsim.Program.
func (p *DetTopN) Reset() {
	p.warmSeen = 0
	p.t0 = math.MaxInt64
	for i := range p.counts {
		p.counts[i] = 0
	}
	p.cur = -1
	p.stats = Stats{}
}

// RandTopNConfig configures the randomized TOP N pruner (§5, Example #7).
type RandTopNConfig struct {
	// N is the requested result size.
	N int
	// Rows (d) and Cols (w) size the rolling-minimum matrix. Use
	// TopNColumnsFor / OptimalTopNRows to derive them from (N, δ).
	Rows, Cols int
	// Seed drives the per-entry random row choice.
	Seed uint64
}

// RandTopN prunes TOP N with probabilistic guarantee 1-δ: entries are
// assigned to uniformly random rows, each row keeps its w largest values
// by rolling minimum, and an entry smaller than all w cached values in
// its row is pruned.
type RandTopN struct {
	cfg    RandTopNConfig
	matrix *cache.RollingMin
	rng    uint64
	// fusedPos is the counter-indexed RNG stream position of the fused
	// path (fused.go); the scalar chain above and this counter are
	// independent streams.
	fusedPos uint64
	tally
}

// NewRandTopN builds the pruner.
func NewRandTopN(cfg RandTopNConfig) (*RandTopN, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("prune: top-n N=%d must be positive", cfg.N)
	}
	if err := validateDims("rand top-n", cfg.Rows, cfg.Cols); err != nil {
		return nil, err
	}
	m, err := cache.NewRollingMin(cfg.Rows, cfg.Cols)
	if err != nil {
		return nil, err
	}
	p := cacheline.New[RandTopN]()
	*p = RandTopN{cfg: cfg, matrix: m, rng: cfg.Seed ^ 0x6d6f746f726f6c61}
	return p, nil
}

// Name implements Pruner.
func (p *RandTopN) Name() string { return "topn-rand" }

// Guarantee implements Pruner.
func (p *RandTopN) Guarantee() Guarantee { return Randomized }

// Profile implements switchsim.Program with Table 2's TOP N Rand row:
// w stages, w ALUs, (d·w)×64b SRAM.
func (p *RandTopN) Profile() switchsim.Profile {
	return switchsim.Profile{
		Name:         p.Name(),
		Stages:       p.cfg.Cols,
		ALUs:         p.cfg.Cols,
		SRAMBits:     p.matrix.MemoryBits(),
		MetadataBits: 64 + 32,
	}
}

// Process implements switchsim.Program. vals[0] is the ORDER BY value.
func (p *RandTopN) Process(vals []uint64) switchsim.Decision {
	p.stats.Processed++
	p.rng = hashutil.SplitMix64(p.rng)
	row := int(hashutil.ReduceFull(p.rng, uint64(p.cfg.Rows)))
	if p.matrix.Offer(row, int64(vals[0])) {
		p.stats.Pruned++
		return switchsim.Prune
	}
	return switchsim.Forward
}

// Reset implements switchsim.Program.
func (p *RandTopN) Reset() {
	p.matrix.Reset()
	p.rng = p.cfg.Seed ^ 0x6d6f746f726f6c61
	p.fusedPos = 0
	p.stats = Stats{}
}

// TopNColumnsFor computes Theorem 2's matrix-column count
//
//	w = 1.3·ln(d/δ) / ln((d/(N·e))·ln(d/δ))
//
// for d rows, result size N and failure probability δ. The theorem
// requires d ≥ N·e/ln(1/δ). The paper's worked examples (§5: d=600→w=16,
// d=8000→w=5, d=200→w=288 for N=1000, δ=1e-4) truncate the ratio, and
// this function matches them.
func TopNColumnsFor(d, n int, delta float64) (int, error) {
	if d <= 0 || n <= 0 || delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("prune: invalid TopNColumnsFor(d=%d, N=%d, delta=%v)", d, n, delta)
	}
	w := topNColumnsReal(float64(d), float64(n), delta)
	if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
		return 0, fmt.Errorf("prune: d=%d too small for N=%d, delta=%v (need d ≥ N·e/ln(1/δ) ≈ %.0f)",
			d, n, delta, float64(n)*math.E/math.Log(1/delta))
	}
	iw := int(w)
	if iw < 1 {
		iw = 1
	}
	return iw, nil
}

// topNColumnsReal returns the un-truncated column count, or NaN/Inf when
// the configuration violates the theorem's premise.
func topNColumnsReal(d, n, delta float64) float64 {
	lnD := math.Log(d / delta)
	denom := math.Log(d / (n * math.E) * lnD)
	if denom <= 0 {
		return math.NaN()
	}
	return 1.3 * lnD / denom
}

// optimalRowsMemo remembers OptimalTopNRows' most recent answers. The
// search is a pure function of (N, δ) and most of a TOP N plan's cost,
// and served and subscribed queries repeat their N; but N arrives from
// the wire, so the memo is a fixed-size ring, not a map that grows.
var optimalRowsMemo struct {
	sync.Mutex
	next int
	ring [16]struct {
		n     int
		delta float64
		d, w  int
	}
}

// OptimalTopNRows jointly optimizes space and pruning rate (§5): both the
// memory Θ(w·d) and the unpruned bound of Theorem 3 are monotone in w·d,
// so the best configuration minimizes f(d) = d·w(d). The paper expresses
// the minimizer through the Lambert W function; this implementation
// minimizes f numerically over the feasible range (reproducing the
// paper's example: N=1000, δ=1e-4 → d=481, w=19) with the Lambert form as
// the scan pivot. Recent answers are memoised.
func OptimalTopNRows(n int, delta float64) (d, w int, err error) {
	if n <= 0 || delta <= 0 || delta >= 1 {
		return 0, 0, fmt.Errorf("prune: invalid OptimalTopNRows(N=%d, delta=%v)", n, delta)
	}
	m := &optimalRowsMemo
	m.Lock()
	defer m.Unlock()
	for i := range m.ring {
		if e := &m.ring[i]; e.n == n && e.delta == delta {
			return e.d, e.w, nil
		}
	}
	if d, w, err = searchTopNRows(n, delta); err != nil {
		return 0, 0, err
	}
	e := &m.ring[m.next]
	e.n, e.delta, e.d, e.w = n, delta, d, w
	m.next = (m.next + 1) % len(m.ring)
	return d, w, nil
}

// searchTopNRows is OptimalTopNRows' numeric minimization, for valid
// (n, delta).
func searchTopNRows(n int, delta float64) (d, w int, err error) {
	dMin := int(math.Ceil(float64(n) * math.E / math.Log(1/delta)))
	if dMin < 1 {
		dMin = 1
	}
	// Pivot the scan around the Lambert-W stationary point when it is
	// finite; always cover [dMin, 64·N] which brackets the minimum for
	// every practical (N, δ).
	dMax := 64 * n
	if lw, lerr := stats.LambertW0(float64(n) * math.E * math.E / delta); lerr == nil {
		if cand := int(delta * math.Exp(lw)); cand > dMax {
			dMax = 2 * cand
		}
	}
	bestD := -1
	bestF := math.Inf(1)
	for dd := dMin; dd <= dMax; dd = nextScan(dd) {
		wReal := topNColumnsReal(float64(dd), float64(n), delta)
		if math.IsNaN(wReal) || wReal <= 0 {
			continue
		}
		if f := float64(dd) * wReal; f < bestF {
			bestF = f
			bestD = dd
		}
	}
	if bestD < 0 {
		return 0, 0, fmt.Errorf("prune: no feasible (d,w) for N=%d, delta=%v", n, delta)
	}
	// The real-valued objective is extremely flat near its minimum and the
	// deployable w is integral, so refine locally on the integer product
	// d·⌊w(d)⌋ (footnote 12: "the actual optimum, which needs to be
	// integral, will be either the minimum d for that value or for w that
	// is off by 1").
	lo := bestD - bestD/20 - 2
	if lo < dMin {
		lo = dMin
	}
	hi := bestD + bestD/20 + 2
	bestProd := math.MaxInt64
	d, w = bestD, 1
	for dd := lo; dd <= hi; dd++ {
		wReal := topNColumnsReal(float64(dd), float64(n), delta)
		if math.IsNaN(wReal) || wReal < 1 {
			continue
		}
		wi := int(wReal)
		if prod := dd * wi; prod < bestProd {
			bestProd = prod
			d, w = dd, wi
		}
	}
	return d, w, nil
}

// nextScan advances the scan densely near small d and geometrically for
// large d, keeping OptimalTopNRows fast for large N without missing the
// (flat) minimum.
func nextScan(d int) int {
	if d < 10_000 {
		return d + 1
	}
	return d + d/1000
}

// ExpectedTopNUnpruned is Theorem 3's bound: on a random-order stream of
// m elements, at most w·d·ln(m·e/(w·d)) elements are forwarded in
// expectation.
func ExpectedTopNUnpruned(m, d, w int) float64 {
	if m <= 0 || d <= 0 || w <= 0 {
		return 0
	}
	wd := float64(w) * float64(d)
	if wd >= float64(m) {
		return float64(m)
	}
	return wd * math.Log(float64(m)*math.E/wd)
}
