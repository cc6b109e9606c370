package prune

import (
	"fmt"
	"math/bits"

	"cheetah/internal/aph"
	"cheetah/internal/cacheline"
	"cheetah/internal/switchsim"
)

// SkylineHeuristic selects the projection h: R^D → R used to decide which
// points the switch retains (§4.4).
type SkylineHeuristic uint8

const (
	// SkylineSum is hS(x) = Σ xᵢ — cheap but biased toward dimensions
	// with larger ranges.
	SkylineSum SkylineHeuristic = iota
	// SkylineAPH is the Approximate Product Heuristic: sum of fixed-point
	// approximate logarithms, emulating hP(x) = Π xᵢ (Appendix D).
	SkylineAPH
	// SkylineBaseline stores the first w points with no replacement —
	// the "Baseline" curve of Figure 10b.
	SkylineBaseline
)

// String renders the heuristic.
func (h SkylineHeuristic) String() string {
	switch h {
	case SkylineAPH:
		return "APH"
	case SkylineBaseline:
		return "Baseline"
	default:
		return "Sum"
	}
}

// SkylineConfig configures the SKYLINE pruner (§4.4, Example #6).
type SkylineConfig struct {
	// Dims (D) is the point dimensionality. Paper default: 2.
	Dims int
	// Points (w) is the number of prune points stored on the switch.
	// Paper default: 10.
	Points int
	// Heuristic picks the projection.
	Heuristic SkylineHeuristic
	// Beta is the APH fixed-point scale (0 selects aph.DefaultBeta).
	Beta uint64
	// ALUsPerStage bounds per-stage comparisons; Table 2's SKYLINE row
	// assumes D ≤ A. 0 selects DefaultALUsPerStage.
	ALUsPerStage int
	// Seed is reserved for randomized variants; the shipped heuristics
	// are deterministic and ignore it.
	Seed uint64
}

// Skyline prunes SKYLINE OF d1,...,dD queries (all dimensions maximized).
// The switch stores w points, each over two logical stages (score, then
// coordinates). An arriving point with a higher score than a stored point
// replaces it — the displaced point rides the packet onward — and a point
// dominated by any stored point is marked and dropped at the end of the
// pipeline. Stored points are exactly the w highest-score points seen,
// which are always true skyline members under a monotone projection.
type Skyline struct {
	cfg     SkylineConfig
	proj    *aph.Projector // nil unless APH
	scores  []uint64
	pts     [][]uint64 // w × D coordinate store
	ids     []uint64   // entry identifier stored alongside each point
	fill    int
	carry   []uint64 // scratch: the packet's current point
	carryID uint64
	stats   Stats
}

// NewSkyline builds the pruner.
func NewSkyline(cfg SkylineConfig) (*Skyline, error) {
	if cfg.Dims <= 0 {
		return nil, fmt.Errorf("prune: skyline dimensionality %d must be positive", cfg.Dims)
	}
	if cfg.Points <= 0 {
		return nil, fmt.Errorf("prune: skyline point count %d must be positive", cfg.Points)
	}
	if cfg.ALUsPerStage == 0 {
		cfg.ALUsPerStage = DefaultALUsPerStage
	}
	if cfg.Dims > cfg.ALUsPerStage {
		return nil, fmt.Errorf("prune: skyline needs D=%d ≤ A=%d comparisons per stage (Table 2)", cfg.Dims, cfg.ALUsPerStage)
	}
	s := cacheline.New[Skyline]()
	*s = Skyline{
		cfg:    cfg,
		scores: cacheline.Make[uint64](cfg.Points),
		pts:    cacheline.Make[[]uint64](cfg.Points),
		ids:    cacheline.Make[uint64](cfg.Points),
	}
	// The stored points and the carried one swap places on every
	// replacement, so they are carved from one array: a swap moves slices
	// within it, never onto a line another allocation shares.
	d := cfg.Dims
	coords := cacheline.Make[uint64]((cfg.Points + 1) * d)
	for i := range s.pts {
		s.pts[i] = coords[i*d : (i+1)*d : (i+1)*d]
	}
	s.carry = coords[cfg.Points*d:]
	if cfg.Heuristic == SkylineAPH {
		beta := cfg.Beta
		if beta == 0 {
			beta = aph.DefaultBeta
		}
		proj, err := aph.New(beta)
		if err != nil {
			return nil, err
		}
		s.proj = proj
	}
	return s, nil
}

// Name implements Pruner.
func (p *Skyline) Name() string { return "skyline-" + p.cfg.Heuristic.String() }

// Guarantee implements Pruner.
func (p *Skyline) Guarantee() Guarantee { return Deterministic }

// Profile implements switchsim.Program with Table 2's SKYLINE rows.
// SUM: log₂D + 2w stages, 2log₂D - 1 + w(D+1) ALUs, w(D+1)×64b SRAM.
// APH: log₂D + 2(w+1) stages, same ALUs, plus the 2¹⁶×32b log table and
// 64·D TCAM entries for the per-dimension MSB lookups.
func (p *Skyline) Profile() switchsim.Profile {
	d, w := p.cfg.Dims, p.cfg.Points
	log2D := bits.Len(uint(d))
	if d&(d-1) == 0 && d > 1 {
		log2D--
	}
	if log2D < 1 {
		log2D = 1
	}
	prof := switchsim.Profile{
		Name:         p.Name(),
		ALUs:         2*log2D - 1 + w*(d+1),
		SRAMBits:     w * (d + 1) * 64,
		MetadataBits: 64*(d+1) + 16,
	}
	switch p.cfg.Heuristic {
	case SkylineAPH:
		prof.Stages = log2D + 2*(w+1)
		prof.SRAMBits += aph.TableEntries * 32
		prof.TCAMEntries = aph.MSBTCAMRules * d
	case SkylineBaseline:
		prof.Stages = 2 * w // no score pipeline, direct dominance checks
		prof.ALUs = w * d
		prof.SRAMBits = w * d * 64
	default: // Sum
		prof.Stages = log2D + 2*w
	}
	return prof
}

// score projects a point.
func (p *Skyline) score(pt []uint64) uint64 {
	if p.proj != nil {
		return p.proj.Score(pt)
	}
	return aph.SumScore(pt)
}

// dominates reports whether a dominates b in all dimensions. Coordinates
// are Int64 cells carried as their two's-complement bits, so they compare
// signed: as unsigned, a -1 would dominate every non-negative point.
func dominates(a, b []uint64) bool {
	for i := range a {
		if int64(b[i]) > int64(a[i]) {
			return false
		}
	}
	return true
}

// Process implements switchsim.Program. vals holds the D coordinates,
// optionally followed by an entry identifier (vals[Dims]) that travels
// with the point through swaps so drained switch state can be
// late-materialized by the master.
func (p *Skyline) Process(vals []uint64) switchsim.Decision {
	p.stats.Processed++
	if len(vals) < p.cfg.Dims {
		// Malformed entry: forward untouched, never risk wrong pruning.
		return switchsim.Forward
	}
	if p.FusedOffer(vals) {
		p.stats.Pruned++
		return switchsim.Prune
	}
	return switchsim.Forward
}

// FusedOffer is Process without the stats update, for an entry of at
// least Dims values: it returns true when the entry is pruned. The fused
// SKYLINE loop counts in locals and deposits through AddStats.
func (p *Skyline) FusedOffer(vals []uint64) (pruned bool) {
	id := uint64(0)
	if len(vals) > p.cfg.Dims {
		id = vals[p.cfg.Dims]
	}
	if p.cfg.Heuristic == SkylineBaseline {
		for i := 0; i < p.fill; i++ {
			if dominates(p.pts[i], vals[:p.cfg.Dims]) {
				return true
			}
		}
		// "w arbitrary points": the first w points of the stream, with
		// no replacement — the natural arbitrary choice on a switch.
		if p.fill < p.cfg.Points {
			copy(p.pts[p.fill], vals[:p.cfg.Dims])
			p.ids[p.fill] = id
			p.fill++
		}
		return false
	}

	carryScore := p.score(vals[:p.cfg.Dims])
	if w := p.cfg.Points; p.fill == w && carryScore <= p.scores[w-1] {
		// The stored scores descend — an entry is inserted where its
		// score belongs and the rest shift down — so an entry scoring no
		// higher than the lowest displaces nothing: it is pruned exactly
		// when a stored point dominates it, and the switch writes nothing.
		for _, pt := range p.pts {
			if dominates(pt, vals[:p.cfg.Dims]) {
				return true
			}
		}
		return false
	}
	copy(p.carry, vals[:p.cfg.Dims])
	p.carryID = id
	marked, stored := false, false
	for i := 0; i < p.cfg.Points; i++ {
		if i >= p.fill {
			// Empty slot: store the carried point. The packet now carries
			// nothing — but the hardware still emits the packet; we model
			// the stored point as consumed and forward the original entry
			// so the master is guaranteed to see every stored point.
			copy(p.pts[i], p.carry)
			p.scores[i] = carryScore
			p.ids[i] = p.carryID
			p.fill++
			return false
		}
		if carryScore > p.scores[i] {
			// Swap: the stored point continues down the pipeline.
			p.pts[i], p.carry = p.carry, p.pts[i]
			p.scores[i], carryScore = carryScore, p.scores[i]
			p.ids[i], p.carryID = p.carryID, p.ids[i]
			// A swapped-out point was not previously forwarded; it must
			// not inherit a prune mark earned by the point that displaced
			// it. Dominance marks below only ever apply to the current
			// carried point, so clear the mark on swap.
			marked, stored = false, true
		} else if !marked && dominates(p.pts[i], p.carry) {
			// The carried point is dominated by a stored point: mark it;
			// the drop happens at the end of the pipeline (§4.4: "the
			// switch only drops the packet at the end of the pipeline").
			marked = true
		}
	}
	// The mark drops the point the packet carries at the end, which is
	// the entry only if the entry was never stored. A stored entry is
	// forwarded like one stored in an empty slot: it leaves the switch
	// only when evicted, as the carried point of a later packet, so the
	// master must already hold it.
	return marked && !stored
}

// Reset implements switchsim.Program.
func (p *Skyline) Reset() {
	p.fill = 0
	p.stats = Stats{}
}

// Stats implements Pruner.
func (p *Skyline) Stats() Stats { return p.stats }

// StoredPoints returns copies of the points currently cached on the
// switch. With the swap discipline every arriving point is either
// forwarded, pruned (dominated), or currently stored — the forwarded
// stream plus the stored set always covers the true skyline; tests rely
// on this accessor.
func (p *Skyline) StoredPoints() [][]uint64 {
	out := make([][]uint64, p.fill)
	for i := 0; i < p.fill; i++ {
		out[i] = append([]uint64(nil), p.pts[i]...)
	}
	return out
}

// Drain implements Drainer: at end-of-stream the control plane reads the
// stored points (coordinates followed by the entry id) so the master can
// merge them into the survivor set. The switch state is cleared.
func (p *Skyline) Drain() [][]uint64 {
	out := make([][]uint64, p.fill)
	w := p.cfg.Dims + 1
	backing := make([]uint64, p.fill*w)
	for i := range out {
		e := backing[i*w : (i+1)*w : (i+1)*w]
		copy(e, p.pts[i])
		e[p.cfg.Dims] = p.ids[i]
		out[i] = e
	}
	p.fill = 0
	return out
}
