package prune

import (
	"slices"
	"testing"

	"cheetah/internal/hashutil"
	"cheetah/internal/switchsim"
)

// trueSkyline computes the exact skyline (maximizing all dims).
func trueSkyline(points [][]uint64) [][]uint64 {
	var out [][]uint64
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if dominates(q, p) && !equalPoint(p, q) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

func equalPoint(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randomPoints(n, dims int, seed uint64, maxVal uint64) [][]uint64 {
	s := seed
	pts := make([][]uint64, n)
	for i := range pts {
		p := make([]uint64, dims)
		for j := range p {
			s = hashutil.SplitMix64(s)
			p[j] = s % maxVal
		}
		pts[i] = p
	}
	return pts
}

func TestSkylineValidation(t *testing.T) {
	if _, err := NewSkyline(SkylineConfig{Dims: 0, Points: 10}); err == nil {
		t.Fatal("D=0 accepted")
	}
	if _, err := NewSkyline(SkylineConfig{Dims: 2, Points: 0}); err == nil {
		t.Fatal("w=0 accepted")
	}
	if _, err := NewSkyline(SkylineConfig{Dims: 20, Points: 4}); err == nil {
		t.Fatal("D > ALUs per stage accepted (violates Table 2 premise)")
	}
	if _, err := NewSkyline(SkylineConfig{Dims: 2, Points: 4, Heuristic: SkylineAPH, Beta: 1 << 40}); err == nil {
		t.Fatal("oversized beta accepted")
	}
}

func testSkylineCorrectness(t *testing.T, h SkylineHeuristic) {
	t.Helper()
	// Invariant: forwarded ∪ stored covers the true skyline — no skyline
	// point is lost.
	for _, seed := range []uint64{1, 2, 3} {
		p, err := NewSkyline(SkylineConfig{Dims: 2, Points: 10, Heuristic: h})
		if err != nil {
			t.Fatal(err)
		}
		pts := randomPoints(5000, 2, seed, 1<<20)
		received := map[[2]uint64]bool{}
		for _, pt := range pts {
			if p.Process(pt) == switchsim.Forward {
				received[[2]uint64{pt[0], pt[1]}] = true
			}
		}
		// The master drains the stored points at FIN (see StoredPoints).
		for _, pt := range p.StoredPoints() {
			received[[2]uint64{pt[0], pt[1]}] = true
		}
		for _, sk := range trueSkyline(pts) {
			if !received[[2]uint64{sk[0], sk[1]}] {
				t.Fatalf("%v seed %d: skyline point %v lost", h, seed, sk)
			}
		}
	}
}

func TestSkylineSumCorrectness(t *testing.T)      { testSkylineCorrectness(t, SkylineSum) }
func TestSkylineAPHCorrectness(t *testing.T)      { testSkylineCorrectness(t, SkylineAPH) }
func TestSkylineBaselineCorrectness(t *testing.T) { testSkylineCorrectness(t, SkylineBaseline) }

// sweepSkyline is §4.4's pipeline sweep written literally — every stage
// compares the carried score, swaps or marks, for every entry — with no
// shortcut, as the reference Skyline's decisions and stored points must
// equal. The mark drops the entry only if the sweep never stored it.
type sweepSkyline struct {
	score  func([]uint64) uint64
	w      int
	pts    [][]uint64
	scores []uint64
}

func (r *sweepSkyline) prune(vals []uint64) bool {
	carry := append([]uint64(nil), vals...)
	cs := r.score(carry)
	marked, stored := false, false
	for i := 0; i < r.w; i++ {
		if i == len(r.pts) {
			r.pts, r.scores = append(r.pts, carry), append(r.scores, cs)
			return false
		}
		if cs > r.scores[i] {
			r.pts[i], carry = carry, r.pts[i]
			r.scores[i], cs = cs, r.scores[i]
			marked, stored = false, true
		} else if !marked && dominates(r.pts[i], carry) {
			marked = true
		}
	}
	return marked && !stored
}

// TestSkylineLosesNoPoint pins two ways a skyline point was lost: an
// entry stored in place of a point that a stored duplicate then marked was
// dropped, and evicted later without the master ever seeing it; and
// coordinates compared unsigned let (-1, -1) dominate every non-negative
// point.
func TestSkylineLosesNoPoint(t *testing.T) {
	for _, c := range []struct {
		w   int
		pts [][2]int64
	}{
		{2, [][2]int64{{1, 1}, {1, 1}, {0, 3}, {2, 2}, {4, 1}}},
		{1, [][2]int64{{-1, -1}, {5, 5}}},
	} {
		p, err := NewSkyline(SkylineConfig{Dims: 2, Points: c.w, Heuristic: SkylineSum})
		if err != nil {
			t.Fatal(err)
		}
		received := map[[2]int64]bool{}
		for _, pt := range c.pts {
			if p.Process([]uint64{uint64(pt[0]), uint64(pt[1])}) == switchsim.Forward {
				received[pt] = true
			}
		}
		for _, pt := range p.StoredPoints() {
			received[[2]int64{int64(pt[0]), int64(pt[1])}] = true
		}
		for _, pt := range c.pts {
			onSkyline := !slices.ContainsFunc(c.pts, func(q [2]int64) bool {
				return q != pt && q[0] >= pt[0] && q[1] >= pt[1]
			})
			if onSkyline && !received[pt] {
				t.Errorf("w=%d %v: skyline point %v lost", c.w, c.pts, pt)
			}
		}
	}
}

// TestSkylineMatchesSweep: Process (the entry that displaces nothing skips
// the sweep) decides every entry as the literal sweep does and ends with
// the same stored points, in order — on value ranges narrow enough for
// ties in scores and coordinates to be the rule.
func TestSkylineMatchesSweep(t *testing.T) {
	for _, h := range []SkylineHeuristic{SkylineSum, SkylineAPH} {
		for _, dims := range []int{1, 2, 3} {
			for _, w := range []int{1, 3, 10} {
				for _, maxVal := range []uint64{4, 64, 1 << 20} {
					p, err := NewSkyline(SkylineConfig{Dims: dims, Points: w, Heuristic: h})
					if err != nil {
						t.Fatal(err)
					}
					ref := &sweepSkyline{score: p.score, w: w}
					for i, pt := range randomPoints(3000, dims, maxVal+uint64(w), maxVal) {
						got, want := p.Process(pt) == switchsim.Prune, ref.prune(pt)
						if got != want {
							t.Fatalf("%v D=%d w=%d max=%d: entry %d %v pruned=%v, the sweep says %v",
								h, dims, w, maxVal, i, pt, got, want)
						}
					}
					stored := p.StoredPoints()
					for i := range ref.pts {
						if !equalPoint(stored[i], ref.pts[i]) {
							t.Fatalf("%v D=%d w=%d max=%d: stored %v, the sweep stored %v", h, dims, w, maxVal, stored, ref.pts)
						}
					}
				}
			}
		}
	}
}

func TestSkylineAPHBeatsSumOnSkewedRanges(t *testing.T) {
	// Fig. 10b: with unbalanced dimension ranges (0..255 vs 0..65535) the
	// APH projection retains better prune points than Sum.
	mk := func(h SkylineHeuristic) *Skyline {
		p, err := NewSkyline(SkylineConfig{Dims: 2, Points: 10, Heuristic: h})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	aphP, sumP := mk(SkylineAPH), mk(SkylineSum)
	s := uint64(33)
	const n = 300_000
	for i := 0; i < n; i++ {
		s = hashutil.SplitMix64(s)
		pt := []uint64{s % 256, (s >> 32) % 65536}
		aphP.Process(pt)
		sumP.Process(append([]uint64(nil), pt...))
	}
	if aphP.Stats().UnprunedRate() > sumP.Stats().UnprunedRate() {
		t.Fatalf("APH unpruned %.5f worse than Sum %.5f on skewed ranges",
			aphP.Stats().UnprunedRate(), sumP.Stats().UnprunedRate())
	}
}

func TestSkylineReplacementBeatsBaseline(t *testing.T) {
	// Fig. 10b: heuristics that "learn" good prune points beat storing
	// the first w arbitrary points.
	mk := func(h SkylineHeuristic) *Skyline {
		p, _ := NewSkyline(SkylineConfig{Dims: 2, Points: 10, Heuristic: h})
		return p
	}
	sumP, baseP := mk(SkylineSum), mk(SkylineBaseline)
	s := uint64(55)
	const n = 200_000
	for i := 0; i < n; i++ {
		s = hashutil.SplitMix64(s)
		pt := []uint64{s % 10000, (s >> 32) % 10000}
		sumP.Process(pt)
		baseP.Process(append([]uint64(nil), pt...))
	}
	if sumP.Stats().UnprunedRate() >= baseP.Stats().UnprunedRate() {
		t.Fatalf("Sum unpruned %.5f not better than Baseline %.5f",
			sumP.Stats().UnprunedRate(), baseP.Stats().UnprunedRate())
	}
}

func TestSkylinePrunesHeavilyOnRandomData(t *testing.T) {
	p, _ := NewSkyline(SkylineConfig{Dims: 2, Points: 10, Heuristic: SkylineAPH})
	s := uint64(77)
	const n = 100_000
	for i := 0; i < n; i++ {
		s = hashutil.SplitMix64(s)
		p.Process([]uint64{s % 100000, (s >> 32) % 100000})
	}
	if rate := p.Stats().PruneRate(); rate < 0.95 {
		t.Fatalf("APH prune rate %.4f too low on uniform 2-D data", rate)
	}
}

func TestSkylineStoredPointsAreHighScore(t *testing.T) {
	p, _ := NewSkyline(SkylineConfig{Dims: 2, Points: 4, Heuristic: SkylineSum})
	pts := [][]uint64{
		{1, 1}, {100, 100}, {2, 2}, {50, 200}, {200, 50}, {3, 3}, {150, 150},
	}
	for _, pt := range pts {
		p.Process(pt)
	}
	stored := p.StoredPoints()
	if len(stored) != 4 {
		t.Fatalf("stored %d points, want 4", len(stored))
	}
	// The 4 highest sum-scores are 300, 250, 250, 200.
	sums := map[uint64]bool{}
	for _, s := range stored {
		sums[s[0]+s[1]] = true
	}
	for _, want := range []uint64{300, 250, 200} {
		if !sums[want] {
			t.Fatalf("stored set %v missing score %d", stored, want)
		}
	}
}

func TestSkylineMalformedEntryForwarded(t *testing.T) {
	p, _ := NewSkyline(SkylineConfig{Dims: 3, Points: 2})
	if p.Process([]uint64{1, 2}) != switchsim.Forward {
		t.Fatal("short entry must be forwarded, never pruned")
	}
}

func TestSkylineProfileTable2(t *testing.T) {
	// Table 2: SKYLINE defaults D=2, w=10.
	// SUM: log2(D) + 2w = 1 + 20 = 21 stages; 2log2(D)-1 + w(D+1) = 1 + 30
	// = 31 ALUs; w(D+1)×64b SRAM; 0 TCAM.
	sum, _ := NewSkyline(SkylineConfig{Dims: 2, Points: 10, Heuristic: SkylineSum})
	prof := sum.Profile()
	if prof.Stages != 21 || prof.ALUs != 31 || prof.SRAMBits != 10*3*64 || prof.TCAMEntries != 0 {
		t.Fatalf("SUM profile = %+v", prof)
	}
	// APH: log2(D) + 2(w+1) = 23 stages; SRAM += 2^16×32b; TCAM = 64·D.
	aphP, _ := NewSkyline(SkylineConfig{Dims: 2, Points: 10, Heuristic: SkylineAPH})
	prof = aphP.Profile()
	if prof.Stages != 23 {
		t.Fatalf("APH stages = %d, want 23", prof.Stages)
	}
	if prof.SRAMBits != 10*3*64+(1<<16)*32 {
		t.Fatalf("APH SRAM = %d", prof.SRAMBits)
	}
	if prof.TCAMEntries != 128 {
		t.Fatalf("APH TCAM = %d, want 128", prof.TCAMEntries)
	}
	if sum.Name() != "skyline-Sum" || aphP.Name() != "skyline-APH" {
		t.Fatal("names")
	}
}

func TestSkylineReset(t *testing.T) {
	p, _ := NewSkyline(SkylineConfig{Dims: 2, Points: 2})
	p.Process([]uint64{5, 5})
	p.Reset()
	if len(p.StoredPoints()) != 0 || p.Stats().Processed != 0 {
		t.Fatal("reset incomplete")
	}
}

func BenchmarkSkylineAPHProcess(b *testing.B) {
	p, _ := NewSkyline(SkylineConfig{Dims: 2, Points: 10, Heuristic: SkylineAPH})
	s := uint64(1)
	vals := []uint64{0, 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s = hashutil.SplitMix64(s)
		vals[0], vals[1] = s%65536, (s>>32)%65536
		p.Process(vals)
	}
}
