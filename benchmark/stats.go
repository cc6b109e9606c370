package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// numBlocks is how many equal blocks of whole periods a loop is cut into
// for its rate: queries_per_s is the median of the block rates, so one
// slow stretch (a noisy neighbour) moves one block, not the reported
// value.
// Latencies are plain medians over the whole loop: with a few dozen
// samples per kind, medians of block medians repeated worse.
const numBlocks = 5

func sorted(xs []float64) []float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp
}

// percentile interpolates the p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := sorted(xs)
	rank := p / 100 * float64(len(cp)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	return cp[lo] + (cp[hi]-cp[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// blocks cuts xs, kept in measurement order, into n equal runs (fewer
// when xs is shorter than n).
func blocks(xs []float64, n int) [][]float64 {
	if len(xs) < n {
		n = len(xs)
	}
	out := make([][]float64, 0, n)
	for b := 0; b < n; b++ {
		out = append(out, xs[b*len(xs)/n:(b+1)*len(xs)/n])
	}
	return out
}

// hiPercentile picks the highest percentile of the usual ladder that
// still has at least ten of n samples beyond it (50 when none has).
func hiPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// spread is (max − min) ÷ median, the run-to-run or block-to-block
// width of a handful of values.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	cp := sorted(xs)
	return (cp[len(cp)-1] - cp[0]) / m
}

var calibSink uint64

// calibrate times a fixed pure-CPU kernel (a dependent multiply-xorshift
// chain, no memory traffic) and returns the fastest of three runs in
// milliseconds. It is run before and after each pass: when the machine
// itself was slower, this number says so, and compare refuses to call a
// difference a regression.
func calibrate() float64 {
	best := math.MaxFloat64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 12_000_000; i++ {
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			x += uint64(i)
		}
		calibSink += x
		if ms := msSince(t0); ms < best {
			best = ms
		}
	}
	return best
}

// The machine gauge. The reference box is a slice of a shared host, and
// for spells of a minute or three everything on it runs 10 to 45 % slower
// — every kind on every workload together, most where the work misses
// caches, while a pure ALU loop reads the same. Medians cannot take out
// what lasts longer than the run, so the untraced pass measures the
// machine beside the program and reports its times as they would read
// at the gauge's reference speed.
//
// One reading is a fixed piece of harness code: a dependent
// multiply-xorshift chain (ALU only, somewhat over half of a quiet
// reading), then look-ups of scattered keys in a string-keyed map of
// 65 536 URLs whose 6 MB miss the core's own caches (the rest: with less
// of it HAVING, JOIN and SKYLINE on the served workloads stayed half as
// exposed again as the other kinds, with more the cheap kinds were
// over-corrected). Readings are taken in bursts of gaugeReps about once
// a second, while no op is in flight: between set-ups, at period
// boundaries of the query loop, between paced batches and between flood
// bursts. The run's factor is gaugeRefMs ÷ the median reading.
const (
	gaugeALUIters = 1_200_000
	gaugeLookups  = 16_000
	gaugeKeys     = 1 << 16
	gaugeReps     = 5
	gaugeEvery    = time.Second
	// gaugeRefMs is what a reading takes on the reference box in a quiet
	// spell. It only fixes the scale of the reported numbers.
	gaugeRefMs = 4.8
)

// gauge is nil-safe like the tracer: a nil gauge reads nothing and its
// factor is 1.
type gauge struct {
	keys []string
	m    map[string]int

	mu   sync.Mutex
	pos  uint32
	ms   []float64 // every reading
	last time.Time
}

func newGauge() *gauge {
	g := &gauge{keys: make([]string, gaugeKeys), m: make(map[string]int, gaugeKeys)}
	var vg visitGen
	for i := range g.keys {
		g.keys[i] = vg.url(i * 7919 % 1_000_003)
		g.m[g.keys[i]] = i
	}
	return g
}

func (g *gauge) read() float64 {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < gaugeALUIters; i++ {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x += uint64(i)
	}
	hits := 0
	for i := 0; i < gaugeLookups; i++ {
		g.pos = g.pos*1103515245 + 12345
		if _, ok := g.m[g.keys[(g.pos>>8)%gaugeKeys]]; ok {
			hits++
		}
	}
	calibSink += x + uint64(hits)
	return msSince(t0)
}

// tick takes gaugeReps readings when gaugeEvery has passed since the
// last ones.
func (g *gauge) tick() {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if time.Since(g.last) < gaugeEvery {
		return
	}
	for r := 0; r < gaugeReps; r++ {
		g.ms = append(g.ms, g.read())
	}
	g.last = time.Now()
}

// factor is what a time measured in this run is multiplied by (and a
// rate divided by) to read as at the reference speed, with the median
// reading and the number of readings it rests on.
func (g *gauge) factor() (f, medianMs float64, n int) {
	if g == nil {
		return 1, 0, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.ms) == 0 {
		return 1, 0, 0
	}
	medianMs = median(g.ms)
	return gaugeRefMs / medianMs, medianMs, len(g.ms)
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }
func usSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Microsecond) }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
// Each workload runs in its own process, so the figure is per workload.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
