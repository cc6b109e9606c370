package prune

import (
	"cheetah/internal/switchsim"
)

// This file implements the "OPT" curves of Figures 10 and 11: hypothetical
// streaming algorithms with no resource constraints. OPT upper-bounds the
// pruning rate of ANY switch algorithm, because a one-pass algorithm
// must forward every entry that could still affect the output given the
// prefix seen so far.

// optRef is what the OPT references share: their traffic tally, a name,
// the Deterministic guarantee (each is an exact oracle) and a nominal
// profile — OPT is resource-unconstrained and never installed on a
// pipeline.
type optRef struct {
	tally
	name string
}

// Name implements Pruner.
func (r *optRef) Name() string { return r.name }

// Guarantee implements Pruner.
func (r *optRef) Guarantee() Guarantee { return Deterministic }

// Profile implements switchsim.Program.
func (r *optRef) Profile() switchsim.Profile {
	return switchsim.Profile{Name: r.name, Stages: 1}
}

// OptDistinct forwards exactly the first occurrence of each value.
type OptDistinct struct {
	seen map[uint64]struct{}
	optRef
}

// NewOptDistinct builds the reference stream.
func NewOptDistinct() *OptDistinct {
	return &OptDistinct{optRef: optRef{name: "opt-distinct"}, seen: make(map[uint64]struct{})}
}

// Process implements switchsim.Program.
func (p *OptDistinct) Process(vals []uint64) switchsim.Decision {
	p.stats.Processed++
	if _, ok := p.seen[vals[0]]; ok {
		p.stats.Pruned++
		return switchsim.Prune
	}
	p.seen[vals[0]] = struct{}{}
	return switchsim.Forward
}

// Reset implements switchsim.Program.
func (p *OptDistinct) Reset() {
	p.seen = make(map[uint64]struct{})
	p.stats = Stats{}
}

// OptTopN forwards an entry iff it ranks among the top N of the prefix
// seen so far (any correct one-pass algorithm must forward those).
type OptTopN struct {
	n    int
	heap []int64 // min-heap of the current top-N
	optRef
}

// NewOptTopN builds the reference stream.
func NewOptTopN(n int) *OptTopN {
	if n < 1 {
		n = 1
	}
	return &OptTopN{optRef: optRef{name: "opt-topn"}, n: n, heap: make([]int64, 0, n)}
}

// Process implements switchsim.Program.
func (p *OptTopN) Process(vals []uint64) switchsim.Decision {
	p.stats.Processed++
	v := int64(vals[0])
	if len(p.heap) < p.n {
		p.push(v)
		return switchsim.Forward
	}
	if v <= p.heap[0] {
		p.stats.Pruned++
		return switchsim.Prune
	}
	p.heap[0] = v
	p.siftDown(0)
	return switchsim.Forward
}

func (p *OptTopN) push(v int64) {
	p.heap = append(p.heap, v)
	i := len(p.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if p.heap[parent] <= p.heap[i] {
			break
		}
		p.heap[parent], p.heap[i] = p.heap[i], p.heap[parent]
		i = parent
	}
}

func (p *OptTopN) siftDown(i int) {
	n := len(p.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && p.heap[l] < p.heap[small] {
			small = l
		}
		if r < n && p.heap[r] < p.heap[small] {
			small = r
		}
		if small == i {
			return
		}
		p.heap[i], p.heap[small] = p.heap[small], p.heap[i]
		i = small
	}
}

// Reset implements switchsim.Program.
func (p *OptTopN) Reset() {
	p.heap = p.heap[:0]
	p.stats = Stats{}
}

// OptSkyline forwards an entry iff no previously seen point dominates it.
type OptSkyline struct {
	dims   int
	points [][]uint64 // current skyline of the prefix
	optRef
}

// NewOptSkyline builds the reference stream.
func NewOptSkyline(dims int) *OptSkyline {
	if dims < 1 {
		dims = 1
	}
	return &OptSkyline{optRef: optRef{name: "opt-skyline"}, dims: dims}
}

// Process implements switchsim.Program.
func (p *OptSkyline) Process(vals []uint64) switchsim.Decision {
	p.stats.Processed++
	pt := vals[:p.dims]
	for _, s := range p.points {
		if dominates(s, pt) {
			p.stats.Pruned++
			return switchsim.Prune
		}
	}
	// Keep the prefix skyline small: drop stored points the new one
	// dominates, then store it.
	kept := p.points[:0]
	for _, s := range p.points {
		if !dominates(pt, s) {
			kept = append(kept, s)
		}
	}
	p.points = append(kept, append([]uint64(nil), pt...))
	return switchsim.Forward
}

// Reset implements switchsim.Program.
func (p *OptSkyline) Reset() {
	p.points = nil
	p.stats = Stats{}
}

// OptGroupBy forwards an entry iff it strictly improves its key's max.
type OptGroupBy struct {
	best map[uint64]int64
	optRef
}

// NewOptGroupBy builds the reference stream.
func NewOptGroupBy() *OptGroupBy {
	return &OptGroupBy{optRef: optRef{name: "opt-groupby"}, best: make(map[uint64]int64)}
}

// Process implements switchsim.Program.
func (p *OptGroupBy) Process(vals []uint64) switchsim.Decision {
	p.stats.Processed++
	k, v := vals[0], int64(vals[1])
	if cur, ok := p.best[k]; ok && v <= cur {
		p.stats.Pruned++
		return switchsim.Prune
	}
	p.best[k] = v
	return switchsim.Forward
}

// Reset implements switchsim.Program.
func (p *OptGroupBy) Reset() {
	p.best = make(map[uint64]int64)
	p.stats = Stats{}
}

// OptJoin knows both tables' exact key sets (an exact two-pass oracle):
// during the probe pass it forwards an entry iff the other side truly
// contains the key.
type OptJoin struct {
	a, b  map[uint64]struct{}
	probe bool
	optRef
}

// NewOptJoin builds the reference stream.
func NewOptJoin() *OptJoin {
	return &OptJoin{optRef: optRef{name: "opt-join"}, a: map[uint64]struct{}{}, b: map[uint64]struct{}{}}
}

// StartProbe moves to the probe pass.
func (p *OptJoin) StartProbe() { p.probe = true }

// Process implements switchsim.Program: vals[0] side, vals[1] key.
func (p *OptJoin) Process(vals []uint64) switchsim.Decision {
	p.stats.Processed++
	side, key := JoinSide(vals[0]), vals[1]
	if !p.probe {
		if side == SideA {
			p.a[key] = struct{}{}
		} else {
			p.b[key] = struct{}{}
		}
		p.stats.Pruned++
		return switchsim.Prune
	}
	other := p.b
	if side == SideB {
		other = p.a
	}
	if _, ok := other[key]; !ok {
		p.stats.Pruned++
		return switchsim.Prune
	}
	return switchsim.Forward
}

// Reset implements switchsim.Program.
func (p *OptJoin) Reset() {
	p.a = map[uint64]struct{}{}
	p.b = map[uint64]struct{}{}
	p.probe = false
	p.stats = Stats{}
}

// OptHaving keeps exact per-key aggregates (an exact Count-Min) and
// forwards an entry only while its key's running aggregate has just
// crossed the threshold or beyond.
type OptHaving struct {
	threshold int64
	sums      map[uint64]int64
	optRef
}

// NewOptHaving builds the reference stream for HAVING SUM > c.
func NewOptHaving(threshold int64) *OptHaving {
	return &OptHaving{optRef: optRef{name: "opt-having"}, threshold: threshold, sums: make(map[uint64]int64)}
}

// Process implements switchsim.Program: vals[0] key, vals[1] summand.
func (p *OptHaving) Process(vals []uint64) switchsim.Decision {
	p.stats.Processed++
	k := vals[0]
	p.sums[k] += int64(vals[1])
	if p.sums[k] <= p.threshold {
		p.stats.Pruned++
		return switchsim.Prune
	}
	return switchsim.Forward
}

// Reset implements switchsim.Program.
func (p *OptHaving) Reset() {
	p.sums = make(map[uint64]int64)
	p.stats = Stats{}
}

// Compile-time interface checks for every pruner in the package.
var (
	_ Pruner = (*Distinct)(nil)
	_ Pruner = (*DetTopN)(nil)
	_ Pruner = (*RandTopN)(nil)
	_ Pruner = (*GroupBy)(nil)
	_ Pruner = (*Join)(nil)
	_ Pruner = (*Having)(nil)
	_ Pruner = (*Skyline)(nil)
	_ Pruner = (*Filter)(nil)
	_ Pruner = (*OptDistinct)(nil)
	_ Pruner = (*OptTopN)(nil)
	_ Pruner = (*OptSkyline)(nil)
	_ Pruner = (*OptGroupBy)(nil)
	_ Pruner = (*OptJoin)(nil)
	_ Pruner = (*OptHaving)(nil)
)
