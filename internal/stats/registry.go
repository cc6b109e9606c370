package stats

// This file is the fabric's operational-metrics registry — the
// benthos-metrics shape: a flat namespace of named series, each
// refined by an ordered set of label pairs (switch index, tenant), all
// updates lock-free on the hot path. Three series types share one
// keyspace:
//
//   - Counter: monotonically increasing (admissions, sheds, failovers);
//   - Gauge:   instantaneous level (queue depth, active leases);
//   - Histogram: fixed-bucket latency distribution (admission wait,
//     query latency) with p50/p90/p99 estimation — see metrics.go.
//
// The fabric counts admissions, sheds, revocations, deadline misses,
// failovers and re-placements per switch and per tenant through one
// shared Registry; netserve observes
// query latency and credit-window stalls; benches, tests and the
// /metrics exposition (expo.go) read it back as deterministic sorted
// snapshots keyed "name{k=v,...}".

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is one monotonically increasing counter. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct {
	n atomic.Uint64
}

// Incr adds delta to the counter.
func (c *Counter) Incr(delta uint64) { c.n.Add(delta) }

// Get returns the counter's current value.
func (c *Counter) Get() uint64 { return c.n.Load() }

// series is the registry's record of one interned key: the parsed
// (name, sorted label pairs) that exposition needs to re-render the
// key with quoting, plus whichever typed instrument the key holds.
type series struct {
	name   string
	labels []string // sorted k, v alternating
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry is a labeled-series registry. Handles are interned: the
// same (name, labels) pair always returns the same instrument, so hot
// paths resolve a handle once and update without further lookups. A
// key holds exactly one instrument type; asking for a second type
// under the same key panics — that is a wiring bug, not load.
type Registry struct {
	mu     sync.RWMutex
	byKey  map[string]*series
	sorted []string // interned keys, sorted; rebuilt lazily
	dirty  bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*series)}
}

// counterKey canonicalizes (name, labels): labels are "k", "v" pairs,
// sorted by key so call-site ordering does not split a series. An odd
// trailing label value is ignored rather than corrupting the key.
func counterKey(name string, labels []string) (string, []string) {
	if len(labels) < 2 {
		return name, nil
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	canon := make([]string, 0, len(pairs)*2)
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%s", p.k, p.v)
		canon = append(canon, p.k, p.v)
	}
	b.WriteByte('}')
	return b.String(), canon
}

// intern finds or creates the series record for (name, labels).
func (r *Registry) intern(name string, labels []string) *series {
	key, canon := counterKey(name, labels)
	r.mu.RLock()
	s, ok := r.byKey[key]
	r.mu.RUnlock()
	if ok {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byKey[key]; ok {
		return s
	}
	s = &series{name: name, labels: canon}
	r.byKey[key] = s
	r.dirty = true
	return s
}

// Counter returns the counter for (name, labels), creating it on first
// use. Labels are alternating key, value strings.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	s := r.intern(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.c == nil {
		if s.g != nil || s.h != nil {
			panic("stats: series " + name + " already registered with a different type")
		}
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	s := r.intern(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.g == nil {
		if s.c != nil || s.h != nil {
			panic("stats: series " + name + " already registered with a different type")
		}
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram returns the histogram for (name, labels), creating it on
// first use.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	s := r.intern(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.h == nil {
		if s.c != nil || s.g != nil {
			panic("stats: series " + name + " already registered with a different type")
		}
		s.h = &Histogram{}
	}
	return s.h
}

// sortedKeys returns every interned key in sorted order, rebuilding
// the cached order only when registration changed it.
func (r *Registry) sortedKeys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dirty {
		// Build a fresh slice: previously returned orders may still be
		// iterated by readers that have released the lock.
		keys := make([]string, 0, len(r.byKey))
		for k := range r.byKey {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		r.sorted = keys
		r.dirty = false
	}
	return r.sorted
}

// Series is one exported counter sample: the canonical
// "name{k=v,...}" key and its current value.
type Series struct {
	Name  string
	Value uint64
}

// Snapshot returns every counter's current value keyed by its
// canonical series name, sorted by key — the order is deterministic
// and pinned, so exposition and test output are stable. Zero-valued
// series that were touched are included — a registered counter is part
// of the export surface. Gauges and histograms are exposed through
// WritePrometheus, not Snapshot (which predates them and stays a
// counter view).
func (r *Registry) Snapshot() []Series {
	keys := r.sortedKeys()
	out := make([]Series, 0, len(keys))
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, k := range keys {
		if s := r.byKey[k]; s.c != nil {
			out = append(out, Series{Name: k, Value: s.c.Get()})
		}
	}
	return out
}

// SnapshotMap returns the Snapshot as a map for membership-style
// lookups where ordering is irrelevant.
func (r *Registry) SnapshotMap() map[string]uint64 {
	snap := r.Snapshot()
	out := make(map[string]uint64, len(snap))
	for _, s := range snap {
		out[s.Name] = s.Value
	}
	return out
}

// Total sums every counter series of name across all label
// combinations.
func (r *Registry) Total(name string) uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var sum uint64
	for k, s := range r.byKey {
		if s.c == nil {
			continue
		}
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += s.c.Get()
		}
	}
	return sum
}
