// Package fabric is Cheetah's multi-switch execution fabric: N
// simulated switch pipelines, each fronted by its own serving layer
// (admission + QueryID multiplexing), behind one placement interface.
// The paper's deployment is a distributed database where every rack's
// ToR switch prunes its own workers' streams; a Fabric is that set of
// ToR switches as one control-plane object.
//
// Two usage shapes map onto it:
//
//   - Query placement (serving): each concurrent query runs whole on
//     one switch. Admit picks the least-loaded switch first and, when
//     every switch is busy, joins the FIFO queue of the least-contended
//     one — aggregate serving throughput scales with switch count.
//   - Scatter/gather (scale-out): one query is sharded across the
//     healthy switches. AdmitShards places one program per shard and
//     the engine's ExecSharded streams each shard through its own
//     lease.
//
// The fabric also owns the switch failure lifecycle (§7.2): Fail(i)
// kills a switch (its serving layer revokes leases and sheds waiters),
// Restore(i) reboots it with an empty pipeline, and Add grows the
// fabric with a fresh switch. Placement routes around failed switches;
// when every switch is dead, admission fails with serve.ErrFailed and
// callers fall back to exact direct execution — the servers are the
// exactness backstop, so switch loss costs performance, never
// correctness.
//
// Placement is deliberately simple and deterministic given a load
// snapshot; adaptive placement (Cuttlefish-style learned policies) can
// swap in behind the same Admit signature.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"cheetah/internal/serve"
	"cheetah/internal/stats"
	"cheetah/internal/switchsim"
)

// Options configures a fabric.
type Options struct {
	// Switches is the pipeline count; ≤ 0 selects 1.
	Switches int
	// Model is the hardware model every switch simulates. The zero
	// value selects switchsim.Tofino(). Fabrics are homogeneous — the
	// paper's racks deploy identical ToR switches.
	Model switchsim.Model
	// QueueLimit caps each switch's admission wait queue (0 =
	// unbounded); admissions beyond every queue's cap shed load.
	QueueLimit int
	// TenantQuota caps any one tenant's concurrently active QoS leases
	// per switch (0 = unlimited); see serve.Options.TenantQuota.
	TenantQuota int
}

// Fabric owns N per-switch serving layers. All methods are safe for
// concurrent use.
type Fabric struct {
	mu          sync.RWMutex
	servers     []*serve.Server
	model       switchsim.Model
	queueLimit  int
	tenantQuota int
	metrics     *stats.Registry
}

// New builds a fabric of opts.Switches fresh pipelines.
func New(opts Options) (*Fabric, error) {
	if opts.Switches <= 0 {
		opts.Switches = 1
	}
	if opts.Model.Stages == 0 {
		opts.Model = switchsim.Tofino()
	}
	f := &Fabric{
		model:       opts.Model,
		queueLimit:  opts.QueueLimit,
		tenantQuota: opts.TenantQuota,
		metrics:     stats.NewRegistry(),
	}
	for i := 0; i < opts.Switches; i++ {
		srv, err := f.newServer(i)
		if err != nil {
			return nil, err
		}
		f.servers = append(f.servers, srv)
	}
	return f, nil
}

// newServer builds switch i's serving layer wired to the shared metrics
// registry.
func (f *Fabric) newServer(i int) (*serve.Server, error) {
	return serve.New(serve.Options{
		Model:       f.model,
		QueueLimit:  f.queueLimit,
		TenantQuota: f.tenantQuota,
		Metrics:     f.metrics,
		Label:       strconv.Itoa(i),
	})
}

// snapshot returns the current server list. Servers are only ever
// appended (switch indices are stable for the fabric's lifetime), so
// the returned slice is safe to iterate without the lock.
func (f *Fabric) snapshot() []*serve.Server {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.servers
}

// Size returns the switch count.
func (f *Fabric) Size() int { return len(f.snapshot()) }

// Model returns the per-switch hardware model.
func (f *Fabric) Model() switchsim.Model { return f.model }

// Metrics returns the fabric-wide operational-counters registry shared
// by every switch's serving layer (series are labeled by switch index
// and tenant).
func (f *Fabric) Metrics() *stats.Registry { return f.metrics }

// Server returns switch i's serving layer, for direct (per-switch)
// control-plane access.
func (f *Fabric) Server(i int) *serve.Server { return f.snapshot()[i] }

// Stats returns each switch's serving counters, indexed by switch.
func (f *Fabric) Stats() []serve.Counters {
	servers := f.snapshot()
	out := make([]serve.Counters, len(servers))
	for i, s := range servers {
		out[i] = s.Stats()
	}
	return out
}

// Total returns the serving counters summed across the switches.
func (f *Fabric) Total() serve.Counters {
	var total serve.Counters
	for _, s := range f.snapshot() {
		total.Add(s.Stats())
	}
	return total
}

// Utilization returns each switch's pipeline occupancy, indexed by
// switch.
func (f *Fabric) Utilization() []switchsim.Utilization {
	servers := f.snapshot()
	out := make([]switchsim.Utilization, len(servers))
	for i, s := range servers {
		out[i] = s.Utilization()
	}
	return out
}

// Fail kills switch i: active leases are revoked, queued admissions
// fail, and the switch stops pruning (a dead pipeline forwards
// everything). Out-of-range indices are a no-op.
func (f *Fabric) Fail(i int) {
	servers := f.snapshot()
	if i < 0 || i >= len(servers) {
		return
	}
	servers[i].Fail()
}

// Restore reboots failed switch i with a fresh, empty pipeline.
// Standing programs that lived there must be re-admitted by their
// owners. Out-of-range indices are a no-op.
func (f *Fabric) Restore(i int) error {
	servers := f.snapshot()
	if i < 0 || i >= len(servers) {
		return nil
	}
	return servers[i].Restore()
}

// Failed reports whether switch i is currently failed.
func (f *Fabric) Failed(i int) bool {
	servers := f.snapshot()
	if i < 0 || i >= len(servers) {
		return true
	}
	return servers[i].Failed()
}

// Add grows the fabric by one fresh switch and returns its index.
// Existing placements are untouched; subsequent admissions see the new
// capacity.
func (f *Fabric) Add() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := len(f.servers)
	srv, err := f.newServer(i)
	if err != nil {
		return 0, err
	}
	f.servers = append(f.servers, srv)
	return i, nil
}

// Healthy returns the indices of the currently non-failed switches, in
// ascending order.
func (f *Fabric) Healthy() []int {
	servers := f.snapshot()
	out := make([]int, 0, len(servers))
	for i, s := range servers {
		if !s.Failed() {
			out = append(out, i)
		}
	}
	return out
}

// Placement is one admitted query's hold on the fabric: the lease plus
// the switch it landed on.
type Placement struct {
	*serve.Lease
	// Switch is the index of the pipeline the query was placed on.
	Switch int
}

// sortedBy returns the switch indices ordered ascending by less over
// the load snapshot (insertion sort: fabrics are a handful of racks).
// Ties break toward the lower index for determinism.
func sortedBy(stats []serve.Counters, less func(a, b serve.Counters) bool) []int {
	order := make([]int, len(stats))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && less(stats[order[j]], stats[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// Admit places one query's program on the fabric with default QoS,
// outside every tenant's quota (serve.Server.Admit). See AdmitQoS.
func (f *Fabric) Admit(ctx context.Context, prog switchsim.Program) (*Placement, error) {
	return f.admit(prog,
		func(s *serve.Server) (*serve.Lease, error) { return s.TryAdmit(prog) },
		func(s *serve.Server) (*serve.Lease, error) { return s.Admit(ctx, prog) })
}

// TryAdmit places prog on the least-loaded healthy switch without
// blocking, with default QoS, outside every tenant's quota
// (serve.Server.TryAdmit). See TryAdmitQoS.
func (f *Fabric) TryAdmit(prog switchsim.Program) (*Placement, error) {
	return f.tryAdmit(prog, func(s *serve.Server) (*serve.Lease, error) { return s.TryAdmit(prog) })
}

// TryAdmitQoS places one query's program on the fabric without
// blocking: healthy switches are tried in ascending load order (active
// leases, then queue depth, then index for determinism) with
// non-blocking admission. serve.ErrBusy is returned when every healthy
// switch is at capacity right now, serve.ErrFailed only when every
// switch is dead; ErrNeverFits and ErrClosed propagate. Failover paths
// use this shape — a dead standing program must move to a survivor
// immediately or fall back to exact execution, never wait in a queue
// behind other queries.
func (f *Fabric) TryAdmitQoS(prog switchsim.Program, qos serve.QoS) (*Placement, error) {
	return f.tryAdmit(prog, func(s *serve.Server) (*serve.Lease, error) { return s.TryAdmitQoS(prog, qos) })
}

// tryAdmit is the TryAdmitQoS sweep, with try as each switch's
// non-blocking admission of prog.
func (f *Fabric) tryAdmit(prog switchsim.Program, try func(*serve.Server) (*serve.Lease, error)) (*Placement, error) {
	if prog == nil {
		return nil, fmt.Errorf("fabric: Admit needs a program")
	}
	servers := f.snapshot()
	stats := make([]serve.Counters, len(servers))
	for i, s := range servers {
		stats[i] = s.Stats()
	}
	// Least-loaded first: fewest active leases, breaking ties toward the
	// shorter queue.
	var lastErr error = serve.ErrFailed
	for _, i := range sortedBy(stats, func(a, b serve.Counters) bool {
		if a.Active != b.Active {
			return a.Active < b.Active
		}
		return a.Queued < b.Queued
	}) {
		l, err := try(servers[i])
		if err == nil {
			return &Placement{Lease: l, Switch: i}, nil
		}
		// Failed switches are routed around; every survivor is still a
		// candidate.
		if errors.Is(err, serve.ErrFailed) {
			continue
		}
		lastErr = err
		// A program the model can never host fails on every identical
		// switch, and a closed server means the fabric is closing.
		if !errors.Is(err, serve.ErrBusy) {
			return nil, err
		}
	}
	return nil, lastErr
}

// AdmitQoS places one query's program on the fabric: the non-blocking
// TryAdmitQoS sweep first; when every switch is busy the call joins the
// wait queue of the least-contended healthy switch (shortest queue,
// then fewest active, then lowest index), retrying the
// next-least-contended queue when one is at its cap or dies while
// waiting. ErrNeverFits and ErrClosed propagate from the serving layer;
// ErrQueueFull is returned only when every healthy switch's queue is at
// its cap; serve.ErrFailed only when every switch is dead — the
// caller's cue to run the query exactly without pruning (§7.2).
func (f *Fabric) AdmitQoS(ctx context.Context, prog switchsim.Program, qos serve.QoS) (*Placement, error) {
	return f.admit(prog,
		func(s *serve.Server) (*serve.Lease, error) { return s.TryAdmitQoS(prog, qos) },
		func(s *serve.Server) (*serve.Lease, error) { return s.AdmitQoS(ctx, prog, qos) })
}

// admit is the AdmitQoS sweep, with try and wait as each switch's
// non-blocking and queueing admissions of prog.
func (f *Fabric) admit(prog switchsim.Program, try, wait func(*serve.Server) (*serve.Lease, error)) (*Placement, error) {
	if p, err := f.tryAdmit(prog, try); err == nil || !errors.Is(err, serve.ErrBusy) {
		return p, err
	}
	servers := f.snapshot()
	stats := make([]serve.Counters, len(servers))
	for i, s := range servers {
		stats[i] = s.Stats()
	}
	var lastErr error = serve.ErrFailed
	// Everyone is busy: wait on the least-contended switch, falling
	// through to the next-least-contended instead of shedding while some
	// switch still has queue capacity (or if the one we queued on dies).
	for _, i := range sortedBy(stats, func(a, b serve.Counters) bool {
		if a.Queued != b.Queued {
			return a.Queued < b.Queued
		}
		return a.Active < b.Active
	}) {
		l, err := wait(servers[i])
		if err == nil {
			return &Placement{Lease: l, Switch: i}, nil
		}
		if errors.Is(err, serve.ErrFailed) {
			continue
		}
		lastErr = err
		if !errors.Is(err, serve.ErrQueueFull) {
			return nil, err
		}
	}
	return nil, lastErr
}

// AdmitShards places one program per shard for a scatter/gather
// execution — progs[i] on the i-th healthy switch, wrapping round-robin
// when shards outnumber survivors (with all switches healthy and one
// program per switch this is the identity placement progs[i] → switch
// i). Admission waits FIFO on each switch as needed; a switch that dies
// mid-sequence is dropped from the rotation and the shard retries on
// the survivors. On any terminal failure the already-granted leases are
// released, so a partially admitted scatter never leaks programs. When
// no switch is healthy, fails with serve.ErrFailed. Like Admit, the
// leases count toward no tenant's quota.
func (f *Fabric) AdmitShards(ctx context.Context, progs []switchsim.Program) ([]*Placement, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("fabric: AdmitShards needs at least one program")
	}
	if n := f.Size(); len(progs) > n {
		return nil, fmt.Errorf("fabric: got %d programs for %d switches", len(progs), n)
	}
	placements := make([]*Placement, len(progs))
	rollback := func(k int) {
		for _, p := range placements[:k] {
			if p != nil {
				p.Release()
			}
		}
	}
	healthy := f.Healthy()
	for i, prog := range progs {
		var placed *Placement
		// Bounded retry: each ErrFailed removes at least one switch from
		// the rotation, so Size() attempts cover the worst case.
		for attempt := 0; attempt <= f.Size() && placed == nil; attempt++ {
			if len(healthy) == 0 {
				rollback(i)
				return nil, fmt.Errorf("fabric: shard %d: %w", i, serve.ErrFailed)
			}
			sw := healthy[i%len(healthy)]
			l, err := f.Server(sw).Admit(ctx, prog)
			switch {
			case err == nil:
				placed = &Placement{Lease: l, Switch: sw}
			case errors.Is(err, serve.ErrFailed):
				// The switch died between the health check and admission:
				// recompute the survivor set and retry this shard.
				healthy = f.Healthy()
			default:
				rollback(i)
				return nil, fmt.Errorf("fabric: switch %d: %w", sw, err)
			}
		}
		if placed == nil {
			rollback(i)
			return nil, fmt.Errorf("fabric: shard %d: %w", i, serve.ErrFailed)
		}
		placements[i] = placed
	}
	return placements, nil
}

// Close shuts every switch's serving layer down: queued admissions and
// future Admit calls fail with serve.ErrClosed. Active leases stay
// valid. Idempotent.
func (f *Fabric) Close() {
	for _, s := range f.snapshot() {
		s.Close()
	}
}
