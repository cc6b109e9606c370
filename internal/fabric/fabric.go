// Package fabric is Cheetah's serving layer: N simulated switch
// pipelines, the set of a distributed database's ToR switches, as one
// control-plane object. The paper's §5 multiplexes concurrent queries on
// one pipeline by carrying a query id in the Cheetah header and giving
// each admitted query its own register partition; a Fabric reproduces
// that control plane per switch. Each admission gets a fresh QueryID
// (flow id), its program is packed into the switch's shared pipeline via
// the usual CanInstall/Install arithmetic, and the returned Lease is a
// flow-scoped dataplane handle: the query never owns the pipeline, it
// owns a flow.
//
// Admit is the one way in. One program is placed whole on one switch,
// least-loaded first; k programs are one scatter, one program per
// healthy switch. When a switch is full an admission may wait in that
// switch's priority queue (FIFO within a priority level), re-admitted as
// completing queries release their resources. Every refusal is Admit's
// error: a program that cannot fit even an empty switch (ErrNeverFits —
// the caller's cue to fall back to exact direct execution), a full wait
// queue when a queue limit is set (ErrQueueFull), a QoS deadline passing
// in the queue (ErrDeadline), a busy fabric for an admission that does
// not wait (ErrBusy), a dead fabric (ErrFailed), a closed one (ErrClosed)
// and a cancelled context. Per-tenant quotas bound any one tenant's
// concurrently active one-shot leases per switch without letting a
// quota-blocked request stall other tenants. A standing program counts
// toward no quota: it holds its switch for its subscription's life and
// would otherwise keep its own tenant's later admissions waiting.
//
// The fabric also owns the switch failure lifecycle (§7.2): Fail(i)
// kills a switch — its active leases are revoked (Release becomes a
// no-op), its queued admissions fail with ErrFailed, and its dead
// pipeline forwards all traffic unpruned, which is exactly what keeps
// the master's completion exact. Restore(i) reboots it with a fresh,
// empty pipeline (revoked leases stay revoked; their owners re-admit
// with state rebuilt), and Add grows the fabric. Placement routes around
// dead switches, so switch loss costs performance, never correctness.
//
// Locks: the fabric's RWMutex guards only its switch list, which only
// grows; each switch's mutex guards its queue, leases, quotas and
// counters; the metrics registry takes its own lock and never calls
// back. No path holds two switches' locks at once.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"cheetah/internal/stats"
	"cheetah/internal/switchsim"
)

// ErrNeverFits marks a program whose profile exceeds the switch model
// itself: no amount of waiting frees enough resources, so admission
// fails immediately (the oversized-query bypass). Callers should run the
// query without pruning instead.
var ErrNeverFits = errors.New("fabric: program cannot fit the switch model even when idle")

// ErrQueueFull is returned when Options.QueueLimit is set and every
// healthy switch's wait queue is at capacity.
var ErrQueueFull = errors.New("fabric: admission wait queue is full")

// ErrClosed is returned for admissions against a closed fabric.
var ErrClosed = errors.New("fabric: fabric is closed")

// ErrBusy is returned by an admission that does not wait when the
// program fits the model but no switch can take it right now (occupancy,
// queued admissions it may not overtake, or its tenant's quota).
var ErrBusy = errors.New("fabric: pipeline is busy")

// ErrFailed is returned when no switch is alive to admit a program, and
// by Lease.Err once a lease has been revoked by switch failure. Like
// ErrNeverFits it is a direct-execution cue: the servers are the
// exactness backstop when the switch dies (§7.2).
var ErrFailed = errors.New("fabric: switch has failed")

// ErrDeadline is returned when a queued admission's QoS deadline passes
// before resources free up — deadline-based shedding.
var ErrDeadline = errors.New("fabric: admission deadline exceeded")

// Options configures a fabric.
type Options struct {
	// Switches is the pipeline count; ≤ 0 selects 1.
	Switches int
	// Model is the hardware model every switch simulates. The zero
	// value selects switchsim.Tofino(). Fabrics are homogeneous — the
	// paper's racks deploy identical ToR switches.
	Model switchsim.Model
	// QueueLimit caps each switch's admission wait queue (0 =
	// unbounded); admissions beyond every queue's cap fail with
	// ErrQueueFull.
	QueueLimit int
	// TenantQuota caps any one tenant's concurrently active one-shot
	// leases per switch (0 = unlimited). Quota-blocked admissions queue
	// without stalling other tenants.
	TenantQuota int
}

// QoS is one admission's quality-of-service envelope.
type QoS struct {
	// Tenant attributes the admission for quota accounting and metrics.
	Tenant string
	// Priority orders the wait queue: higher admits first, FIFO within a
	// level. The default 0 reproduces plain FIFO.
	Priority int
	// Deadline, when non-zero, sheds the admission with ErrDeadline if
	// it is still queued at that instant.
	Deadline time.Time
}

// Counters are cumulative serving statistics of one switch (Stats) or
// of the fabric (Total).
type Counters struct {
	Admitted       uint64 // leases granted (immediate + after waiting)
	Waited         uint64 // admissions that had to queue first
	Oversized      uint64 // ErrNeverFits rejections (direct-execution bypass)
	Shed           uint64 // ErrQueueFull rejections + waiters failed by switch death
	Revoked        uint64 // leases revoked by switch failure
	FailedOver     uint64 // one-shot leases retired after this switch failed
	Replaced       uint64 // standing leases retired after this switch failed
	DeadlineMissed uint64 // queued admissions shed at their QoS deadline
	Active         int    // leases currently held
	Queued         int    // admissions currently waiting
}

// Add accumulates o into c — the fabric-wide aggregation. Lives next to
// the struct so a new counter field is summed the day it is added.
func (c *Counters) Add(o Counters) {
	c.Admitted += o.Admitted
	c.Waited += o.Waited
	c.Oversized += o.Oversized
	c.Shed += o.Shed
	c.Revoked += o.Revoked
	c.FailedOver += o.FailedOver
	c.Replaced += o.Replaced
	c.DeadlineMissed += o.DeadlineMissed
	c.Active += o.Active
	c.Queued += o.Queued
}

// Fabric owns N switches' serving state. All methods are safe for
// concurrent use.
type Fabric struct {
	mu       sync.RWMutex
	switches []*switchState
	opts     Options
	metrics  *stats.Registry
}

// New builds a fabric of opts.Switches fresh pipelines.
func New(opts Options) (*Fabric, error) {
	if opts.Switches <= 0 {
		opts.Switches = 1
	}
	if opts.Model.Stages == 0 {
		opts.Model = switchsim.Tofino()
	}
	opts.QueueLimit = max(opts.QueueLimit, 0)
	opts.TenantQuota = max(opts.TenantQuota, 0)
	f := &Fabric{opts: opts, metrics: stats.NewRegistry()}
	for i := 0; i < opts.Switches; i++ {
		if _, err := f.Add(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// snapshot returns the current switch list. Switches are only ever
// appended (indices are stable for the fabric's lifetime), so the
// returned slice is safe to iterate without the lock.
func (f *Fabric) snapshot() []*switchState {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.switches
}

// at returns switch i, or nil when i is out of range.
func (f *Fabric) at(i int) *switchState {
	switches := f.snapshot()
	if i < 0 || i >= len(switches) {
		return nil
	}
	return switches[i]
}

// Size returns the switch count.
func (f *Fabric) Size() int { return len(f.snapshot()) }

// Model returns the per-switch hardware model.
func (f *Fabric) Model() switchsim.Model { return f.opts.Model }

// Metrics returns the fabric's operational-counters registry (series
// are labeled by switch index and tenant).
func (f *Fabric) Metrics() *stats.Registry { return f.metrics }

// Pipeline returns switch i's current pipeline, for control-plane and
// chaos-harness access (arming a FaultInjector, inspecting placements).
// After Restore(i) this is a different object than before the failure.
func (f *Fabric) Pipeline(i int) *switchsim.Pipeline {
	s := f.snapshot()[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pipe
}

// Stats returns each switch's serving counters, indexed by switch.
func (f *Fabric) Stats() []Counters {
	switches := f.snapshot()
	out := make([]Counters, len(switches))
	for i, s := range switches {
		out[i] = s.stats()
	}
	return out
}

// Total returns the serving counters summed across the switches.
func (f *Fabric) Total() Counters {
	var total Counters
	for _, s := range f.snapshot() {
		total.Add(s.stats())
	}
	return total
}

// Utilization returns each switch's pipeline occupancy, indexed by
// switch.
func (f *Fabric) Utilization() []switchsim.Utilization {
	switches := f.snapshot()
	out := make([]switchsim.Utilization, len(switches))
	for i, s := range switches {
		s.mu.Lock()
		pipe := s.pipe
		s.mu.Unlock()
		out[i] = pipe.Utilization()
	}
	return out
}

// Fail kills switch i: active leases are revoked, queued admissions
// fail with ErrFailed, and the switch stops pruning (a dead pipeline
// forwards everything). Idempotent; out-of-range indices are a no-op.
func (f *Fabric) Fail(i int) {
	if s := f.at(i); s != nil {
		s.mu.Lock()
		if !s.closed {
			s.failLocked()
		}
		s.mu.Unlock()
	}
}

// Restore reboots failed switch i with a fresh, empty pipeline — the
// "reboot the switch with empty states" recovery of §3. Leases revoked
// by the failure stay revoked; standing programs that lived there must
// be re-admitted by their owners. A healthy switch restores to itself;
// out-of-range indices are a no-op.
func (f *Fabric) Restore(i int) error {
	s := f.at(i)
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncFailureLocked()
	if s.closed {
		return ErrClosed
	}
	if !s.failed {
		return nil
	}
	pl, err := switchsim.NewPipeline(f.opts.Model)
	if err != nil {
		return err
	}
	s.pipe = pl
	s.failed = false
	return nil
}

// Failed reports whether switch i is currently failed (out-of-range
// indices report true).
func (f *Fabric) Failed(i int) bool {
	s := f.at(i)
	if s == nil {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncFailureLocked()
	return s.failed
}

// Add grows the fabric by one fresh switch and returns its index.
// Existing placements are untouched; subsequent admissions see the new
// capacity.
func (f *Fabric) Add() (int, error) {
	pl, err := switchsim.NewPipeline(f.opts.Model)
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	i := len(f.switches)
	f.switches = append(f.switches, &switchState{
		index:        i,
		label:        strconv.Itoa(i),
		metrics:      f.metrics,
		queueCap:     f.opts.QueueLimit,
		tenantQuota:  f.opts.TenantQuota,
		model:        f.opts.Model,
		pipe:         pl,
		nextFlow:     1,
		active:       make(map[uint32]*Lease),
		tenantActive: make(map[string]int),
	})
	return i, nil
}

// Healthy returns the indices of the currently non-failed switches, in
// ascending order.
func (f *Fabric) Healthy() []int {
	n := f.Size()
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !f.Failed(i) {
			out = append(out, i)
		}
	}
	return out
}

// Close shuts every switch down: queued admissions and future Admit
// calls fail with ErrClosed. Active leases stay valid; their Release
// still works. Idempotent.
func (f *Fabric) Close() {
	for _, s := range f.snapshot() {
		s.mu.Lock()
		if !s.closed {
			s.closed = true
			for _, w := range s.waiters {
				w.ready <- admitResult{err: ErrClosed}
			}
			s.waiters = nil
			s.occupancyLocked()
		}
		s.mu.Unlock()
	}
}

// Request is one admission: the program or programs to place and the
// terms they are placed on.
type Request struct {
	// Prog is one program, placed whole on one switch: healthy switches
	// in ascending load order (active leases, then queue depth, then
	// index) first, and, when every one is busy and Wait is set, the
	// wait queue of the least-contended one (queue depth, then active
	// leases, then index), moving to the next when a queue is at its cap
	// or its switch dies while waiting.
	Prog switchsim.Program
	// Shards, when Prog is nil, is one scatter/gather execution's
	// programs: Shards[i] on the i-th healthy switch, wrapping
	// round-robin when shards outnumber survivors (all switches healthy
	// and one shard per switch is the identity placement). A switch that
	// dies mid-sequence drops out of the rotation and the shard retries
	// on the survivors; any other refusal releases the leases already
	// granted, so a partial scatter never leaks programs.
	Shards []switchsim.Program
	// QoS attributes the leases and orders a waiting admission.
	QoS QoS
	// Wait lets an admission that cannot be placed now join a wait
	// queue; without it a busy fabric refuses with ErrBusy.
	Wait bool
	// Standing marks programs held for a subscription's lifetime: they
	// count toward no tenant's quota, and Lease.Retire records them as
	// replaced rather than failed over.
	Standing bool
}

// Admit places r's programs on the fabric and returns their leases, one
// for Prog or one per shard in order. A cancelled ctx is refused before
// anything is placed; while queued, the admission gives up when ctx is
// done or r.QoS.Deadline passes (ErrDeadline). ErrNeverFits, ErrClosed
// and a program's invalid profile fail at once; ErrQueueFull only when
// every healthy switch's queue is at its cap; ErrFailed only when no
// switch is alive — the caller's cue to run the query exactly without
// pruning (§7.2).
func (f *Fabric) Admit(ctx context.Context, r Request) ([]*Lease, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	progs := r.Shards
	if r.Prog != nil {
		if len(r.Shards) > 0 {
			return nil, fmt.Errorf("fabric: Admit takes a program or shards, not both")
		}
		progs = []switchsim.Program{r.Prog}
	}
	if len(progs) == 0 {
		return nil, fmt.Errorf("fabric: Admit needs a program")
	}
	for _, prog := range progs {
		if prog == nil {
			return nil, fmt.Errorf("fabric: Admit needs a program")
		}
		if err := prog.Profile().Validate(); err != nil {
			return nil, err
		}
	}
	if r.Prog != nil {
		l, err := f.place(ctx, r)
		if err != nil {
			return nil, err
		}
		return []*Lease{l}, nil
	}
	return f.scatter(ctx, r)
}

// place is Admit for one program.
func (f *Fabric) place(ctx context.Context, r Request) (*Lease, error) {
	// Least-loaded first, without waiting: fewest active leases, breaking
	// ties toward the shorter queue.
	byLoad := func(a, b Counters) bool {
		if a.Active != b.Active {
			return a.Active < b.Active
		}
		return a.Queued < b.Queued
	}
	l, err := f.sweep(byLoad, ErrBusy, func(s *switchState) (*Lease, error) {
		return s.admit(ctx, r.Prog, r.QoS, r.Standing, false)
	})
	if !r.Wait || !errors.Is(err, ErrBusy) {
		return l, err
	}
	// Everyone is busy: wait on the least-contended switch, falling
	// through to the next instead of shedding while some switch still has
	// queue capacity (or if the one queued on dies).
	byContention := func(a, b Counters) bool {
		if a.Queued != b.Queued {
			return a.Queued < b.Queued
		}
		return a.Active < b.Active
	}
	return f.sweep(byContention, ErrQueueFull, func(s *switchState) (*Lease, error) {
		return s.admit(ctx, r.Prog, r.QoS, r.Standing, true)
	})
}

// sweep tries admit on each switch in ascending order of less over a
// load snapshot (ties toward the lower index), returning the first
// lease. Failed switches are routed around; next is the refusal that
// moves on to the next switch, and any other ends the sweep — a program
// the model can never host fails on every identical switch, and a closed
// switch means the fabric is closing. ErrFailed means no switch is
// alive.
func (f *Fabric) sweep(less func(a, b Counters) bool, next error, admit func(*switchState) (*Lease, error)) (*Lease, error) {
	switches := f.snapshot()
	load := make([]Counters, len(switches))
	order := make([]int, len(switches))
	for i, s := range switches {
		load[i], order[i] = s.stats(), i
	}
	// Insertion sort: fabrics are a handful of racks.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && less(load[order[j]], load[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var lastErr error = ErrFailed
	for _, i := range order {
		l, err := admit(switches[i])
		if err == nil {
			return l, nil
		}
		if errors.Is(err, ErrFailed) {
			continue
		}
		lastErr = err
		if !errors.Is(err, next) {
			return nil, err
		}
	}
	return nil, lastErr
}

// scatter is Admit for shards.
func (f *Fabric) scatter(ctx context.Context, r Request) ([]*Lease, error) {
	if n := f.Size(); len(r.Shards) > n {
		return nil, fmt.Errorf("fabric: got %d programs for %d switches", len(r.Shards), n)
	}
	leases := make([]*Lease, 0, len(r.Shards))
	rollback := func(err error) ([]*Lease, error) {
		for _, l := range leases {
			l.Release()
		}
		return nil, err
	}
	healthy := f.Healthy()
	for i, prog := range r.Shards {
		var placed *Lease
		// Bounded retry: each ErrFailed removes at least one switch from
		// the rotation, so Size() attempts cover the worst case.
		for attempt := 0; attempt <= f.Size() && placed == nil && len(healthy) > 0; attempt++ {
			sw := healthy[i%len(healthy)]
			l, err := f.at(sw).admit(ctx, prog, r.QoS, r.Standing, r.Wait)
			switch {
			case err == nil:
				placed = l
			case errors.Is(err, ErrFailed):
				// The switch died between the health check and admission:
				// recompute the survivor set and retry this shard.
				healthy = f.Healthy()
			default:
				return rollback(fmt.Errorf("fabric: switch %d: %w", sw, err))
			}
		}
		if placed == nil {
			return rollback(fmt.Errorf("fabric: shard %d: %w", i, ErrFailed))
		}
		leases = append(leases, placed)
	}
	return leases, nil
}

// admitResult is a queued admission's outcome.
type admitResult struct {
	lease *Lease
	err   error
}

// waiter is one queued admission.
type waiter struct {
	prog     switchsim.Program
	qos      QoS
	standing bool             // outside qos.Tenant's quota
	ready    chan admitResult // buffered; receives the outcome exactly once
}

// switchState is one switch's serving state: its shared pipeline, flow
// ids, leases, wait queue, tenant quotas, failure state and counters,
// all guarded by mu.
type switchState struct {
	index       int
	label       string // index as the metrics' switch label
	metrics     *stats.Registry
	queueCap    int
	tenantQuota int
	model       switchsim.Model

	mu           sync.Mutex
	pipe         *switchsim.Pipeline // replaced wholesale by Restore
	nextFlow     uint32
	active       map[uint32]*Lease
	tenantActive map[string]int
	waiters      []*waiter
	closed       bool
	failed       bool
	counters     Counters
}

// stats returns a snapshot of the switch's counters.
func (s *switchState) stats() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncFailureLocked()
	c := s.counters
	c.Active = len(s.active)
	c.Queued = len(s.waiters)
	return c
}

// bumpLocked increments a per-switch/per-tenant metric series. Callers
// hold s.mu (the registry takes its own lock and never calls back).
func (s *switchState) bumpLocked(name, tenant string) {
	if tenant == "" {
		tenant = "-"
	}
	s.metrics.Counter(name, "switch", s.label, "tenant", tenant).Incr(1)
}

// occupancyLocked refreshes the per-switch queue-depth and active-lease
// gauges; called after every transition that changes either. Callers
// hold s.mu.
func (s *switchState) occupancyLocked() {
	s.metrics.Gauge("queue_depth", "switch", s.label).Set(int64(len(s.waiters)))
	s.metrics.Gauge("active_leases", "switch", s.label).Set(int64(len(s.active)))
}

// admit grants prog a lease on this switch under a fresh QueryID: at
// once when no eligible waiter of equal or higher priority would be
// overtaken, the tenant is under quota (a standing program always is)
// and the program fits. Otherwise an admission that does not wait fails
// with ErrBusy, and one that does joins the priority queue (ErrQueueFull
// when it is at its cap) until completing queries free enough
// resources, ctx is done, or qos.Deadline passes (ErrDeadline). A
// waiting admission's grant, immediate or queued, is observed in the
// admission_wait histogram.
func (s *switchState) admit(ctx context.Context, prog switchsim.Program, qos QoS, standing, wait bool) (*Lease, error) {
	start := time.Now()
	s.mu.Lock()
	if err := s.admitPrologueLocked(prog); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	busy := ErrBusy
	if !s.blockedByQueueLocked(qos.Priority) {
		if s.atQuotaLocked(qos.Tenant, standing) {
			busy = fmt.Errorf("%w: tenant %q at quota (%d active)", ErrBusy, qos.Tenant, s.tenantQuota)
		} else if l, err := s.installLocked(prog, qos.Tenant, standing); err == nil {
			s.mu.Unlock()
			if wait {
				s.observeWait(start)
			}
			return l, nil
		} else {
			busy = fmt.Errorf("%w: %v", ErrBusy, err)
		}
	}
	if !wait {
		s.mu.Unlock()
		return nil, busy
	}
	if s.queueCap > 0 && len(s.waiters) >= s.queueCap {
		s.counters.Shed++
		s.bumpLocked("shed", qos.Tenant)
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	w := &waiter{prog: prog, qos: qos, standing: standing, ready: make(chan admitResult, 1)}
	s.waiters = append(s.waiters, w)
	s.counters.Waited++
	s.occupancyLocked()
	s.mu.Unlock()

	var deadline <-chan time.Time
	if !qos.Deadline.IsZero() {
		t := time.NewTimer(time.Until(qos.Deadline))
		defer t.Stop()
		deadline = t.C
	}
	select {
	case r := <-w.ready:
		if r.err == nil {
			s.observeWait(start)
		}
		return r.lease, r.err
	case <-deadline:
		s.mu.Lock()
		removed := s.removeWaiterLocked(w)
		if removed {
			s.counters.DeadlineMissed++
			s.bumpLocked("deadline_missed", qos.Tenant)
		}
		s.mu.Unlock()
		if !removed {
			// Admission raced the deadline: the outcome was (or is being)
			// delivered — take it, the resources are already committed.
			r := <-w.ready
			return r.lease, r.err
		}
		return nil, ErrDeadline
	case <-ctx.Done():
		s.mu.Lock()
		removed := s.removeWaiterLocked(w)
		s.mu.Unlock()
		if !removed {
			// Admission raced the cancellation: the lease was (or is
			// being) delivered. Take it and give the resources back.
			if r := <-w.ready; r.err == nil {
				r.lease.Release()
			}
		}
		return nil, ctx.Err()
	}
}

// observeWait records how long one successful admission took from call
// to lease grant — immediate admissions land in the lowest bucket, so
// the histogram's upper quantiles isolate genuine queue waits.
func (s *switchState) observeWait(start time.Time) {
	s.metrics.Histogram("admission_wait", "switch", s.label).Observe(time.Since(start).Nanoseconds())
}

// syncFailureLocked promotes an injector-initiated pipeline death to
// switch-level failure: the serving state may learn of the dead switch
// lazily, but every control-plane path observes a consistent state —
// leases revoked, waiters failed. Callers hold s.mu.
func (s *switchState) syncFailureLocked() {
	if !s.failed && !s.closed && s.pipe.Failed() {
		s.failLocked()
	}
}

// admitPrologueLocked is the admission gate: a closed switch rejects
// everything, a failed one rejects with the direct-execution cue, and a
// program the model can never host must not occupy a queue slot it can
// never leave successfully (the oversized bypass, counted once per
// rejection). Callers hold s.mu.
func (s *switchState) admitPrologueLocked(prog switchsim.Program) error {
	s.syncFailureLocked()
	if s.closed {
		return ErrClosed
	}
	if s.failed {
		return ErrFailed
	}
	if err := s.model.Admits(prog.Profile()); err != nil {
		s.counters.Oversized++
		return fmt.Errorf("%w: %v", ErrNeverFits, err)
	}
	return nil
}

// atQuotaLocked reports whether a one-shot admission (not standing) of
// tenant must wait because tenant holds its full quota of active leases.
// Callers hold s.mu.
func (s *switchState) atQuotaLocked(tenant string, standing bool) bool {
	return !standing && s.tenantQuota > 0 && s.tenantActive[tenant] >= s.tenantQuota
}

// blockedByQueueLocked reports whether an arriving admission at pri
// would overtake an eligible queued waiter of equal or higher priority
// (quota-blocked waiters are not overtakable — they are not runnable).
// Callers hold s.mu.
func (s *switchState) blockedByQueueLocked(pri int) bool {
	for _, w := range s.waiters {
		if w.qos.Priority >= pri && !s.atQuotaLocked(w.qos.Tenant, w.standing) {
			return true
		}
	}
	return false
}

// installLocked packs prog into the pipeline under a fresh flow id and
// records the lease, counted toward tenant's quota unless standing.
// Callers hold s.mu.
func (s *switchState) installLocked(prog switchsim.Program, tenant string, standing bool) (*Lease, error) {
	flowID := s.nextFlow
	for {
		if _, taken := s.active[flowID]; !taken && flowID != 0 {
			break
		}
		flowID++
	}
	if err := s.pipe.Install(flowID, prog); err != nil {
		return nil, err
	}
	s.nextFlow = flowID + 1
	l := &Lease{s: s, pipe: s.pipe, flowID: flowID, prog: prog, tenant: tenant, standing: standing,
		util: s.pipe.Utilization(), Switch: s.index}
	s.active[flowID] = l
	if !standing {
		s.tenantActive[tenant]++
	}
	s.counters.Admitted++
	s.bumpLocked("admitted", tenant)
	s.occupancyLocked()
	return l, nil
}

// removeWaiterLocked drops w from the queue, reporting whether it was
// still queued. Callers hold s.mu.
func (s *switchState) removeWaiterLocked(w *waiter) bool {
	for i, q := range s.waiters {
		if q == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			s.occupancyLocked()
			return true
		}
	}
	return false
}

// release uninstalls a lease's program and re-admits waiters. Releasing
// a revoked lease — or a lease whose flow id has been recycled after a
// fail/restore cycle — is a no-op: the resources it held died with the
// switch.
func (s *switchState) release(l *Lease) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncFailureLocked()
	if l.revoked {
		return
	}
	if cur, ok := s.active[l.flowID]; !ok || cur != l {
		return
	}
	// Uninstall only needs the lease's own traffic to have stopped, and
	// it has: a lease is released by the query's execution goroutine
	// after its last batch. Other flows' in-flight batches are untouched
	// — they run on their own programs, looked up before this point.
	if err := l.pipe.Uninstall(l.flowID); err != nil {
		// The lease is the only installer for its flow id on a healthy
		// pipeline; failure here means the invariant broke, which the
		// churn tests guard.
		panic(fmt.Sprintf("fabric: uninstall flow %d: %v", l.flowID, err))
	}
	delete(s.active, l.flowID)
	if !l.standing {
		s.tenantActive[l.tenant]--
		if s.tenantActive[l.tenant] <= 0 {
			delete(s.tenantActive, l.tenant)
		}
	}
	s.admitWaitersLocked()
	s.occupancyLocked()
}

// admitWaitersLocked grants leases while the best eligible waiter —
// highest priority, FIFO within a level, skipping tenants at quota —
// fits. Strict head-of-line within the eligible set: a large query at
// the effective head blocks smaller ones behind it from jumping ahead,
// so no query starves; only quota-blocked waiters are skipped (their
// unblocking event is their own tenant's release, not resource
// headroom). Callers hold s.mu.
func (s *switchState) admitWaitersLocked() {
	for {
		best := -1
		for i, w := range s.waiters {
			if s.atQuotaLocked(w.qos.Tenant, w.standing) {
				continue
			}
			if best == -1 || w.qos.Priority > s.waiters[best].qos.Priority {
				best = i
			}
		}
		if best < 0 {
			return
		}
		w := s.waiters[best]
		l, err := s.installLocked(w.prog, w.qos.Tenant, w.standing)
		if err != nil {
			return
		}
		s.waiters = append(s.waiters[:best], s.waiters[best+1:]...)
		w.ready <- admitResult{lease: l}
	}
}

// failLocked kills the switch (§7.2): the pipeline is marked dead (all
// subsequent traffic forwards unpruned), every active lease is revoked —
// its Release becomes a no-op and Err reports ErrFailed — and every
// queued admission fails with ErrFailed. Callers hold s.mu.
func (s *switchState) failLocked() {
	if s.failed {
		return
	}
	s.failed = true
	s.pipe.Fail()
	for _, l := range s.active {
		l.revoked = true
		s.counters.Revoked++
		s.bumpLocked("revoked", l.tenant)
	}
	s.active = make(map[uint32]*Lease)
	s.tenantActive = make(map[string]int)
	for _, w := range s.waiters {
		s.counters.Shed++
		s.bumpLocked("shed", w.qos.Tenant)
		w.ready <- admitResult{err: ErrFailed}
	}
	s.waiters = nil
	s.occupancyLocked()
}

// retired records that a lease on this switch was given up after the
// switch failed and its work moved elsewhere: a standing program as
// replaced, a one-shot query as failed over.
func (s *switchState) retired(standing bool, tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if standing {
		s.counters.Replaced++
		s.bumpLocked("replaced", tenant)
	} else {
		s.counters.FailedOver++
		s.bumpLocked("failed_over", tenant)
	}
}

// Lease is one admitted program's hold on one switch: its QueryID, its
// installed program, the switch it landed on, and the flow-scoped
// dataplane handle the batched engine executes through. It implements
// engine.BatchDataplane and engine.HealthDataplane.
type Lease struct {
	s        *switchState
	pipe     *switchsim.Pipeline // the pipeline the program was installed on
	flowID   uint32
	prog     switchsim.Program
	tenant   string
	standing bool
	util     switchsim.Utilization
	once     sync.Once
	// revoked is guarded by s.mu: set when the switch fails.
	revoked bool
	// Switch is the index of the switch the program was placed on.
	Switch int
}

// QueryID returns the flow id the fabric assigned this query — the value
// the Cheetah header would carry to select the query's register
// partition (§5).
func (l *Lease) QueryID() uint32 { return l.flowID }

// Program returns the installed program, for control-plane operations
// (probe switchover, end-of-stream drains) that address the program
// directly.
func (l *Lease) Program() switchsim.Program { return l.prog }

// Tenant returns the admission's QoS tenant.
func (l *Lease) Tenant() string { return l.tenant }

// Utilization returns the switch's pipeline occupancy snapshot taken at
// this lease's admission — the per-query utilization surfaced in
// execution reports.
func (l *Lease) Utilization() switchsim.Utilization { return l.util }

// ProcessBatch routes one batch through the lease's pipeline under its
// QueryID. On a failed switch every entry forwards — the dataplane never
// lies toward wrong results, only toward more master work.
func (l *Lease) ProcessBatch(b *switchsim.Batch, decisions []switchsim.Decision) {
	l.pipe.ProcessBatch(l.flowID, b, decisions)
}

// FusedProgram reports whether the engine's fused loops may drive this
// lease's program directly, returning it when so and nil otherwise
// (failed switch, uninstalled flow, fault injector armed — the pipeline
// decides; see switchsim.Pipeline.FusedProgram). The lease's owner is
// the only goroutine driving its flow's traffic, so direct access
// preserves the per-flow ownership discipline, and the engine still runs
// its post-pass Err check for failover.
func (l *Lease) FusedProgram() switchsim.Program {
	return l.pipe.FusedProgram(l.flowID)
}

// Err reports the lease's health: nil while the switch holds the
// program, ErrFailed once the switch has failed (the program and its
// register state are gone, and any pass that crossed the failure must be
// redone — the engine's failover hook).
func (l *Lease) Err() error {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	l.s.syncFailureLocked()
	if l.revoked {
		return ErrFailed
	}
	return nil
}

// Release uninstalls the program and re-admits queued waiters. It is
// idempotent, and a no-op once the switch failed (the pipeline that held
// the program is gone); it still works after Close.
func (l *Lease) Release() {
	l.once.Do(func() { l.s.release(l) })
}

// Retire gives up a lease whose switch died under it once its work has
// moved elsewhere: the lease's own switch counts a standing program as
// replaced and a one-shot query as failed over, then the lease
// releases.
func (l *Lease) Retire() {
	l.s.retired(l.standing, l.tenant)
	l.Release()
}
