// Package serve is Cheetah's concurrent serving layer: one switch, many
// queries. The paper's §5 multiplexes concurrent queries on a single
// pipeline by carrying a query id in the Cheetah header and giving each
// admitted query its own register partition; this package reproduces
// that control plane. A Server owns one shared switchsim.Pipeline and
// admits pruning programs on behalf of many concurrent clients: each
// admitted query gets a fresh QueryID (flow id), its program is packed
// into the shared pipeline via the usual CanInstall/Install admission
// arithmetic, and a Lease hands the execution a flow-scoped dataplane
// handle — the query never owns the pipeline, it owns a flow.
//
// When the pipeline is full, admissions wait in a priority queue (FIFO
// within a priority level) and are re-admitted as completing queries
// release their resources. Three kinds of requests never wait: programs
// that cannot fit even an empty switch (ErrNeverFits — the caller's cue
// to fall back to exact direct execution), requests arriving at a full
// wait queue when a queue limit is set (ErrQueueFull — shed load
// instead of building an unbounded backlog), and requests whose QoS
// deadline passes while queued (ErrDeadline). Per-tenant quotas bound
// any one tenant's concurrently active leases without letting a
// quota-blocked request stall other tenants' admissions. They bound the
// QoS admissions (AdmitQoS, TryAdmitQoS) only: Admit and TryAdmit take
// no QoS, and their leases count toward no tenant's quota. That is the
// shape of a standing program, which holds its switch for as long as
// its subscription lives and would otherwise keep its own tenant's
// later admissions waiting.
//
// The server also models the switch's failure lifecycle (§7.2): Fail
// marks the switch dead — active leases are revoked (their Release
// becomes a no-op), queued admissions fail with ErrFailed, and the dead
// pipeline forwards all traffic unpruned, which is exactly what keeps
// the master's completion exact. Restore brings the switch back with a
// fresh, empty pipeline: revoked leases stay revoked, and their
// standing programs must be re-admitted (with state rebuilt by the
// owner — the switch's registers did not survive).
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cheetah/internal/stats"
	"cheetah/internal/switchsim"
)

// ErrNeverFits marks a program whose profile exceeds the switch model
// itself: no amount of waiting frees enough resources, so admission
// fails immediately (the oversized-query bypass). Callers should run the
// query without pruning instead.
var ErrNeverFits = errors.New("serve: program cannot fit the switch model even when idle")

// ErrQueueFull is returned when Options.QueueLimit is set and the wait
// queue is at capacity.
var ErrQueueFull = errors.New("serve: admission wait queue is full")

// ErrClosed is returned for admissions against a closed server.
var ErrClosed = errors.New("serve: server is closed")

// ErrBusy is returned by TryAdmit when the program fits the model but
// not the pipeline's current occupancy (or other admissions are already
// queued) — the caller's cue to try another switch or fall back to the
// blocking Admit.
var ErrBusy = errors.New("serve: pipeline is busy")

// ErrFailed is returned for admissions against a failed switch and by
// Lease.Err once a lease has been revoked by switch failure. Like
// ErrNeverFits it is a direct-execution cue: the servers are the
// exactness backstop when the switch dies (§7.2).
var ErrFailed = errors.New("serve: switch has failed")

// ErrDeadline is returned when a queued admission's QoS deadline passes
// before resources free up — deadline-based shedding.
var ErrDeadline = errors.New("serve: admission deadline exceeded")

// Options configures a Server.
type Options struct {
	// Model is the switch hardware the shared pipeline simulates. The
	// zero value selects switchsim.Tofino().
	Model switchsim.Model
	// QueueLimit caps the admission wait queue; 0 means unbounded.
	// Admissions beyond the cap fail fast with ErrQueueFull.
	QueueLimit int
	// TenantQuota caps any one tenant's concurrently active QoS leases
	// (AdmitQoS, TryAdmitQoS) on this switch; 0 means unlimited.
	// Quota-blocked admissions queue without stalling other tenants.
	TenantQuota int
	// Metrics, when non-nil, receives the per-switch/per-tenant
	// operational counters (admitted/shed/revoked/deadline_missed/
	// failed_over/replaced), labeled with Label.
	Metrics *stats.Registry
	// Label names this switch in Metrics series (e.g. its fabric index).
	Label string
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

// Counters are cumulative serving statistics, read via Server.Stats.
type Counters struct {
	Admitted       uint64 // leases granted (immediate + after waiting)
	Waited         uint64 // admissions that had to queue first
	Oversized      uint64 // ErrNeverFits rejections (direct-execution bypass)
	Shed           uint64 // ErrQueueFull rejections + waiters failed by switch death
	Revoked        uint64 // leases revoked by switch failure
	FailedOver     uint64 // executions redone elsewhere after this switch failed
	Replaced       uint64 // standing programs re-admitted away from this switch
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

// admitResult is a queued admission's outcome.
type admitResult struct {
	lease *Lease
	err   error
}

// waiter is one queued admission.
type waiter struct {
	prog  switchsim.Program
	qos   QoS
	quota bool             // counts toward qos.Tenant's quota (a QoS admission)
	ready chan admitResult // buffered; receives the outcome exactly once
}

// Server owns a shared pipeline and serializes admission to it. All
// methods are safe for concurrent use.
type Server struct {
	model   switchsim.Model
	metrics *stats.Registry
	label   string

	mu           sync.Mutex
	pipe         *switchsim.Pipeline // replaced wholesale by Restore
	nextFlow     uint32
	active       map[uint32]*Lease
	tenantActive map[string]int
	waiters      []*waiter
	queueCap     int
	tenantQuota  int
	closed       bool
	failed       bool
	counters     Counters
}

// New creates a serving layer over a fresh pipeline for opts.Model.
func New(opts Options) (*Server, error) {
	if opts.Model.Stages == 0 {
		opts.Model = switchsim.Tofino()
	}
	pl, err := switchsim.NewPipeline(opts.Model)
	if err != nil {
		return nil, err
	}
	if opts.QueueLimit < 0 {
		opts.QueueLimit = 0
	}
	if opts.TenantQuota < 0 {
		opts.TenantQuota = 0
	}
	return &Server{
		model:        opts.Model,
		metrics:      opts.Metrics,
		label:        opts.Label,
		pipe:         pl,
		nextFlow:     1,
		active:       make(map[uint32]*Lease),
		tenantActive: make(map[string]int),
		queueCap:     opts.QueueLimit,
		tenantQuota:  opts.TenantQuota,
	}, nil
}

// Model returns the shared pipeline's hardware model.
func (s *Server) Model() switchsim.Model { return s.model }

// Pipeline returns the current shared pipeline, for control-plane and
// chaos-harness access (arming a FaultInjector, inspecting placements).
// After Restore this is a different object than before the failure.
func (s *Server) Pipeline() *switchsim.Pipeline {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pipe
}

// Utilization reports the shared pipeline's current occupancy.
func (s *Server) Utilization() switchsim.Utilization {
	s.mu.Lock()
	pipe := s.pipe
	s.mu.Unlock()
	return pipe.Utilization()
}

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncFailureLocked()
	c := s.counters
	c.Active = len(s.active)
	c.Queued = len(s.waiters)
	return c
}

// bumpLocked increments a per-switch/per-tenant metric series. Callers
// hold s.mu (the registry takes its own lock; serve never re-enters).
func (s *Server) bumpLocked(name, tenant string) {
	if s.metrics == nil {
		return
	}
	if tenant == "" {
		tenant = "-"
	}
	s.metrics.Counter(name, "switch", s.label, "tenant", tenant).Incr(1)
}

// occupancyLocked refreshes the per-switch queue-depth and active-lease
// gauges; called after every transition that changes either. Callers
// hold s.mu.
func (s *Server) occupancyLocked() {
	if s.metrics == nil {
		return
	}
	s.metrics.Gauge("queue_depth", "switch", s.label).Set(int64(len(s.waiters)))
	s.metrics.Gauge("active_leases", "switch", s.label).Set(int64(len(s.active)))
}

// observeWait records how long one successful admission took from call
// to lease grant — immediate admissions land in the lowest bucket, so
// the histogram's upper quantiles isolate genuine queue waits.
func (s *Server) observeWait(start time.Time) {
	if s.metrics == nil {
		return
	}
	s.metrics.Histogram("admission_wait", "switch", s.label).Observe(time.Since(start).Nanoseconds())
}

// Admit installs prog into the shared pipeline under a fresh QueryID
// with default QoS, outside every tenant's quota. See AdmitQoS.
func (s *Server) Admit(ctx context.Context, prog switchsim.Program) (*Lease, error) {
	return s.admit(ctx, prog, QoS{}, false)
}

// AdmitQoS installs prog into the shared pipeline under a fresh QueryID
// and returns the lease. When the pipeline is too busy, the call waits
// in the priority queue (higher qos.Priority first, FIFO within a
// level) until completing queries free enough resources, ctx is done,
// or qos.Deadline passes (ErrDeadline). Programs too large for the
// model itself fail immediately with ErrNeverFits; when a queue limit
// is configured, admissions beyond it fail with ErrQueueFull; a failed
// switch rejects everything with ErrFailed.
func (s *Server) AdmitQoS(ctx context.Context, prog switchsim.Program, qos QoS) (*Lease, error) {
	return s.admit(ctx, prog, qos, true)
}

// admit is AdmitQoS, with quota saying whether the lease counts toward
// qos.Tenant's quota.
func (s *Server) admit(ctx context.Context, prog switchsim.Program, qos QoS, quota bool) (*Lease, error) {
	if err := validateProgram(prog); err != nil {
		return nil, err
	}
	start := time.Now()
	s.mu.Lock()
	if err := s.admitPrologueLocked(prog); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	// Queue fairness: admit immediately only when no eligible waiter of
	// equal or higher priority would be overtaken, and the tenant is
	// under quota.
	if !s.blockedByQueueLocked(qos.Priority) && !s.atQuotaLocked(qos.Tenant, quota) {
		if l, err := s.installLocked(prog, qos.Tenant, quota); err == nil {
			s.mu.Unlock()
			s.observeWait(start)
			return l, nil
		}
	}
	if s.queueCap > 0 && len(s.waiters) >= s.queueCap {
		s.counters.Shed++
		s.bumpLocked("shed", qos.Tenant)
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	w := &waiter{prog: prog, qos: qos, quota: quota, ready: make(chan admitResult, 1)}
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

// validateProgram is the admission pre-flight shared by Admit and
// TryAdmit: a present program with a well-formed profile.
func validateProgram(prog switchsim.Program) error {
	if prog == nil {
		return fmt.Errorf("serve: admission needs a program")
	}
	return prog.Profile().Validate()
}

// syncFailureLocked promotes an injector-initiated pipeline death to
// server-level failure: the serving layer may learn of the dead switch
// lazily, but every control-plane path observes a consistent state —
// leases revoked, waiters failed. Callers hold s.mu.
func (s *Server) syncFailureLocked() {
	if !s.failed && !s.closed && s.pipe.Failed() {
		s.failLocked()
	}
}

// admitPrologueLocked is the shared admission gate: a closed server
// rejects everything, a failed switch rejects with the direct-execution
// cue, and a program the model can never host must not occupy a queue
// slot it can never leave successfully (the oversized bypass, counted
// once per rejection). Callers hold s.mu.
func (s *Server) admitPrologueLocked(prog switchsim.Program) error {
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

// atQuotaLocked reports whether an admission that counts toward
// tenant's quota (quota) must wait because tenant holds its full quota
// of active leases. Callers hold s.mu.
func (s *Server) atQuotaLocked(tenant string, quota bool) bool {
	return quota && s.tenantQuota > 0 && s.tenantActive[tenant] >= s.tenantQuota
}

// blockedByQueueLocked reports whether an arriving admission at pri
// would overtake an eligible queued waiter of equal or higher priority
// (quota-blocked waiters are not overtakable — they are not runnable).
// Callers hold s.mu.
func (s *Server) blockedByQueueLocked(pri int) bool {
	for _, w := range s.waiters {
		if w.qos.Priority >= pri && !s.atQuotaLocked(w.qos.Tenant, w.quota) {
			return true
		}
	}
	return false
}

// TryAdmit is the non-blocking admission used by fabric placement, with
// default QoS, outside every tenant's quota. See TryAdmitQoS.
func (s *Server) TryAdmit(prog switchsim.Program) (*Lease, error) {
	return s.tryAdmit(prog, QoS{}, false)
}

// TryAdmitQoS grants a lease only when the program can be installed
// right now. Queued waiters of equal or higher priority keep their
// place — TryAdmitQoS never jumps that part of the queue. It fails with
// ErrNeverFits for programs the model can never host, ErrClosed on a
// closed server, ErrFailed on a failed switch, and ErrBusy when
// admission would have to wait (including tenant-quota exhaustion).
func (s *Server) TryAdmitQoS(prog switchsim.Program, qos QoS) (*Lease, error) {
	return s.tryAdmit(prog, qos, true)
}

// tryAdmit is TryAdmitQoS, with quota as in admit.
func (s *Server) tryAdmit(prog switchsim.Program, qos QoS, quota bool) (*Lease, error) {
	if err := validateProgram(prog); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitPrologueLocked(prog); err != nil {
		return nil, err
	}
	if s.blockedByQueueLocked(qos.Priority) {
		return nil, ErrBusy
	}
	if s.atQuotaLocked(qos.Tenant, quota) {
		return nil, fmt.Errorf("%w: tenant %q at quota (%d active)", ErrBusy, qos.Tenant, s.tenantQuota)
	}
	l, err := s.installLocked(prog, qos.Tenant, quota)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBusy, err)
	}
	return l, nil
}

// installLocked packs prog into the pipeline under a fresh flow id and
// records the lease, counted toward tenant's quota when quota is set.
// Callers hold s.mu.
func (s *Server) installLocked(prog switchsim.Program, tenant string, quota bool) (*Lease, error) {
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
	l := &Lease{s: s, pipe: s.pipe, flowID: flowID, prog: prog, tenant: tenant, quota: quota, util: s.pipe.Utilization()}
	s.active[flowID] = l
	if quota {
		s.tenantActive[tenant]++
	}
	s.counters.Admitted++
	s.bumpLocked("admitted", tenant)
	s.occupancyLocked()
	return l, nil
}

// removeWaiterLocked drops w from the queue, reporting whether it was
// still queued. Callers hold s.mu.
func (s *Server) removeWaiterLocked(w *waiter) bool {
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
func (s *Server) release(l *Lease) {
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
		panic(fmt.Sprintf("serve: uninstall flow %d: %v", l.flowID, err))
	}
	delete(s.active, l.flowID)
	if l.quota {
		s.tenantActive[l.tenant]--
		if s.tenantActive[l.tenant] <= 0 {
			delete(s.tenantActive, l.tenant)
		}
	}
	s.admitWaitersLocked()
	s.occupancyLocked()
}

// bestWaiterLocked returns the index of the next admittable waiter —
// highest priority, FIFO within a level, skipping tenants at quota — or
// -1. Callers hold s.mu.
func (s *Server) bestWaiterLocked() int {
	best := -1
	for i, w := range s.waiters {
		if s.atQuotaLocked(w.qos.Tenant, w.quota) {
			continue
		}
		if best == -1 || w.qos.Priority > s.waiters[best].qos.Priority {
			best = i
		}
	}
	return best
}

// admitWaitersLocked grants leases in priority order while the best
// eligible waiter fits. Strict head-of-line within the eligible set: a
// large query at the effective head blocks smaller ones behind it from
// jumping ahead, so no query starves; only quota-blocked waiters are
// skipped (their unblocking event is their own tenant's release, not
// resource headroom). Callers hold s.mu.
func (s *Server) admitWaitersLocked() {
	for {
		i := s.bestWaiterLocked()
		if i < 0 {
			return
		}
		w := s.waiters[i]
		l, err := s.installLocked(w.prog, w.qos.Tenant, w.quota)
		if err != nil {
			return
		}
		s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
		w.ready <- admitResult{lease: l}
	}
}

// Fail simulates this switch dying (§7.2): the pipeline is marked dead
// (all subsequent traffic forwards unpruned), every active lease is
// revoked — its Release becomes a no-op and Err reports ErrFailed — and
// every queued admission fails with ErrFailed. Idempotent.
func (s *Server) Fail() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.failLocked()
	}
}

// failLocked is Fail's body, shared with the lazy promotion of an
// injector-initiated pipeline death. Callers hold s.mu.
func (s *Server) failLocked() {
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

// Failed reports whether the switch is currently failed.
func (s *Server) Failed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncFailureLocked()
	return s.failed
}

// Restore brings a failed switch back with a fresh, empty pipeline —
// the "reboot the switch with empty states" recovery of §3. Leases
// revoked by the failure stay revoked; standing programs must be
// re-admitted. A healthy switch restores to itself (no-op).
func (s *Server) Restore() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncFailureLocked()
	if s.closed {
		return ErrClosed
	}
	if !s.failed {
		return nil
	}
	pl, err := switchsim.NewPipeline(s.model)
	if err != nil {
		return err
	}
	s.pipe = pl
	s.failed = false
	return nil
}

// NoteFailedOver records that an execution holding a lease on this
// switch was redone elsewhere after the switch failed (counted on the
// failed switch).
func (s *Server) NoteFailedOver(tenant string) {
	s.mu.Lock()
	s.counters.FailedOver++
	s.bumpLocked("failed_over", tenant)
	s.mu.Unlock()
}

// NoteReplaced records that a standing program placed on this switch
// was re-admitted elsewhere after the switch failed (counted on the
// failed switch).
func (s *Server) NoteReplaced(tenant string) {
	s.mu.Lock()
	s.counters.Replaced++
	s.bumpLocked("replaced", tenant)
	s.mu.Unlock()
}

// Close fails all queued admissions and future Admit calls with
// ErrClosed. Active leases stay valid; their Release still works.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, w := range s.waiters {
		w.ready <- admitResult{err: ErrClosed}
	}
	s.waiters = nil
	s.occupancyLocked()
}

// Lease is one admitted query's hold on the shared pipeline: its
// QueryID, its installed program, and the flow-scoped dataplane handle
// the batched engine executes through. Release returns the resources
// and wakes queued admissions; it is idempotent, and a no-op for leases
// revoked by switch failure (the pipeline that held the program is
// gone).
type Lease struct {
	s      *Server
	pipe   *switchsim.Pipeline // the pipeline the program was installed on
	flowID uint32
	prog   switchsim.Program
	tenant string
	quota  bool // counts toward tenant's quota
	util   switchsim.Utilization
	once   sync.Once
	// revoked is guarded by s.mu: set when the switch fails.
	revoked bool
}

// QueryID returns the flow id the serving layer assigned this query —
// the value the Cheetah header would carry to select the query's
// register partition (§5).
func (l *Lease) QueryID() uint32 { return l.flowID }

// Program returns the installed program, for control-plane operations
// (probe switchover, end-of-stream drains) that address the program
// directly.
func (l *Lease) Program() switchsim.Program { return l.prog }

// Tenant returns the admission's QoS tenant.
func (l *Lease) Tenant() string { return l.tenant }

// Utilization returns the shared pipeline's occupancy snapshot taken at
// this query's admission — the per-query utilization surfaced in
// execution reports.
func (l *Lease) Utilization() switchsim.Utilization { return l.util }

// ProcessBatch routes one batch through the lease's pipeline under its
// QueryID. It implements engine.BatchDataplane. On a failed switch
// every entry forwards — the dataplane never lies toward wrong results,
// only toward more master work.
func (l *Lease) ProcessBatch(b *switchsim.Batch, decisions []switchsim.Decision) {
	l.pipe.ProcessBatch(l.flowID, b, decisions)
}

// FusedProgram reports whether the engine's fused loops may drive this
// lease's program directly, returning it when so and nil otherwise
// (failed switch, uninstalled flow, fault injector armed — the
// pipeline decides; see switchsim.Pipeline.FusedProgram). The lease's
// owner is the only goroutine driving its flow's traffic, so direct
// access preserves the per-flow ownership discipline, and the engine
// still runs its post-pass Err check for failover.
func (l *Lease) FusedProgram() switchsim.Program {
	return l.pipe.FusedProgram(l.flowID)
}

// Err reports the lease's health: nil while the switch holds the
// program, ErrFailed once the switch has failed (the program and its
// register state are gone, and any pass that crossed the failure must
// be redone — the engine's failover hook). It implements
// engine.HealthDataplane.
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
// idempotent, and safe (a no-op) after the switch failed or the server
// closed.
func (l *Lease) Release() {
	l.once.Do(func() { l.s.release(l) })
}
