package fabric

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// admitAsync queues one waiting one-shot admission and returns its
// outcome channel.
func admitAsync(s *Fabric, p stubProg, qos QoS) chan admitResult {
	out := make(chan admitResult, 1)
	go func() {
		l, err := one(s.Admit(context.Background(), Request{Prog: p, QoS: qos, Wait: true}))
		out <- admitResult{lease: l, err: err}
	}()
	return out
}

// waitQueued polls until the server reports n queued waiters.
func waitQueued(t *testing.T, s *Fabric, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Total().Queued != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters (stats %+v)", n, s.Total())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPriorityAdmissionOrder: a higher-priority waiter that arrived
// later admits first; FIFO holds within a priority level.
func TestPriorityAdmissionOrder(t *testing.T) {
	s, err := New(Options{Model: tinyModel()})
	if err != nil {
		t.Fatal(err)
	}
	hold, err := one(s.Admit(context.Background(), Request{Prog: prog(3), Wait: true, Standing: true})) // fills the switch
	if err != nil {
		t.Fatal(err)
	}
	loA := admitAsync(s, prog(3), QoS{Priority: 0})
	waitQueued(t, s, 1)
	loB := admitAsync(s, prog(3), QoS{Priority: 0})
	waitQueued(t, s, 2)
	hi := admitAsync(s, prog(3), QoS{Priority: 1})
	waitQueued(t, s, 3)

	next := func(c chan admitResult) *Lease {
		t.Helper()
		r := <-c
		if r.err != nil {
			t.Fatalf("queued admission failed: %v", r.err)
		}
		return r.lease
	}
	hold.Release()
	l := next(hi) // priority 1 overtakes both earlier priority-0 waiters
	select {
	case r := <-loA:
		t.Fatalf("priority-0 waiter admitted before priority-1: %+v", r)
	default:
	}
	l.Release()
	next(loA).Release() // then FIFO within priority 0
	next(loB).Release()
}

// TestTryAdmitRespectsQueuePriority: an admission that does not wait
// never overtakes an equal- or higher-priority waiter, but a strictly
// higher-priority one may pass a lower-priority queue.
func TestTryAdmitRespectsQueuePriority(t *testing.T) {
	s, err := New(Options{Model: tinyModel()})
	if err != nil {
		t.Fatal(err)
	}
	hold, err := one(s.Admit(context.Background(), Request{Prog: prog(2), Wait: true, Standing: true}))
	if err != nil {
		t.Fatal(err)
	}
	pending := admitAsync(s, prog(3), QoS{Priority: 1}) // needs the whole switch
	waitQueued(t, s, 1)
	// Equal priority must not jump the queue even though 1 stage fits.
	if _, err := one(s.Admit(context.Background(), Request{Prog: prog(1), QoS: QoS{Priority: 1}})); !errors.Is(err, ErrBusy) {
		t.Fatalf("equal-priority TryAdmit err = %v, want ErrBusy", err)
	}
	// Strictly higher priority may.
	l, err := one(s.Admit(context.Background(), Request{Prog: prog(1), QoS: QoS{Priority: 2}}))
	if err != nil {
		t.Fatalf("higher-priority TryAdmit: %v", err)
	}
	l.Release()
	hold.Release()
	if r := <-pending; r.err != nil {
		t.Fatal(r.err)
	} else {
		r.lease.Release()
	}
}

// TestTenantQuota: a tenant at its quota queues without blocking other
// tenants, and unblocks when its own lease releases; QoS-less leases
// count toward no quota.
func TestTenantQuota(t *testing.T) {
	s, err := New(Options{Model: tinyModel(), TenantQuota: 1})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := one(s.Admit(context.Background(), Request{Prog: prog(1), QoS: QoS{Tenant: "a"}, Wait: true}))
	if err != nil {
		t.Fatal(err)
	}
	// Tenant a is at quota: its next admission queues even with stages
	// free…
	a2 := admitAsync(s, prog(1), QoS{Tenant: "a"})
	waitQueued(t, s, 1)
	if _, err := one(s.Admit(context.Background(), Request{Prog: prog(1), QoS: QoS{Tenant: "a"}})); !errors.Is(err, ErrBusy) {
		t.Fatalf("at-quota TryAdmit err = %v, want ErrBusy", err)
	}
	// …while tenant b sails past the quota-blocked waiter.
	b1, err := one(s.Admit(context.Background(), Request{Prog: prog(1), QoS: QoS{Tenant: "b"}}))
	if err != nil {
		t.Fatalf("tenant b blocked by tenant a's quota: %v", err)
	}
	a1.Release() // frees a's quota slot → the queued a admission runs
	r := <-a2
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got := r.lease.Tenant(); got != "a" {
		t.Fatalf("lease tenant = %q", got)
	}
	r.lease.Release()
	b1.Release()
	// A QoS-less lease counts toward no tenant's quota: with one held, the
	// default tenant's QoS admission still runs.
	held, err := one(s.Admit(context.Background(), Request{Prog: prog(1), Wait: true, Standing: true}))
	if err != nil {
		t.Fatal(err)
	}
	d, err := one(s.Admit(context.Background(), Request{Prog: prog(1), QoS: QoS{}}))
	if err != nil {
		t.Fatalf("default tenant blocked by a QoS-less lease: %v", err)
	}
	d.Release()
	held.Release()
	if st := s.Total(); st.Active != 0 || st.Queued != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestDeadlineSheds: a queued admission whose deadline passes fails
// with ErrDeadline, leaves the queue, and is counted.
func TestDeadlineSheds(t *testing.T) {
	s, err := New(Options{Model: tinyModel()})
	if err != nil {
		t.Fatal(err)
	}
	hold, err := one(s.Admit(context.Background(), Request{Prog: prog(3), Wait: true, Standing: true}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Admit(context.Background(), Request{Prog: prog(3), Wait: true, QoS: QoS{
		Tenant: "t", Deadline: time.Now().Add(20 * time.Millisecond),
	}})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	st := s.Total()
	if st.DeadlineMissed != 1 || st.Queued != 0 {
		t.Fatalf("stats after deadline shed: %+v", st)
	}
	hold.Release()
	if st := s.Total(); st.Active != 0 {
		t.Fatalf("active after release: %+v", st)
	}
}

// TestFailRevokesAndRestoreRecovers is the switch-death lifecycle:
// Fail revokes active leases (their handles turn ErrFailed but stay
// safe to use), sheds waiters, rejects new admissions; Restore brings
// admission back; releasing a pre-failure lease after Restore is a
// harmless no-op that cannot disturb post-restore leases.
func TestFailRevokesAndRestoreRecovers(t *testing.T) {
	s, err := New(Options{Model: tinyModel()})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := one(s.Admit(context.Background(), Request{Prog: prog(3), Wait: true, Standing: true}))
	if err != nil {
		t.Fatal(err)
	}
	waiting := admitAsync(s, prog(1), QoS{})
	waitQueued(t, s, 1)

	s.Fail(0)
	if r := <-waiting; !errors.Is(r.err, ErrFailed) {
		t.Fatalf("queued waiter err = %v, want ErrFailed", r.err)
	}
	if err := l1.Err(); !errors.Is(err, ErrFailed) {
		t.Fatalf("revoked lease Err = %v, want ErrFailed", err)
	}
	if _, err := one(s.Admit(context.Background(), Request{Prog: prog(1), Wait: true, Standing: true})); !errors.Is(err, ErrFailed) {
		t.Fatalf("admission on failed switch err = %v, want ErrFailed", err)
	}
	st := s.Total()
	if st.Revoked != 1 || st.Shed != 1 || st.Active != 0 || st.Queued != 0 {
		t.Fatalf("stats after failure: %+v", st)
	}

	if err := s.Restore(0); err != nil {
		t.Fatal(err)
	}
	l2, err := one(s.Admit(context.Background(), Request{Prog: prog(3), Wait: true, Standing: true}))
	if err != nil {
		t.Fatalf("admission after restore: %v", err)
	}
	// The pre-failure lease may share l2's recycled flow id; releasing
	// it must not panic and must not free l2's program.
	l1.Release()
	if u := s.Utilization()[0]; u.ALUsUsed == 0 {
		t.Fatal("stale release freed the post-restore lease's program")
	}
	if err := l2.Err(); err != nil {
		t.Fatalf("post-restore lease Err = %v", err)
	}
	l2.Release()
	if u := s.Utilization()[0]; u.ALUsUsed != 0 {
		t.Fatalf("utilization after drain = %v", u)
	}
}

// TestReleaseAfterCloseIsIdempotent pins the satellite fix: releasing a
// lease on a closed (or failed-then-closed) server must be a safe
// no-op, however many times it runs.
func TestReleaseAfterCloseIsIdempotent(t *testing.T) {
	s, err := New(Options{Model: tinyModel()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := one(s.Admit(context.Background(), Request{Prog: prog(2), Wait: true, Standing: true}))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	l.Release()
	l.Release()
	s.Fail(0) // failing a closed server must not panic either
	l.Release()
	if st := s.Total(); st.Active != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestMetricsLabels: counters flow into the shared registry labeled by
// switch and tenant.
func TestMetricsLabels(t *testing.T) {
	f, err := New(Options{Switches: 4, Model: tinyModel()})
	if err != nil {
		t.Fatal(err)
	}
	reg := f.Metrics()
	// Pinned to switch 3 through its own admission, so its label shows.
	s := f.switches[3]
	l, err := s.admit(context.Background(), prog(1), QoS{Tenant: "acme"}, false, true)
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	s.retired(false, "acme")
	s.retired(true, "")
	if got := reg.Total("admitted"); got != 1 {
		t.Fatalf("admitted total = %d, want 1", got)
	}
	if got := reg.Total("failed_over"); got != 1 {
		t.Fatalf("failed_over total = %d, want 1", got)
	}
	if got := reg.Total("replaced"); got != 1 {
		t.Fatalf("replaced total = %d, want 1", got)
	}
	var sawTenant, sawSwitch bool
	for _, series := range reg.Snapshot() {
		if strings.Contains(series.Name, "tenant=acme") {
			sawTenant = true
		}
		if strings.Contains(series.Name, "switch=3") {
			sawSwitch = true
		}
	}
	if !sawTenant || !sawSwitch {
		t.Fatalf("series missing labels (tenant=%v switch=%v): %v", sawTenant, sawSwitch, reg.Snapshot())
	}
}
