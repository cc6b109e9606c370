package fabric

import (
	"context"
	"errors"
	"testing"
)

// TestStatsLifecycle pins Server.Stats through a full admission
// lifecycle: active leases, queue depth and shed/oversized counts are
// what stream placement and the benches report as switch occupancy.
func TestStatsLifecycle(t *testing.T) {
	s, err := New(Options{Model: tinyModel(), QueueLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Fill the switch: 3 usable stages → one 3-stage program.
	l1, err := one(s.Admit(ctx, Request{Prog: prog(3), Wait: true, Standing: true}))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Total(); st.Active != 1 || st.Admitted != 1 || st.Queued != 0 {
		t.Fatalf("after admit: %+v", st)
	}

	// A second admission queues (FIFO); queue depth shows it.
	got := make(chan *Lease, 1)
	go func() {
		l, err := one(s.Admit(ctx, Request{Prog: prog(3), Wait: true, Standing: true}))
		if err != nil {
			t.Error(err)
		}
		got <- l
	}()
	for s.Total().Queued == 0 {
	}
	if st := s.Total(); st.Queued != 1 || st.Waited != 1 {
		t.Fatalf("while queued: %+v", st)
	}

	// The queue is at its cap: the next admission sheds.
	if _, err := one(s.Admit(ctx, Request{Prog: prog(3), Wait: true, Standing: true})); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected shed, got %v", err)
	}
	if st := s.Total(); st.Shed != 1 {
		t.Fatalf("after shed: %+v", st)
	}

	// A program the model can never host counts as oversized, not shed.
	if _, err := one(s.Admit(ctx, Request{Prog: prog(64), Wait: true, Standing: true})); !errors.Is(err, ErrNeverFits) {
		t.Fatalf("expected oversized rejection, got %v", err)
	}
	if st := s.Total(); st.Oversized != 1 {
		t.Fatalf("after oversized: %+v", st)
	}

	// Releasing drains the queue; counters settle.
	l1.Release()
	l2 := <-got
	st := s.Total()
	if st.Active != 1 || st.Queued != 0 || st.Admitted != 2 {
		t.Fatalf("after drain: %+v", st)
	}
	l2.Release()
	if st := s.Total(); st.Active != 0 {
		t.Fatalf("after final release: %+v", st)
	}

	// Counters aggregate across switches via Add (the fabric and the
	// streaming handle's occupancy reports).
	var total Counters
	total.Add(s.Total())
	total.Add(s.Total())
	if want := s.Total(); total.Admitted != 2*want.Admitted || total.Shed != 2*want.Shed ||
		total.Oversized != 2*want.Oversized || total.Waited != 2*want.Waited {
		t.Fatalf("aggregated counters = %+v, singles = %+v", total, want)
	}
}
