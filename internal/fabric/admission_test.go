package fabric

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cheetah/internal/switchsim"
)

// one unwraps the lease of a one-program admission.
func one(leases []*Lease, err error) (*Lease, error) {
	if err != nil {
		return nil, err
	}
	return leases[0], nil
}

func TestAdmitReleaseRoundTrip(t *testing.T) {
	s, err := New(Options{Model: tinyModel()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := one(s.Admit(context.Background(), Request{Prog: prog(2), Wait: true, Standing: true}))
	if err != nil {
		t.Fatal(err)
	}
	if l.QueryID() == 0 {
		t.Fatal("lease has zero QueryID")
	}
	if u := s.Utilization()[0]; u.ALUsUsed != 8 {
		t.Fatalf("utilization after admit = %v, want 8 ALUs", u)
	}
	if u := l.Utilization(); u.ALUsUsed != 8 {
		t.Fatalf("lease utilization snapshot = %v, want 8 ALUs", u)
	}
	l.Release()
	l.Release() // idempotent
	if u := s.Utilization()[0]; u.ALUsUsed != 0 {
		t.Fatalf("utilization after release = %v, want empty", u)
	}
	st := s.Total()
	if st.Admitted != 1 || st.Active != 0 || st.Queued != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOversizedBypass(t *testing.T) {
	s, err := New(Options{Model: tinyModel()})
	if err != nil {
		t.Fatal(err)
	}
	// 4 logical stages cannot fit a 3-usable-stage switch, ever.
	_, err = one(s.Admit(context.Background(), Request{Prog: prog(4), Wait: true, Standing: true}))
	if !errors.Is(err, ErrNeverFits) {
		t.Fatalf("err = %v, want ErrNeverFits", err)
	}
	if st := s.Total(); st.Oversized != 1 || st.Queued != 0 {
		t.Fatalf("oversized admission must not queue: %+v", st)
	}
}

func TestFIFOAdmissionOrder(t *testing.T) {
	s, err := New(Options{Model: tinyModel()})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the switch completely.
	full, err := one(s.Admit(context.Background(), Request{Prog: prog(3), Wait: true, Standing: true}))
	if err != nil {
		t.Fatal(err)
	}
	// Queue three waiters in order.
	type got struct {
		idx int
		l   *Lease
	}
	order := make(chan got, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := one(s.Admit(context.Background(), Request{Prog: prog(3), Wait: true, Standing: true}))
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- got{i, l}
			// Hold briefly so the next waiter really waited behind us.
			time.Sleep(5 * time.Millisecond)
			l.Release()
		}(i)
		// Give goroutine i time to join the queue before i+1 does, so
		// the FIFO order under test is the launch order.
		for {
			if s.Total().Queued > i {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	full.Release()
	wg.Wait()
	close(order)
	want := 0
	for g := range order {
		if g.idx != want {
			t.Fatalf("admission order: got waiter %d before waiter %d", g.idx, want)
		}
		want++
	}
}

func TestQueueLimitSheds(t *testing.T) {
	s, err := New(Options{Model: tinyModel(), QueueLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := one(s.Admit(context.Background(), Request{Prog: prog(3), Wait: true, Standing: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Release()
	errCh := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, err := one(s.Admit(ctx, Request{Prog: prog(1), Wait: true, Standing: true})) // occupies the single queue slot
		errCh <- err
	}()
	for s.Total().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := one(s.Admit(context.Background(), Request{Prog: prog(1), Wait: true, Standing: true})); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	full.Release()
	if l, err := <-errCh, error(nil); l != err {
		t.Fatalf("queued admission failed: %v", l)
	}
}

func TestAdmitContextCancel(t *testing.T) {
	s, err := New(Options{Model: tinyModel()})
	if err != nil {
		t.Fatal(err)
	}
	full, err := one(s.Admit(context.Background(), Request{Prog: prog(3), Wait: true, Standing: true}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := one(s.Admit(ctx, Request{Prog: prog(1), Wait: true, Standing: true}))
		errCh <- err
	}()
	for s.Total().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := s.Total(); st.Queued != 0 {
		t.Fatalf("cancelled waiter still queued: %+v", st)
	}
	full.Release()
	// The switch must be fully usable afterwards.
	l, err := one(s.Admit(context.Background(), Request{Prog: prog(3), Wait: true, Standing: true}))
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
}

func TestCloseFailsWaiters(t *testing.T) {
	s, err := New(Options{Model: tinyModel()})
	if err != nil {
		t.Fatal(err)
	}
	full, err := one(s.Admit(context.Background(), Request{Prog: prog(3), Wait: true, Standing: true}))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := one(s.Admit(context.Background(), Request{Prog: prog(1), Wait: true, Standing: true}))
		errCh <- err
	}()
	for s.Total().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	if err := <-errCh; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued admission after Close: err = %v, want ErrClosed", err)
	}
	if _, err := one(s.Admit(context.Background(), Request{Prog: prog(1), Wait: true, Standing: true})); !errors.Is(err, ErrClosed) {
		t.Fatalf("new admission after Close: err = %v, want ErrClosed", err)
	}
	full.Release() // releasing an active lease after Close must not panic
}

// TestAdmissionChurnProperty is the churn property test: random
// interleavings of concurrent Admit/Release must (1) never hand out a
// QueryID already held by a live lease, (2) never exceed the model's
// stage budgets, and (3) always drain the wait queue — no stuck
// waiters, an empty switch — once every client is done.
func TestAdmissionChurnProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		s, err := New(Options{Model: tinyModel()})
		if err != nil {
			t.Fatal(err)
		}
		model := s.Model()
		aluCap := (model.Stages - switchsim.ReservedStages) * model.ALUsPerStage

		var mu sync.Mutex
		held := make(map[uint32]bool)

		const clients = 8
		const iters = 40
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed<<8 | int64(c)))
				for i := 0; i < iters; i++ {
					// 1–4 stages: mostly admissible, sometimes oversized
					// (4 stages never fits), occasionally instant-fit.
					st := 1 + rng.Intn(4)
					l, err := one(s.Admit(context.Background(), Request{Prog: prog(st), Wait: true, Standing: true}))
					if err != nil {
						if st >= 4 && errors.Is(err, ErrNeverFits) {
							continue // expected bypass
						}
						t.Errorf("client %d iter %d (stages=%d): %v", c, i, st, err)
						return
					}
					mu.Lock()
					if held[l.QueryID()] {
						t.Errorf("QueryID %d double-installed", l.QueryID())
					}
					held[l.QueryID()] = true
					mu.Unlock()
					if u := s.Utilization()[0]; u.ALUsUsed > aluCap || u.StagesUsed > u.StagesTotal {
						t.Errorf("stage budget exceeded: %v", u)
					}
					if rng.Intn(4) == 0 {
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					}
					mu.Lock()
					delete(held, l.QueryID())
					mu.Unlock()
					l.Release()
				}
			}(c)
		}
		wg.Wait()
		st := s.Total()
		if st.Queued != 0 || st.Active != 0 {
			t.Fatalf("seed %d: queue not drained: %+v", seed, st)
		}
		if u := s.Utilization()[0]; u.ALUsUsed != 0 || u.SRAMBitsUsed != 0 || u.StagesUsed != 0 {
			t.Fatalf("seed %d: switch not empty after churn: %v", seed, u)
		}
	}
}
