package transport

import (
	"context"
	"testing"
	"time"

	"cheetah/internal/cache"
	"cheetah/internal/netsim"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
)

// harness wires workers → switch → master over a netsim network with a
// DISTINCT pruner on the given flows.
type harness struct {
	net     *netsim.Network
	sw      *Switch
	master  *Master
	pl      *switchsim.Pipeline
	cancel  context.CancelFunc
	writers []*Worker
}

func newHarness(t *testing.T, seed uint64, flows int) *harness {
	t.Helper()
	n := netsim.New(seed)
	swEp := n.Endpoint("switch", 1<<16)
	maEp := n.Endpoint("master", 1<<16)
	pl, err := switchsim.NewPipeline(switchsim.Tofino())
	if err != nil {
		t.Fatal(err)
	}
	for f := 1; f <= flows; f++ {
		d, err := prune.NewDistinct(prune.DistinctConfig{
			Rows: 256, Cols: 2, Policy: cache.LRU, Seed: uint64(f),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.Install(uint32(f), d); err != nil {
			t.Fatal(err)
		}
	}
	sw, err := NewSwitch(swEp, "master", pl)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := NewMaster(maEp, "switch")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go sw.Run(ctx)
	go ma.Run(ctx)
	h := &harness{net: n, sw: sw, master: ma, pl: pl, cancel: cancel}
	t.Cleanup(cancel)
	return h
}

func (h *harness) addWorker(t *testing.T, flowID uint32) *Worker {
	t.Helper()
	name := "worker" + string(rune('0'+flowID))
	ep := h.net.Endpoint(name, 1<<16)
	w, err := NewWorker(ep, WorkerConfig{
		FlowID:     flowID,
		SwitchAddr: "switch",
		RTO:        10 * time.Millisecond,
		Window:     64,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.sw.Register(flowID, name)
	h.writers = append(h.writers, w)
	return w
}

func entriesMod(n int, mod uint64) [][]uint64 {
	out := make([][]uint64, n)
	for i := range out {
		out[i] = []uint64{uint64(i) % mod}
	}
	return out
}

// collect runs each worker's flow and drains deliveries until every Run
// returned: a worker finishes only after its FIN is answered, and the
// master answers a FIN only after delivering every DATA it ACKed, so what
// is queued then is everything.
func collect(t *testing.T, m *Master, timeout time.Duration, runs ...func() error) map[uint32][]Delivery {
	t.Helper()
	errs := make(chan error, len(runs))
	for _, run := range runs {
		go func(run func() error) { errs <- run() }(run)
	}
	got := map[uint32][]Delivery{}
	deadline := time.After(timeout)
	for done := 0; done < len(runs); {
		select {
		case d := <-m.Deliveries:
			got[d.FlowID] = append(got[d.FlowID], d)
		case err := <-errs:
			if err != nil {
				t.Fatalf("worker: %v", err)
			}
			done++
		case <-deadline:
			t.Fatalf("timeout waiting for %d flows (done=%d)", len(runs), done)
		}
	}
	for {
		select {
		case d := <-m.Deliveries:
			got[d.FlowID] = append(got[d.FlowID], d)
		default:
			return got
		}
	}
}

func TestLosslessEndToEnd(t *testing.T) {
	h := newHarness(t, 1, 1)
	w := h.addWorker(t, 1)
	const n = 2000
	entries := entriesMod(n, 100) // 100 distinct values, heavy duplication
	got := collect(t, h.master, 5*time.Second, func() error { return w.Run(context.Background(), entries) })
	// Conservation: every packet either pruned at switch or delivered.
	if h.sw.Pruned+uint64(len(got[1])) != n {
		t.Fatalf("pruned %d + delivered %d != %d", h.sw.Pruned, len(got[1]), n)
	}
	// Correctness: all 100 distinct values delivered.
	seen := map[uint64]bool{}
	for _, d := range got[1] {
		seen[d.Values[0]] = true
	}
	if len(seen) != 100 {
		t.Fatalf("distinct values delivered: %d, want 100", len(seen))
	}
	// With 256x2 rows and 100 distinct values, pruning should be heavy.
	if h.sw.Pruned < n/2 {
		t.Fatalf("switch pruned only %d of %d", h.sw.Pruned, n)
	}
	if w.Retransmissions != 0 {
		t.Fatalf("lossless run retransmitted %d packets", w.Retransmissions)
	}
}

func TestLossyEndToEndCorrectness(t *testing.T) {
	h := newHarness(t, 7, 1)
	w := h.addWorker(t, 1)
	// 15% loss on every hop, both directions.
	for _, pair := range [][2]string{{"worker1", "switch"}, {"switch", "master"}, {"switch", "worker1"}, {"master", "switch"}} {
		if err := h.net.SetLoss(pair[0], pair[1], 0.15); err != nil {
			t.Fatal(err)
		}
	}
	const n = 1000
	const distinct = 50
	entries := entriesMod(n, distinct)
	got := collect(t, h.master, 20*time.Second, func() error { return w.Run(context.Background(), entries) })
	if w.Retransmissions == 0 {
		t.Fatal("15%% loss produced no retransmissions")
	}
	// The invariant that survives loss (§7.2): every distinct value is
	// delivered at least once; duplicates are allowed.
	seen := map[uint64]bool{}
	for _, d := range got[1] {
		seen[d.Values[0]] = true
	}
	if len(seen) != distinct {
		t.Fatalf("distinct values delivered: %d, want %d", len(seen), distinct)
	}
	// The switch must have both pruned and observed retransmissions.
	if h.sw.Pruned == 0 {
		t.Fatal("switch pruned nothing")
	}
	if h.sw.DroppedGap == 0 {
		t.Fatal("no sequence gaps observed at 15% loss — loss injection broken?")
	}
}

func TestMultipleFlowsConcurrently(t *testing.T) {
	const flows = 3
	h := newHarness(t, 3, flows)
	var runs []func() error
	for f := 1; f <= flows; f++ {
		w := h.addWorker(t, uint32(f))
		runs = append(runs, func() error { return w.Run(context.Background(), entriesMod(500, 40)) })
	}
	got := collect(t, h.master, 10*time.Second, runs...)
	for f := 1; f <= flows; f++ {
		seen := map[uint64]bool{}
		for _, d := range got[uint32(f)] {
			seen[d.Values[0]] = true
		}
		if len(seen) != 40 {
			t.Fatalf("flow %d delivered %d distinct, want 40", f, len(seen))
		}
	}
}

func TestWorkerFailsAfterMaxRetries(t *testing.T) {
	n := netsim.New(5)
	wEp := n.Endpoint("w", 64)
	n.Endpoint("switch", 64) // exists but nothing pumps it
	w, err := NewWorker(wEp, WorkerConfig{
		FlowID: 1, SwitchAddr: "switch",
		RTO: time.Millisecond, MaxRetries: 3, Window: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(context.Background(), entriesMod(4, 4))
	if err == nil {
		t.Fatal("worker succeeded with a dead switch")
	}
}

func TestWorkerContextCancel(t *testing.T) {
	n := netsim.New(5)
	wEp := n.Endpoint("w", 64)
	n.Endpoint("switch", 64)
	w, _ := NewWorker(wEp, WorkerConfig{FlowID: 1, SwitchAddr: "switch", RTO: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := w.Run(ctx, entriesMod(4, 4)); err == nil {
		t.Fatal("cancelled worker returned nil")
	}
}

func TestConstructorValidation(t *testing.T) {
	n := netsim.New(1)
	ep := n.Endpoint("x", 4)
	if _, err := NewWorker(ep, WorkerConfig{FlowID: 1}); err == nil {
		t.Fatal("worker without switch addr accepted")
	}
	if _, err := NewSwitch(ep, "", nil); err == nil {
		t.Fatal("switch without master accepted")
	}
	if _, err := NewSwitch(ep, "m", nil); err == nil {
		t.Fatal("switch without dataplane accepted")
	}
	if _, err := NewMaster(ep, ""); err == nil {
		t.Fatal("master without switch addr accepted")
	}
}

func TestUnregisteredFlowPassesThrough(t *testing.T) {
	// §3: the switch is transparent to traffic without installed rules.
	h := newHarness(t, 11, 1)
	name := "stranger"
	ep := h.net.Endpoint(name, 256)
	w, err := NewWorker(ep, WorkerConfig{FlowID: 99, SwitchAddr: "switch", RTO: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Flow 99 is NOT registered on the switch; ACKs come from the master
	// but must route back through the switch, which needs the reverse
	// path. Register only the reverse path (no pruner on the pipeline).
	h.sw.Register(99, name)
	got := collect(t, h.master, 5*time.Second, func() error { return w.Run(context.Background(), entriesMod(50, 50)) })
	if len(got[99]) != 50 {
		t.Fatalf("delivered %d, want all 50 (no pruner installed)", len(got[99]))
	}
}

func TestMasterDeliveredCount(t *testing.T) {
	h := newHarness(t, 13, 1)
	w := h.addWorker(t, 1)
	collect(t, h.master, 5*time.Second, func() error { return w.Run(context.Background(), entriesMod(100, 100)) })
	if h.master.DeliveredCount(1) != 100 {
		t.Fatalf("DeliveredCount = %d", h.master.DeliveredCount(1))
	}
}
