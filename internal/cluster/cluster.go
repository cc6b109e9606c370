// Package cluster is the Figure-1 rack as a dataplane: CWorkers send
// their entries through the §7.2 reliability protocol over the simulated
// lossy network, the ToR switch runs the query's admitted program, and the
// CMaster receives the survivors. A Rack implements engine.BatchDataplane,
// so the engine's one pruned driver streams through it exactly as through
// a leased switch: the rack changes how entries travel, never what the
// switch decides or how the master completes the query.
package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cheetah/internal/netsim"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
	"cheetah/internal/transport"
)

// Config shapes a rack.
type Config struct {
	// Workers is the CWorker flow count a chunk is spread over (default 5,
	// the paper's testbed).
	Workers int
	// LossRate injects loss on every link (0 for a clean fabric).
	LossRate float64
	// Seed drives the loss decisions.
	Seed uint64
	// RTO overrides the protocol retransmission timeout.
	RTO time.Duration
	// Model is the switch hardware model (zero value selects Tofino).
	Model switchsim.Model
}

// Report summarizes a rack's protocol-level behaviour over every chunk it
// carried.
type Report struct {
	EntriesSent     int
	Pruned          uint64
	Delivered       uint64
	Retransmissions uint64
	DroppedGaps     uint64
	PrunerName      string
	// Util is the pipeline occupancy right after the query's program was
	// installed (per-query utilization accounting).
	Util switchsim.Utilization
}

// The rack's addresses, the query id its one program is installed under,
// and an endpoint inbox deep enough that the switch's never overflows with
// every worker's window (transport.DefaultWindow) in flight.
const (
	switchAddr = "switch"
	masterAddr = "master"
	queryID    = 1
	inboxSize  = 1 << 16
)

// query routes every worker flow to the rack's one program, the way the
// Cheetah header's query id selects a query's registers whatever flow a
// packet arrives on (§5).
type query struct{ pipe *switchsim.Pipeline }

func (q query) Process(_ uint32, vals []uint64) switchsim.Decision {
	return q.pipe.Process(queryID, vals)
}

// Rack is one ToR switch with its workers and master. The engine drives it
// from one goroutine (the shard's): ProcessBatch, Err and, once the run is
// over, Close and Report are not safe to call concurrently.
type Rack struct {
	rto     time.Duration
	pipe    *switchsim.Pipeline
	sw      *transport.Switch
	master  *transport.Master
	workers []*netsim.Endpoint // reused by every chunk's flows
	name    string
	util    switchsim.Utilization

	stop    context.CancelFunc
	running sync.WaitGroup // the switch and master goroutines

	nextFlow uint32
	sent     int
	retrans  uint64
	err      error
	closed   bool
}

// NewRack installs prog into the rack's own pipeline — the control-plane
// admission of §3, an error when the program does not fit — and starts the
// switch and the master.
func NewRack(prog prune.Pruner, cfg Config) (*Rack, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 5
	}
	if cfg.Model.Stages == 0 {
		cfg.Model = switchsim.Tofino()
	}
	net := netsim.New(cfg.Seed)
	r := &Rack{rto: cfg.RTO, name: prog.Name(), nextFlow: 1}
	for i := 0; i < cfg.Workers; i++ {
		ep := net.Endpoint(fmt.Sprintf("worker%d", i+1), inboxSize)
		if err := net.SetLossBoth(ep.Name(), switchAddr, cfg.LossRate); err != nil {
			return nil, err
		}
		r.workers = append(r.workers, ep)
	}
	swEp, maEp := net.Endpoint(switchAddr, inboxSize), net.Endpoint(masterAddr, inboxSize)
	if err := net.SetLossBoth(switchAddr, masterAddr, cfg.LossRate); err != nil {
		return nil, err
	}
	var err error
	if r.pipe, err = switchsim.NewPipeline(cfg.Model); err != nil {
		return nil, err
	}
	if err := r.pipe.Install(queryID, prog); err != nil {
		return nil, fmt.Errorf("cluster: query does not fit the switch: %w", err)
	}
	r.util = r.pipe.Utilization()
	if r.sw, err = transport.NewSwitch(swEp, masterAddr, query{r.pipe}); err != nil {
		return nil, err
	}
	if r.master, err = transport.NewMaster(maEp, switchAddr); err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	r.stop = stop
	r.running.Add(2)
	go func() { defer r.running.Done(); r.sw.Run(ctx) }()
	go func() { defer r.running.Done(); r.master.Run(ctx) }()
	return r, nil
}

// ProcessBatch implements engine.BatchDataplane: it sends the chunk's
// entries as DATA packets, entry j on flow j mod W with sequence number
// ⌊j/W⌋+1, and runs the §7.2 protocol until every packet is either pruned
// and ACKed by the switch or delivered to the master. An entry is marked
// Forward exactly when the master received it — a superset of what the
// program forwarded, since a retransmission of a packet the switch
// already pruned travels on raw (Y ≤ X). A dead rack forwards everything.
func (r *Rack) ProcessBatch(b *switchsim.Batch, dec []switchsim.Decision) {
	n := b.N
	if r.err != nil {
		forwardAll(dec[:n])
		return
	}
	w := min(len(r.workers), n)
	// Fresh flow ids per chunk: late packets of an earlier chunk's flows
	// reach neither this chunk's workers nor its marks.
	base := r.nextFlow
	r.nextFlow += uint32(w)
	width := len(b.Cols)
	backing := make([]uint64, n*width)
	flows := make([][][]uint64, w)
	for j := 0; j < n; j++ {
		e := backing[j*width : (j+1)*width : (j+1)*width]
		for i, c := range b.Cols {
			e[i] = c[j]
		}
		flows[j%w] = append(flows[j%w], e)
		dec[j] = switchsim.Prune
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := make([]*transport.Worker, w)
	done := make(chan error, w)
	for f := range workers {
		id := base + uint32(f)
		wk, err := transport.NewWorker(r.workers[f], transport.WorkerConfig{
			FlowID: id, SwitchAddr: switchAddr, RTO: r.rto,
		})
		if err != nil {
			done <- err
			continue
		}
		r.sw.Register(id, r.workers[f].Name())
		workers[f] = wk
		go func() { done <- wk.Run(ctx, flows[f]) }()
	}
	mark := func(d transport.Delivery) {
		f := d.FlowID - base
		if f < uint32(w) && d.Seq >= 1 {
			if j := int(d.Seq-1)*w + int(f); j < n {
				dec[j] = switchsim.Forward
			}
		}
	}
	var broken error
	for pending := w; pending > 0; {
		select {
		case d := <-r.master.Deliveries:
			mark(d)
		case err := <-done:
			pending--
			if err != nil && broken == nil {
				broken = err
				cancel()
			}
		}
	}
	// A worker returns only after its FINACK, and the master answers FIN
	// only after delivering every DATA it ACKed: all marks are queued.
	for drained := false; !drained; {
		select {
		case d := <-r.master.Deliveries:
			mark(d)
		default:
			drained = true
		}
	}
	r.sent += n
	for _, wk := range workers {
		if wk != nil {
			r.retrans += wk.Retransmissions
		}
	}
	if broken != nil {
		// A link that exhausts its retries costs the switch, never the
		// query: the rack stops — its program is no longer touched — and
		// reports the death, and the engine redoes the pass elsewhere.
		r.shutdown()
		r.err = fmt.Errorf("cluster: rack link broken, switch declared dead: %w", broken)
		forwardAll(dec[:n])
	}
}

func forwardAll(dec []switchsim.Decision) {
	for j := range dec {
		dec[j] = switchsim.Forward
	}
}

// Err implements engine.HealthDataplane: nil while every flow got through,
// the broken link's error once one exhausted its retransmissions.
func (r *Rack) Err() error { return r.err }

// shutdown stops the switch and the master and waits for them.
func (r *Rack) shutdown() {
	r.stop()
	r.running.Wait()
}

// Close stops the rack and uninstalls its program. Extra Closes are
// no-ops.
func (r *Rack) Close() error {
	r.shutdown()
	if r.closed {
		return nil
	}
	r.closed = true
	if err := r.pipe.Uninstall(queryID); err != nil {
		return fmt.Errorf("cluster: uninstall: %w", err)
	}
	return nil
}

// Report returns the protocol counters summed over every chunk the rack
// carried. Read it after Close: until the switch stops, late duplicates
// may still move its counters.
func (r *Rack) Report() *Report {
	return &Report{
		EntriesSent:     r.sent,
		Pruned:          r.sw.Pruned,
		Delivered:       r.sw.ForwardedOK + r.sw.ForwardedRetransmit,
		Retransmissions: r.retrans,
		DroppedGaps:     r.sw.DroppedGap,
		PrunerName:      r.name,
		Util:            r.util,
	}
}
