// Package transport implements Cheetah's reliability protocol (§7.2) over
// a lossy datagram network. The protocol's challenge: the switch prunes
// packets on purpose, so the master cannot detect loss from sequence gaps
// alone. The switch therefore participates:
//
//   - Workers number entries with consecutive sequence numbers, keep a
//     retransmission timer per un-ACKed packet, and resend on expiry.
//   - The switch keeps, per flow, the last sequence number X it
//     processed. For an arriving DATA with sequence Y:
//     Y == X+1 → process (prune or forward); on prune the *switch* ACKs;
//     Y ≤ X   → a retransmission of a processed packet: forward to the
//     master *without* reprocessing (the master ACKs);
//     Y >  X+1 → an earlier packet was lost before the switch; drop and
//     wait for the retransmission of X+1.
//   - The master ACKs every DATA it receives and answers FIN with FINACK.
//
// Every packet therefore either reaches the master or is pruned-and-ACKed
// by the switch, and duplicate deliveries are harmless because every
// Cheetah algorithm tolerates forwarding supersets (§7.2).
package transport

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"cheetah/internal/netsim"
	"cheetah/internal/switchsim"
	"cheetah/internal/wire"
)

// DefaultRTO is the default retransmission timeout.
const DefaultRTO = 20 * time.Millisecond

// DefaultWindow bounds un-ACKed packets in flight per worker.
const DefaultWindow = 512

// WorkerConfig configures a protocol sender.
type WorkerConfig struct {
	// FlowID identifies this worker's stream.
	FlowID uint32
	// SwitchAddr is the next hop (all data flows through the switch).
	SwitchAddr string
	// RTO is the retransmission timeout (0 selects DefaultRTO).
	RTO time.Duration
	// Window bounds in-flight packets (0 selects DefaultWindow).
	Window int
	// MaxRetries bounds per-packet retransmissions before the worker
	// reports a broken flow (0 selects 50).
	MaxRetries int
}

// Worker sends one flow of entries reliably through the switch.
type Worker struct {
	cfg WorkerConfig
	ep  *netsim.Endpoint

	mu      sync.Mutex
	acked   map[uint64]bool
	retried map[uint64]int

	// Retransmissions counts data packets sent more than once.
	Retransmissions uint64
}

// NewWorker creates a protocol sender on ep.
func NewWorker(ep *netsim.Endpoint, cfg WorkerConfig) (*Worker, error) {
	if cfg.SwitchAddr == "" {
		return nil, fmt.Errorf("transport: worker needs a switch address")
	}
	if cfg.RTO <= 0 {
		cfg.RTO = DefaultRTO
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 50
	}
	return &Worker{
		cfg:     cfg,
		ep:      ep,
		acked:   make(map[uint64]bool),
		retried: make(map[uint64]int),
	}, nil
}

// Run transmits entries (sequence numbers 1..len(entries)) and blocks
// until every packet is ACKed (by switch or master) and the FIN handshake
// completes, or ctx is cancelled, or a packet exhausts MaxRetries.
func (w *Worker) Run(ctx context.Context, entries [][]uint64) error {
	total := uint64(len(entries))
	buf := make([]byte, 0, 64)
	send := func(seq uint64) error {
		pkt := wire.NewData(w.cfg.FlowID, seq, entries[seq-1])
		b, err := pkt.AppendTo(buf[:0])
		if err != nil {
			return err
		}
		return w.ep.Send(w.cfg.SwitchAddr, b)
	}

	nextSend := uint64(1) // next fresh sequence to transmit
	ackedCount := uint64(0)
	inflight := make(map[uint64]time.Time)
	expired := make([]uint64, 0, w.cfg.Window)

	ticker := time.NewTicker(w.cfg.RTO / 2)
	defer ticker.Stop()

	for ackedCount < total {
		// Fill the window with fresh packets.
		for nextSend <= total && len(inflight) < w.cfg.Window {
			if err := send(nextSend); err != nil {
				return err
			}
			inflight[nextSend] = time.Now()
			nextSend++
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case msg := <-w.ep.Inbox():
			var p wire.Packet
			if err := p.DecodeFrom(msg.Data); err != nil {
				continue // corrupt frame: ignore
			}
			if p.Type != wire.MsgAck || p.FlowID != w.cfg.FlowID {
				continue
			}
			w.mu.Lock()
			dup := w.acked[p.Seq]
			w.acked[p.Seq] = true
			w.mu.Unlock()
			if !dup && p.Seq >= 1 && p.Seq <= total {
				ackedCount++
				delete(inflight, p.Seq)
			}
		case <-ticker.C:
			now := time.Now()
			// Retransmit in ascending sequence order: the switch drops
			// any packet arriving ahead of a gap (Y > X+1), so resends
			// must appear in order for X to advance — per-packet timers
			// on real hardware expire in send order and give the same
			// behaviour.
			expired = expired[:0]
			for seq, sent := range inflight {
				if now.Sub(sent) >= w.cfg.RTO {
					expired = append(expired, seq)
				}
			}
			sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
			// Only the head of the window burns retry budget: packets
			// behind a sequence gap are being *blocked* by the switch's
			// in-order rule, not lost — the gap rule gives the protocol
			// go-back-N head-of-line behaviour under loss, and counting
			// blocked packets would declare healthy flows dead.
			head := uint64(0)
			for seq := range inflight {
				if head == 0 || seq < head {
					head = seq
				}
			}
			for _, seq := range expired {
				if seq == head {
					w.mu.Lock()
					w.retried[seq]++
					tries := w.retried[seq]
					w.mu.Unlock()
					if tries > w.cfg.MaxRetries {
						return fmt.Errorf("transport: flow %d seq %d exceeded %d retries",
							w.cfg.FlowID, seq, w.cfg.MaxRetries)
					}
				}
				if err := send(seq); err != nil {
					return err
				}
				w.Retransmissions++
				inflight[seq] = now
			}
		}
	}
	return w.finHandshake(ctx, total)
}

// finHandshake sends FIN until FINACK arrives.
func (w *Worker) finHandshake(ctx context.Context, lastSeq uint64) error {
	fin := wire.NewFin(w.cfg.FlowID, lastSeq)
	buf, err := fin.AppendTo(nil)
	if err != nil {
		return err
	}
	timer := time.NewTicker(w.cfg.RTO)
	defer timer.Stop()
	if err := w.ep.Send(w.cfg.SwitchAddr, buf); err != nil {
		return err
	}
	tries := 0
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case msg := <-w.ep.Inbox():
			var p wire.Packet
			if err := p.DecodeFrom(msg.Data); err != nil {
				continue
			}
			if p.Type == wire.MsgFinAck && p.FlowID == w.cfg.FlowID {
				return nil
			}
		case <-timer.C:
			tries++
			if tries > w.cfg.MaxRetries {
				return fmt.Errorf("transport: flow %d FIN exceeded %d retries", w.cfg.FlowID, w.cfg.MaxRetries)
			}
			if err := w.ep.Send(w.cfg.SwitchAddr, buf); err != nil {
				return err
			}
		}
	}
}

// Dataplane is the pruning interface the switch node consults; the
// switchsim.Pipeline satisfies it.
type Dataplane interface {
	Process(flowID uint32, vals []uint64) switchsim.Decision
}

// Switch is the protocol middlebox: it runs the dataplane over in-order
// fresh packets and implements the X/Y sequence rules above.
type Switch struct {
	ep         *netsim.Endpoint
	masterAddr string
	dataplane  Dataplane

	mu      sync.Mutex
	lastSeq map[uint32]uint64 // X per flow
	workers map[uint32]string // reverse path for prune-ACKs

	// Counters for tests and the evaluation harness.
	Pruned              uint64
	ForwardedOK         uint64
	ForwardedRetransmit uint64
	DroppedGap          uint64
}

// NewSwitch creates the protocol switch.
func NewSwitch(ep *netsim.Endpoint, masterAddr string, dp Dataplane) (*Switch, error) {
	if masterAddr == "" {
		return nil, fmt.Errorf("transport: switch needs a master address")
	}
	if dp == nil {
		return nil, fmt.Errorf("transport: switch needs a dataplane")
	}
	return &Switch{
		ep:         ep,
		masterAddr: masterAddr,
		dataplane:  dp,
		lastSeq:    make(map[uint32]uint64),
		workers:    make(map[uint32]string),
	}, nil
}

// Register installs the reverse path for a flow's prune-ACKs. The query
// planner calls this when it installs the query's match-action rules.
func (s *Switch) Register(flowID uint32, workerAddr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.workers[flowID] = workerAddr
	s.lastSeq[flowID] = 0
}

// Run pumps the switch until ctx is cancelled.
func (s *Switch) Run(ctx context.Context) {
	buf := make([]byte, 0, 64)
	var p wire.Packet
	for {
		select {
		case <-ctx.Done():
			return
		case msg := <-s.ep.Inbox():
			if err := p.DecodeFrom(msg.Data); err != nil {
				continue
			}
			switch p.Type {
			case wire.MsgData:
				buf = s.handleData(&p, msg.Data, buf)
			case wire.MsgFin:
				// FIN travels to the master, which answers FINACK.
				_ = s.ep.Send(s.masterAddr, msg.Data)
			case wire.MsgAck, wire.MsgFinAck:
				// Control traffic heading back to the worker.
				s.mu.Lock()
				wa := s.workers[p.FlowID]
				s.mu.Unlock()
				if wa != "" {
					_ = s.ep.Send(wa, msg.Data)
				}
			}
		}
	}
}

// handleData applies the §7.2 sequence rules to one DATA packet.
func (s *Switch) handleData(p *wire.Packet, raw []byte, buf []byte) []byte {
	s.mu.Lock()
	x, known := s.lastSeq[p.FlowID]
	workerAddr := s.workers[p.FlowID]
	s.mu.Unlock()
	if !known {
		// Unregistered flow: transparent forwarding (§3).
		_ = s.ep.Send(s.masterAddr, raw)
		return buf
	}
	y := p.Seq
	switch {
	case y == x+1:
		s.mu.Lock()
		s.lastSeq[p.FlowID] = y
		s.mu.Unlock()
		if s.dataplane.Process(p.FlowID, p.Values) == switchsim.Prune {
			s.Pruned++
			ack := wire.NewAck(p.FlowID, y)
			b, err := ack.AppendTo(buf[:0])
			if err == nil && workerAddr != "" {
				_ = s.ep.Send(workerAddr, b)
			}
			return b
		}
		s.ForwardedOK++
		_ = s.ep.Send(s.masterAddr, raw)
	case y <= x:
		// Retransmission of an already-processed packet: forward without
		// reprocessing so switch state is not corrupted; the master ACKs.
		s.ForwardedRetransmit++
		_ = s.ep.Send(s.masterAddr, raw)
	default: // y > x+1
		// A predecessor was lost before the switch; drop and await its
		// retransmission to preserve in-order processing.
		s.DroppedGap++
	}
	return buf
}

// Delivery is one entry handed to the master application.
type Delivery struct {
	FlowID uint32
	Seq    uint64
	Values []uint64
}

// Master is the protocol receiver: it ACKs every delivery back through
// the switch and completes FIN handshakes.
type Master struct {
	ep         *netsim.Endpoint
	switchAddr string

	mu        sync.Mutex
	delivered map[uint32]uint64

	// Deliveries receives entries in arrival order. The channel is owned
	// by the Master and closed when Run returns. A DATA packet is ACKed
	// before it is delivered and a FIN is answered only after, so once a
	// worker's Run has returned, every delivery of its flow is queued.
	Deliveries chan Delivery
}

// NewMaster creates the protocol receiver. ACKs return through
// switchAddr (the reverse path the paper uses: the switch sits between
// master and workers in both directions).
func NewMaster(ep *netsim.Endpoint, switchAddr string) (*Master, error) {
	if switchAddr == "" {
		return nil, fmt.Errorf("transport: master needs a switch address")
	}
	return &Master{
		ep:         ep,
		switchAddr: switchAddr,
		delivered:  make(map[uint32]uint64),
		Deliveries: make(chan Delivery, 4096),
	}, nil
}

// DeliveredCount returns the number of entries delivered for a flow.
func (m *Master) DeliveredCount(flowID uint32) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.delivered[flowID]
}

// Run pumps the master until ctx is cancelled, then closes Deliveries.
func (m *Master) Run(ctx context.Context) {
	defer close(m.Deliveries)
	buf := make([]byte, 0, 32)
	for {
		select {
		case <-ctx.Done():
			return
		case msg := <-m.ep.Inbox():
			var p wire.Packet
			if err := p.DecodeFrom(msg.Data); err != nil {
				continue
			}
			switch p.Type {
			case wire.MsgData:
				// ACK first (even for duplicates), then deliver.
				ack := wire.NewAck(p.FlowID, p.Seq)
				b, err := ack.AppendTo(buf[:0])
				if err == nil {
					buf = b
					_ = m.ep.Send(m.switchAddr, b)
				}
				vals := append([]uint64(nil), p.Values...)
				m.mu.Lock()
				m.delivered[p.FlowID]++
				m.mu.Unlock()
				select {
				case m.Deliveries <- Delivery{FlowID: p.FlowID, Seq: p.Seq, Values: vals}:
				case <-ctx.Done():
					return
				}
			case wire.MsgFin:
				fa := wire.NewFinAck(p.FlowID, p.Seq)
				b, err := fa.AppendTo(buf[:0])
				if err == nil {
					buf = b
					_ = m.ep.Send(m.switchAddr, b)
				}
			}
		}
	}
}
