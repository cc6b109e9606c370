package netserve

// Client is the dial side of the wire protocol: a connection to a
// cheetahd server with a demultiplexing read loop, synchronous
// Query/Append calls correlated by request id, and channel-backed
// subscriptions with explicit credit flow control. All methods are safe
// for concurrent use; requests from many goroutines interleave on one
// connection.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cheetah/internal/engine"
	"cheetah/internal/table"
	"cheetah/internal/wire"
)

// ServerError is a failure the server reported for one request.
type ServerError struct {
	Code wire.ErrCode
	Msg  string
}

// Error renders the failure.
func (e *ServerError) Error() string {
	return fmt.Sprintf("netserve: server error (%v): %s", e.Code, e.Msg)
}

// Retryable reports whether retrying the request later (or against
// another server) can succeed — true for drain shedding and backlog
// pushback, false for invalid requests and internal failures.
func (e *ServerError) Retryable() bool { return e.Code == wire.CodeRetryable }

// ErrClientClosed fails calls on a closed (or disconnected) client.
var ErrClientClosed = errors.New("netserve: client closed")

// Client is one open connection to a server.
type Client struct {
	nc      net.Conn
	welcome wire.Welcome

	wmu sync.Mutex // serializes frame writes

	mu     sync.Mutex
	nextID uint64
	calls  map[uint64]chan callReply
	subs   map[uint64]*ClientSub
	err    error // terminal connection error
	closed bool
}

// callReply is one correlated response: exactly one field is set.
type callReply struct {
	result   *wire.ResultMsg
	appended *wire.AppendedMsg
	subbed   *wire.SubscribedMsg
	err      error
}

// Dial connects to a server and performs the handshake, identifying as
// tenant. The returned client owns the connection.
func Dial(addr, tenant string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cl, err := NewClient(nc, tenant)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return cl, nil
}

// NewClient performs the handshake over an existing connection.
func NewClient(nc net.Conn, tenant string) (*Client, error) {
	h := wire.Hello{Version: wire.ProtoVersion, Tenant: tenant}
	if err := wire.WriteFrame(nc, wire.FrameHello, h.EncodeBody(nil)); err != nil {
		return nil, err
	}
	ft, body, err := wire.ReadFrame(nc)
	if err != nil {
		return nil, err
	}
	switch ft {
	case wire.FrameWelcome:
	case wire.FrameError:
		var em wire.ErrorMsg
		if err := em.DecodeBody(body); err != nil {
			return nil, err
		}
		return nil, &ServerError{Code: em.Code, Msg: em.Msg}
	default:
		return nil, fmt.Errorf("netserve: expected WELCOME, got %v", ft)
	}
	cl := &Client{
		nc:    nc,
		calls: make(map[uint64]chan callReply),
		subs:  make(map[uint64]*ClientSub),
	}
	if err := cl.welcome.DecodeBody(body); err != nil {
		return nil, err
	}
	go cl.readLoop()
	return cl, nil
}

// Welcome returns the server's handshake: protocol version, fabric
// width, table catalog and the streamed table's name ("" = streaming
// disabled).
func (cl *Client) Welcome() wire.Welcome { return cl.welcome }

// Close tears the connection down; pending calls fail with
// ErrClientClosed and subscription channels close.
func (cl *Client) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	cl.mu.Unlock()
	g := wire.GoodbyeMsg{Reason: "client closing"}
	cl.wmu.Lock()
	_ = wire.WriteFrame(cl.nc, wire.FrameGoodbye, g.EncodeBody(nil))
	cl.wmu.Unlock()
	err := cl.nc.Close()
	return err
}

func (cl *Client) writeFrame(t wire.FrameType, body []byte) error {
	cl.wmu.Lock()
	defer cl.wmu.Unlock()
	return wire.WriteFrame(cl.nc, t, body)
}

// register allocates a request id with a reply channel.
func (cl *Client) register() (uint64, chan callReply, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed || cl.err != nil {
		return 0, nil, cl.terminalLocked()
	}
	cl.nextID++
	id := cl.nextID
	ch := make(chan callReply, 1)
	cl.calls[id] = ch
	return id, ch, nil
}

func (cl *Client) terminalLocked() error {
	if cl.err != nil {
		return cl.err
	}
	return ErrClientClosed
}

func (cl *Client) drop(id uint64) {
	cl.mu.Lock()
	delete(cl.calls, id)
	cl.mu.Unlock()
}

// call sends one frame and waits for its correlated reply.
func (cl *Client) call(ctx context.Context, ft wire.FrameType, id uint64, ch chan callReply, body []byte) (callReply, error) {
	if err := cl.writeFrame(ft, body); err != nil {
		cl.drop(id)
		return callReply{}, err
	}
	select {
	case r := <-ch:
		return r, r.err
	case <-ctx.Done():
		cl.drop(id)
		return callReply{}, ctx.Err()
	}
}

// QueryOptions carries a one-shot query's QoS.
type QueryOptions struct {
	// Priority orders the server's admission queue (higher first).
	Priority int
	// Deadline, when non-zero, sheds the query server-side if admission
	// cannot happen in time. It travels as a relative duration, so
	// client/server clock skew does not matter.
	Deadline time.Duration
}

// Query runs one one-shot query and returns the server's result.
func (cl *Client) Query(ctx context.Context, spec wire.QuerySpec, opts QueryOptions) (*wire.ResultMsg, error) {
	id, ch, err := cl.register()
	if err != nil {
		return nil, err
	}
	req := wire.QueryReq{ID: id, Priority: int32(opts.Priority), Spec: spec}
	if opts.Deadline > 0 {
		req.DeadlineMicros = uint64(opts.Deadline / time.Microsecond)
	}
	r, err := cl.call(ctx, wire.FrameQuery, id, ch, req.EncodeBody(nil))
	if err != nil {
		return nil, err
	}
	return r.result, nil
}

// QueryEngine is Query for a locally-built engine.Query: the spec is
// derived with wire.SpecOf against the named tables.
func (cl *Client) QueryEngine(ctx context.Context, q *engine.Query, tableName, rightName string, opts QueryOptions) (*engine.Result, error) {
	spec, err := wire.SpecOf(q, tableName, rightName)
	if err != nil {
		return nil, err
	}
	res, err := cl.Query(ctx, *spec, opts)
	if err != nil {
		return nil, err
	}
	return &engine.Result{Columns: res.Columns, Rows: res.Rows}, nil
}

// Append streams one row batch into the server's ingestor and returns
// the committed version. Retryable server errors indicate backlog shed.
func (cl *Client) Append(ctx context.Context, batch *table.Table) (uint64, error) {
	id, ch, err := cl.register()
	if err != nil {
		return 0, err
	}
	req := wire.AppendBatchOf(id, batch)
	r, err := cl.call(ctx, wire.FrameAppend, id, ch, req.EncodeBody(nil))
	if err != nil {
		return 0, err
	}
	return r.appended.Version, nil
}

// Ping round-trips a liveness probe.
func (cl *Client) Ping(ctx context.Context) error {
	id, ch, err := cl.register()
	if err != nil {
		return err
	}
	p := wire.PingMsg{Nonce: id}
	r, err := cl.call(ctx, wire.FramePing, id, ch, p.EncodeBody(nil))
	if err != nil {
		return err
	}
	if r.result != nil || r.appended != nil {
		return fmt.Errorf("netserve: ping answered with the wrong frame")
	}
	return nil
}

// ClientSub is a standing subscription held over the connection.
type ClientSub struct {
	cl *Client
	id uint64
	// Direct reports the server could not host the standing program on
	// a switch; deltas run exact and unpruned (results are identical).
	Direct bool

	updates chan *wire.UpdateMsg
	once    sync.Once

	// rows is the standing result the server's change sets apply to and
	// ver its version; only the read loop touches them.
	rows [][]string
	ver  uint64
}

// SubscribeOptions configures a subscription.
type SubscribeOptions struct {
	// Window/Slide select the windowed variants (rows; 0 = unwindowed).
	Window, Slide int
	// Credits is the initial send window: how many updates the server
	// may push before waiting for Credit calls. 0 = 1.
	Credits int
	// Buffer is the local update channel's capacity (default 1; the
	// server coalesces latest-wins beyond the credit window anyway).
	Buffer int
}

// Subscribe registers a continuous query over the server's streamed
// table. Updates arrive on the returned subscription's channel; each
// consumed update should be matched by a Credit call to reopen the
// window.
func (cl *Client) Subscribe(ctx context.Context, spec wire.QuerySpec, opts SubscribeOptions) (*ClientSub, error) {
	id, ch, err := cl.register()
	if err != nil {
		return nil, err
	}
	buf := opts.Buffer
	if buf <= 0 {
		buf = 1
	}
	sub := &ClientSub{cl: cl, id: id, updates: make(chan *wire.UpdateMsg, buf)}
	cl.mu.Lock()
	cl.subs[id] = sub
	cl.mu.Unlock()
	req := wire.SubscribeReq{
		ID:      id,
		Window:  uint32(opts.Window),
		Slide:   uint32(opts.Slide),
		Credits: uint32(opts.Credits),
		Spec:    spec,
	}
	r, err := cl.call(ctx, wire.FrameSubscribe, id, ch, req.EncodeBody(nil))
	if err != nil {
		cl.mu.Lock()
		delete(cl.subs, id)
		cl.mu.Unlock()
		return nil, err
	}
	sub.Direct = r.subbed.Direct
	return sub, nil
}

// Updates returns the subscription's update channel. Each update holds
// the whole standing result at its Version, rebuilt from the server's
// change set (Base 0, nothing Removed); its rows are shared with later
// rebuilds, so read them and do not modify them. The channel closes when
// the subscription or connection closes. Updates are latest-wins: a slow
// consumer sees the newest standing result, not every intermediate one.
func (s *ClientSub) Updates() <-chan *wire.UpdateMsg { return s.updates }

// Credit reopens the send window by n updates.
func (s *ClientSub) Credit(n int) error {
	if n <= 0 {
		return nil
	}
	m := wire.CreditMsg{ID: s.id, N: uint32(n)}
	return s.cl.writeFrame(wire.FrameCredit, m.EncodeBody(nil))
}

// Close deregisters the subscription server-side and closes Updates.
func (s *ClientSub) Close() error {
	var err error
	s.once.Do(func() {
		s.cl.mu.Lock()
		delete(s.cl.subs, s.id)
		s.cl.mu.Unlock()
		m := wire.UnsubscribeMsg{ID: s.id}
		err = s.cl.writeFrame(wire.FrameUnsubscribe, m.EncodeBody(nil))
		close(s.updates)
	})
	return err
}

// deliver routes one update to the subscription's channel without
// blocking the read loop: if the buffer is full the oldest queued
// update is dropped (latest wins, matching the server's coalescing).
func (s *ClientSub) deliver(u *wire.UpdateMsg) {
	for {
		select {
		case s.updates <- u:
			return
		default:
			select {
			case <-s.updates:
			default:
			}
		}
	}
}

// apply rebuilds the whole standing result from one change set. A change
// against another version than the one held, or one that does not apply
// to it, means the two ends disagree, and the caller fails the connection.
func (s *ClientSub) apply(u *wire.UpdateMsg) (*wire.UpdateMsg, error) {
	if u.Base != s.ver {
		return nil, fmt.Errorf("netserve: subscription %d: the update to version %d is against version %d, the client holds %d",
			s.id, u.Version, u.Base, s.ver)
	}
	rows, err := engine.MergeRows(s.rows, u.Removed, u.Rows)
	if err != nil {
		return nil, fmt.Errorf("netserve: subscription %d: the update to version %d: %w", s.id, u.Version, err)
	}
	s.rows, s.ver = rows, u.Version
	return &wire.UpdateMsg{ID: u.ID, Version: u.Version, Columns: u.Columns, Rows: rows}, nil
}

// fail tears the client down with a terminal error: every pending call
// and subscription learns the connection is gone.
func (cl *Client) fail(err error) {
	cl.mu.Lock()
	if cl.err == nil {
		cl.err = err
	}
	calls := cl.calls
	cl.calls = make(map[uint64]chan callReply)
	subs := cl.subs
	cl.subs = make(map[uint64]*ClientSub)
	cl.mu.Unlock()
	for _, ch := range calls {
		ch <- callReply{err: err}
	}
	for _, s := range subs {
		s.once.Do(func() { close(s.updates) })
	}
	cl.nc.Close()
}

// reply completes the pending call registered under id.
func (cl *Client) reply(id uint64, r callReply) {
	cl.mu.Lock()
	ch := cl.calls[id]
	delete(cl.calls, id)
	cl.mu.Unlock()
	if ch != nil {
		ch <- r
	}
}

// Err returns the terminal connection error, if any (e.g. the server's
// Goodbye reason after a drain).
func (cl *Client) Err() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.err
}

// readLoop demultiplexes server frames to their waiting calls and
// subscriptions.
func (cl *Client) readLoop() {
	for {
		ft, body, err := wire.ReadFrame(cl.nc)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				err = ErrClientClosed
			}
			cl.fail(err)
			return
		}
		switch ft {
		case wire.FrameResult:
			var m wire.ResultMsg
			if err := m.DecodeBody(body); err != nil {
				cl.fail(err)
				return
			}
			cl.reply(m.ID, callReply{result: &m})
		case wire.FrameAppended:
			var m wire.AppendedMsg
			if err := m.DecodeBody(body); err != nil {
				cl.fail(err)
				return
			}
			cl.reply(m.ID, callReply{appended: &m})
		case wire.FrameSubscribed:
			var m wire.SubscribedMsg
			if err := m.DecodeBody(body); err != nil {
				cl.fail(err)
				return
			}
			cl.reply(m.ID, callReply{subbed: &m})
		case wire.FramePong:
			var m wire.PingMsg
			if err := m.DecodeBody(body); err != nil {
				cl.fail(err)
				return
			}
			cl.reply(m.Nonce, callReply{})
		case wire.FrameUpdate:
			var m wire.UpdateMsg
			if err := m.DecodeBody(body); err != nil {
				cl.fail(err)
				return
			}
			cl.mu.Lock()
			sub := cl.subs[m.ID]
			cl.mu.Unlock()
			if sub == nil {
				continue
			}
			full, err := sub.apply(&m)
			if err != nil {
				cl.fail(err)
				return
			}
			sub.deliver(full)
		case wire.FrameError:
			var m wire.ErrorMsg
			if err := m.DecodeBody(body); err != nil {
				cl.fail(err)
				return
			}
			serr := &ServerError{Code: m.Code, Msg: m.Msg}
			if m.ID == 0 {
				cl.fail(serr)
				return
			}
			cl.reply(m.ID, callReply{err: serr})
		case wire.FrameGoodbye:
			var m wire.GoodbyeMsg
			_ = m.DecodeBody(body)
			cl.fail(&ServerError{Code: wire.CodeRetryable, Msg: "server goodbye: " + m.Reason})
			return
		default:
			cl.fail(fmt.Errorf("netserve: unexpected frame %v", ft))
			return
		}
	}
}
