// Package netserve is the network front door: a TCP server that speaks
// the internal/wire frame protocol and multiplexes many client
// connections onto one shared plan.Session fabric. It closes the gap
// between the library API and the paper's deployment story — external
// clients submit one-shot queries, stream appends, and hold standing
// subscriptions against the fault-tolerant fabric, with the equivalence
// discipline intact: a query over the wire returns bit-identical rows
// to engine.ExecDirect.
//
// The server's moving parts:
//
//   - One plan.Session per server, opened over the primary table: its
//     one switch fabric admits the one-shot queries (Session.SubmitQoS)
//     and the standing programs of the optional Streaming handle
//     (appends + continuous queries) alike.
//   - One goroutine per connection reading frames; each query runs on
//     its own goroutine through Session.SubmitQoS with the connection's
//     tenant identity and the request's priority/deadline mapped to
//     fabric.QoS — so the fabric's admission, quotas and deadline
//     shedding apply to network clients exactly as to in-process ones.
//   - Per-subscription credit-based send windows: the server only
//     pushes a FrameUpdate while the subscription has credits; results
//     arriving with the window exhausted coalesce latest-wins (matching
//     stream.Subscription's own Updates contract), so a slow client
//     throttles its own subscription without stalling the fabric. An
//     update is a change set against the result last sent — the one the
//     client holds — so it costs what changed, and coalescing needs no
//     merging.
//   - Graceful drain: Shutdown stops accepting, fails new work with a
//     retryable error (clients may reconnect elsewhere), waits for
//     in-flight queries, closes subscriptions (each gets a final
//     Goodbye), then closes the session — no client is left hanging.
//
// Equivalence note: one-shot queries against the streamed primary table
// execute against a consistent Ingestor snapshot, not the live table, so
// concurrent appends can never tear a scan.
package netserve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"cheetah/internal/engine"
	"cheetah/internal/fabric"
	"cheetah/internal/plan"
	"cheetah/internal/stats"
	"cheetah/internal/stream"
	"cheetah/internal/table"
	"cheetah/internal/wire"
)

// Options configures a server.
type Options struct {
	// Tables is the served catalog: every table a client query may name.
	// It must contain Primary.
	Tables map[string]*table.Table
	// Primary names the session's table — the one queries plan against
	// and Streaming appends to.
	Primary string
	// Plan configures the shared session (fabric width, switch model,
	// admission queue limit and tenant quota, workers, seed).
	Plan plan.Options
	// Stream, when non-nil, enables appends and subscriptions over the
	// primary table with the given backlog/shed policy.
	Stream *plan.StreamOptions
	// SlowQueryThreshold, when > 0, counts and logs every query whose
	// measured wall clock meets it.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives one line per slow query; nil selects the
	// standard logger.
	SlowQueryLog func(format string, args ...any)
}

// Server is a live cheetahd instance: a listener plus the shared
// session fabric its connections multiplex onto.
type Server struct {
	ln      net.Listener
	sess    *plan.Session
	strm    *plan.Streaming // nil when streaming is disabled
	tables  map[string]*table.Table
	primary string
	metrics *stats.Registry
	slowAt  time.Duration
	slowLog func(format string, args ...any)

	mu       sync.Mutex
	conns    map[*conn]struct{}
	draining bool
	closed   bool

	// accepting tracks the accept loop; handlers tracks per-connection
	// read loops and subscription forwarders; inflight tracks queries
	// and appends the drain must wait out.
	accepting sync.WaitGroup
	handlers  sync.WaitGroup
	inflight  sync.WaitGroup
}

// Serve starts a server on ln. The listener is owned by the server and
// closed on Shutdown/Close.
func Serve(ln net.Listener, opts Options) (*Server, error) {
	primary := opts.Tables[opts.Primary]
	if opts.Primary == "" || primary == nil {
		return nil, fmt.Errorf("netserve: Options.Tables must contain Primary (%q)", opts.Primary)
	}
	if opts.SlowQueryLog == nil {
		opts.SlowQueryLog = log.Printf
	}
	sess, err := plan.Open(primary, opts.Plan)
	if err != nil {
		return nil, err
	}
	var strm *plan.Streaming
	if opts.Stream != nil {
		strm, err = sess.Stream(context.Background(), *opts.Stream)
		if err != nil {
			sess.Close()
			return nil, err
		}
	}
	tables := make(map[string]*table.Table, len(opts.Tables))
	for name, t := range opts.Tables {
		tables[name] = t
	}
	s := &Server{
		ln:      ln,
		sess:    sess,
		strm:    strm,
		tables:  tables,
		primary: opts.Primary,
		metrics: sess.Fabric().Metrics(),
		slowAt:  opts.SlowQueryThreshold,
		slowLog: opts.SlowQueryLog,
		conns:   make(map[*conn]struct{}),
	}
	s.accepting.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Listen starts a server on a fresh TCP listener at addr (use
// "127.0.0.1:0" for an ephemeral test port).
func Listen(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s, err := Serve(ln, opts)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return s, nil
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Session returns the server's shared session.
func (s *Server) Session() *plan.Session { return s.sess }

// Streaming returns the streaming handle, or nil when disabled.
func (s *Server) Streaming() *plan.Streaming { return s.strm }

// Stats returns the cumulative admission counters summed across the
// session's fabric, standing programs' leases included.
func (s *Server) Stats() fabric.Counters { return s.sess.Fabric().Total() }

// Metrics returns the server's operational-metrics registry, the
// session fabric's: one registry across every layer — fabric admission
// counters, queue/lease gauges, admission-wait and query-latency
// histograms, credit stalls — the series /metrics exposes.
func (s *Server) Metrics() *stats.Registry { return s.metrics }

// WriteMetrics writes the registry in the Prometheus text format after
// setting table_derived_bytes{table} to each catalog table's
// DerivedBytes: the account is read at scrape time, so no query or
// append pays for it.
func (s *Server) WriteMetrics(w io.Writer) error {
	for name, t := range s.tables {
		s.metrics.Gauge("table_derived_bytes", "table", name).Set(int64(t.DerivedBytes().Total()))
	}
	return s.metrics.WritePrometheus(w)
}

// Healthy reports whether the server can currently do useful work: not
// draining, and at least one switch of the session's fabric alive (an
// all-dead fabric still answers exactly via the master-side backstop,
// but /healthz should say the deployment is degraded).
func (s *Server) Healthy() bool {
	s.mu.Lock()
	down := s.draining || s.closed
	s.mu.Unlock()
	return !down && len(s.sess.Fabric().Healthy()) > 0
}

func (s *Server) acceptLoop() {
	defer s.accepting.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed: drain in progress
		}
		c := &conn{srv: s, nc: nc, subs: make(map[uint64]*subState)}
		c.ctx, c.cancel = context.WithCancel(context.Background())
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			// Refuse politely: a retryable connection-level error, then
			// close. The client sees ErrDraining, not a reset.
			c.writeError(0, wire.CodeRetryable, "server is draining")
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.handlers.Add(1)
		go func() {
			defer s.handlers.Done()
			c.serve()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// beginRequest registers one in-flight query/append with the drain
// barrier; it fails when the server is draining so the caller can
// answer with a retryable error instead of racing Session.Close.
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Shutdown drains the server: the listener closes (new connections are
// refused with a retryable error), requests arriving on live
// connections fail retryable, in-flight queries and appends run to
// completion, subscriptions close after their final update, every
// connection gets a Goodbye, and the session closes — releasing all
// leases and queued waiters. Returns ctx.Err() if the context expires
// first (the remaining teardown still completes in the background).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	s.ln.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.accepting.Wait()
		// In-flight work completes; nothing new can start (beginRequest
		// checks draining), so this converges.
		s.inflight.Wait()
		// Subscriptions next: each drains its in-flight delta, pushes
		// nothing further, and the forwarder exits.
		s.mu.Lock()
		conns := make([]*conn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		for _, c := range conns {
			c.shutdown("server shutting down")
		}
		// Session.Close drains the streaming handle, then closes the
		// fabric: leases release, queued admissions fail over.
		s.sess.Close()
		for _, c := range conns {
			c.nc.Close()
		}
		s.handlers.Wait()
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close shuts down without waiting for in-flight work (tests and
// error paths). Prefer Shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.closed = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	s.sess.Close()
	for _, c := range conns {
		c.nc.Close()
	}
	s.accepting.Wait()
	s.handlers.Wait()
	return nil
}

// conn is one client connection: the read loop plus the write-side
// state (serialized frames, per-subscription send windows).
type conn struct {
	srv    *Server
	nc     net.Conn
	tenant string
	// ctx is the connection's lifetime, cancelled by teardown: a query or
	// subscription still waiting for admission when its client goes away
	// gives up its place in the queue instead of running for nobody.
	ctx    context.Context
	cancel context.CancelFunc

	// wmu serializes frame writes: query goroutines, subscription
	// forwarders and the read loop all answer on the same socket.
	wmu sync.Mutex

	// mu guards subs and closed.
	mu     sync.Mutex
	subs   map[uint64]*subState
	closed bool
}

// subState is one standing subscription's server-side send window and
// the result its client holds.
type subState struct {
	sub  *plan.Subscription
	kind string // the query kind, update_frames' and update_bytes' label

	// mu serialises the subscription's sends (sendUpdate) and guards the
	// fields below.
	mu      sync.Mutex
	credits uint32
	// pending is the newest result that arrived while the window was
	// exhausted (latest wins — intermediate standing results are
	// skippable by construction, the subscription's own Updates channel
	// has the same contract); its change set is diffed when it is sent.
	pending    *engine.Result
	pendingVer uint64
	// sent is the rows of the last result sent — the one the client
	// holds — and sentVer its version: the base of the next change set
	// (nil and 0 before the first).
	sent    [][]string
	sentVer uint64
}

func (c *conn) writeFrame(t wire.FrameType, body []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return wire.WriteFrame(c.nc, t, body)
}

func (c *conn) writeError(id uint64, code wire.ErrCode, msg string) {
	m := wire.ErrorMsg{ID: id, Code: code, Msg: msg}
	_ = c.writeFrame(wire.FrameError, m.EncodeBody(nil))
}

// serve runs the connection: handshake, then the frame dispatch loop.
// On any exit every subscription held by the connection closes — the
// disconnect path that releases fabric leases.
func (c *conn) serve() {
	defer c.teardown()
	if err := c.handshake(); err != nil {
		return
	}
	for {
		ft, body, err := wire.ReadFrame(c.nc)
		if err != nil {
			return // disconnect (clean or not): teardown releases subs
		}
		if err := c.dispatch(ft, body); err != nil {
			return
		}
	}
}

// teardown cancels the connection's queued admissions and closes every
// subscription it holds, releasing their standing programs' fabric leases
// and stopping the forwarders.
func (c *conn) teardown() {
	c.cancel()
	c.mu.Lock()
	c.closed = true
	subs := make([]*subState, 0, len(c.subs))
	for _, st := range c.subs {
		subs = append(subs, st)
	}
	c.subs = make(map[uint64]*subState)
	c.mu.Unlock()
	for _, st := range subs {
		st.sub.Close()
	}
	c.nc.Close()
}

// shutdown is the drain-path teardown: like teardown, plus a Goodbye so
// the client distinguishes an orderly drain from a dropped link.
func (c *conn) shutdown(reason string) {
	g := wire.GoodbyeMsg{Reason: reason}
	_ = c.writeFrame(wire.FrameGoodbye, g.EncodeBody(nil))
	c.teardown()
}

// handshake reads the Hello and answers with the catalog.
func (c *conn) handshake() error {
	ft, body, err := wire.ReadFrame(c.nc)
	if err != nil {
		return err
	}
	if ft != wire.FrameHello {
		c.writeError(0, wire.CodeInvalid, "expected HELLO")
		return fmt.Errorf("netserve: expected HELLO, got %v", ft)
	}
	var h wire.Hello
	if err := h.DecodeBody(body); err != nil {
		c.writeError(0, wire.CodeInvalid, "malformed HELLO")
		return err
	}
	if h.Version != wire.ProtoVersion {
		c.writeError(0, wire.CodeInvalid,
			fmt.Sprintf("protocol version %d not supported (want %d)", h.Version, wire.ProtoVersion))
		return fmt.Errorf("netserve: version mismatch")
	}
	c.tenant = h.Tenant
	w := wire.Welcome{
		Version:  wire.ProtoVersion,
		Switches: uint32(c.srv.sess.Fabric().Size()),
	}
	for name, t := range c.srv.tables {
		w.Tables = append(w.Tables, wire.TableDef{Name: name, Schema: t.Schema()})
	}
	sortTableDefs(w.Tables)
	if c.srv.strm != nil {
		w.Stream = c.srv.primary
	}
	return c.writeFrame(wire.FrameWelcome, w.EncodeBody(nil))
}

func sortTableDefs(defs []wire.TableDef) {
	for i := 1; i < len(defs); i++ {
		for j := i; j > 0 && defs[j].Name < defs[j-1].Name; j-- {
			defs[j], defs[j-1] = defs[j-1], defs[j]
		}
	}
}

func (c *conn) dispatch(ft wire.FrameType, body []byte) error {
	switch ft {
	case wire.FramePing:
		var p wire.PingMsg
		if err := p.DecodeBody(body); err != nil {
			c.writeError(0, wire.CodeInvalid, "malformed PING")
			return err
		}
		return c.writeFrame(wire.FramePong, p.EncodeBody(nil))
	case wire.FrameQuery:
		var q wire.QueryReq
		if err := q.DecodeBody(body); err != nil {
			c.writeError(0, wire.CodeInvalid, "malformed QUERY")
			return err
		}
		c.handleQuery(&q)
		return nil
	case wire.FrameAppend:
		var a wire.AppendReq
		if err := a.DecodeBody(body); err != nil {
			c.writeError(0, wire.CodeInvalid, "malformed APPEND")
			return err
		}
		c.handleAppend(&a)
		return nil
	case wire.FrameSubscribe:
		var sr wire.SubscribeReq
		if err := sr.DecodeBody(body); err != nil {
			c.writeError(0, wire.CodeInvalid, "malformed SUBSCRIBE")
			return err
		}
		c.handleSubscribe(&sr)
		return nil
	case wire.FrameCredit:
		var cr wire.CreditMsg
		if err := cr.DecodeBody(body); err != nil {
			c.writeError(0, wire.CodeInvalid, "malformed CREDIT")
			return err
		}
		c.handleCredit(&cr)
		return nil
	case wire.FrameUnsubscribe:
		var u wire.UnsubscribeMsg
		if err := u.DecodeBody(body); err != nil {
			c.writeError(0, wire.CodeInvalid, "malformed UNSUBSCRIBE")
			return err
		}
		c.mu.Lock()
		st := c.subs[u.ID]
		delete(c.subs, u.ID)
		c.mu.Unlock()
		if st != nil {
			st.sub.Close()
		}
		return nil
	case wire.FrameGoodbye:
		return errors.New("netserve: client said goodbye")
	default:
		c.writeError(0, wire.CodeInvalid, fmt.Sprintf("unexpected frame %v", ft))
		return fmt.Errorf("netserve: unexpected frame %v", ft)
	}
}

// bindQuery resolves a spec against the catalog. Queries touching the
// streamed primary table bind to a consistent snapshot so concurrent
// appends cannot tear the scan; the snapshot version is returned for
// the result's metadata (0 when streaming is off).
func (c *conn) bindQuery(spec *wire.QuerySpec) (*engine.Query, error) {
	tables := c.srv.tables
	if c.srv.strm != nil && (spec.Table == c.srv.primary || spec.Right == c.srv.primary) {
		snap, _, err := c.srv.strm.Ingest().Snapshot()
		if err != nil {
			return nil, err
		}
		tables = make(map[string]*table.Table, len(c.srv.tables))
		for name, t := range c.srv.tables {
			tables[name] = t
		}
		tables[c.srv.primary] = snap
	}
	return spec.Bind(tables)
}

// handleQuery runs one one-shot query on its own goroutine through the
// shared fabric's QoS admission and answers with a Result or Error
// frame. During a drain the answer is an immediate retryable error. A
// panic anywhere on that goroutine — bind, admission and execution,
// encode — costs the query, not the process: it answers with an internal
// Error frame and counts in query_panics, by kind ("unbound" before the
// spec bound), and the connection serves on.
func (c *conn) handleQuery(req *wire.QueryReq) {
	if !c.srv.beginRequest() {
		c.writeError(req.ID, wire.CodeRetryable, "server is draining")
		return
	}
	go func() {
		defer c.srv.inflight.Done()
		kind := "unbound"
		defer func() {
			if r := recover(); r != nil {
				c.srv.metrics.Counter("query_panics", "kind", kind).Incr(1)
				c.writeError(req.ID, wire.CodeInternal, fmt.Sprintf("query panicked: %v", r))
			}
		}()
		q, err := c.bindQuery(&req.Spec)
		if err != nil {
			c.writeError(req.ID, wire.CodeInvalid, err.Error())
			return
		}
		kind = q.Kind.String()
		qos := fabric.QoS{Tenant: c.tenant, Priority: int(req.Priority)}
		if req.DeadlineMicros != 0 {
			qos.Deadline = time.Now().Add(time.Duration(req.DeadlineMicros) * time.Microsecond)
		}
		ex, err := c.srv.sess.SubmitQoS(c.ctx, q, qos)
		if err != nil {
			code := wire.CodeInternal
			if errors.Is(err, fabric.ErrDeadline) || errors.Is(err, fabric.ErrBusy) {
				code = wire.CodeRetryable
			}
			c.srv.metrics.Counter("query_errors", "kind", q.Kind.String()).Incr(1)
			c.writeError(req.ID, code, err.Error())
			return
		}
		c.srv.observeQuery(c.tenant, q, ex)
		res := wire.ResultMsg{
			ID:          req.ID,
			Mode:        uint8(ex.Plan.Mode),
			EntriesSent: uint64(ex.Traffic.EntriesSent),
			Forwarded:   uint64(ex.Traffic.Forwarded),
			FailedOver:  uint32(ex.FailedOver),
			Columns:     ex.Result.Columns,
			Rows:        ex.Result.Rows,
			WallNanos:   uint64(ex.Wall),
		}
		if tr := ex.Trace(); tr != nil {
			for _, st := range tr.Summary() {
				res.Trace = append(res.Trace, wire.TraceStage{
					Stage:     uint8(st.Stage),
					Nanos:     clampU64(st.Nanos),
					Entries:   clampU64(st.Entries),
					Forwarded: clampU64(st.Forwarded),
				})
			}
		}
		_ = c.writeFrame(wire.FrameResult, res.EncodeBody(nil))
	}()
}

// clampU64 narrows a non-negative int64 metric for the wire (negative
// never happens in practice; encode zero rather than a huge uvarint).
func clampU64(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// observeQuery records one completed query's operational series: the
// per-kind latency histogram and, past the slow-query threshold, the
// slow-query counter and log line.
func (s *Server) observeQuery(tenant string, q *engine.Query, ex *plan.Execution) {
	kind := q.Kind.String()
	s.metrics.Histogram("query_latency", "kind", kind).Observe(int64(ex.Wall))
	if s.slowAt > 0 && ex.Wall >= s.slowAt {
		s.metrics.Counter("slow_queries", "kind", kind).Incr(1)
		s.slowLog("netserve: slow query kind=%s tenant=%q wall=%v failovers=%d rows=%d",
			kind, tenant, ex.Wall, ex.FailedOver, len(ex.Result.Rows))
	}
}

// handleAppend commits one batch into the ingestor, mapping the
// backpressure policy onto the wire: Block policies block right here
// (TCP pushback — the client's next frame waits), Shed answers with a
// retryable error.
func (c *conn) handleAppend(req *wire.AppendReq) {
	if c.srv.strm == nil {
		c.writeError(req.ID, wire.CodeInvalid, "streaming is disabled")
		return
	}
	if !c.srv.beginRequest() {
		c.writeError(req.ID, wire.CodeRetryable, "server is draining")
		return
	}
	defer c.srv.inflight.Done()
	batch, err := req.Batch(c.srv.tables[c.srv.primary].Schema())
	if err != nil {
		c.writeError(req.ID, wire.CodeInvalid, err.Error())
		return
	}
	if err := c.srv.strm.AppendBatch(batch); err != nil {
		code := wire.CodeInternal
		if errors.Is(err, stream.ErrBacklog) {
			code = wire.CodeRetryable
		}
		c.writeError(req.ID, code, err.Error())
		return
	}
	ack := wire.AppendedMsg{ID: req.ID, Version: c.srv.strm.Version()}
	_ = c.writeFrame(wire.FrameAppended, ack.EncodeBody(nil))
}

// handleSubscribe registers a continuous query over the primary table
// and starts the forwarder pushing standing-result refreshes under the
// credit window.
func (c *conn) handleSubscribe(req *wire.SubscribeReq) {
	if c.srv.strm == nil {
		c.writeError(req.ID, wire.CodeInvalid, "streaming is disabled")
		return
	}
	if req.Spec.Table != c.srv.primary {
		c.writeError(req.ID, wire.CodeInvalid,
			fmt.Sprintf("subscriptions cover the streamed table %q only", c.srv.primary))
		return
	}
	if !c.srv.beginRequest() {
		c.writeError(req.ID, wire.CodeRetryable, "server is draining")
		return
	}
	defer c.srv.inflight.Done()
	// The subscription's query binds to the live table: the stream
	// layer snapshots each delta itself.
	q, err := req.Spec.Bind(c.srv.tables)
	if err != nil {
		c.writeError(req.ID, wire.CodeInvalid, err.Error())
		return
	}
	var sub *plan.Subscription
	if req.Window != 0 || req.Slide != 0 {
		sub, err = c.srv.strm.SubscribeWindow(c.ctx, q, int(req.Window), int(req.Slide))
	} else {
		sub, err = c.srv.strm.Subscribe(c.ctx, q)
	}
	if err != nil {
		c.writeError(req.ID, wire.CodeInvalid, err.Error())
		return
	}
	credits := req.Credits
	if credits == 0 {
		credits = 1
	}
	st := &subState{sub: sub, kind: q.Kind.String(), credits: credits}
	c.mu.Lock()
	if c.closed || c.subs[req.ID] != nil {
		c.mu.Unlock()
		sub.Close()
		c.writeError(req.ID, wire.CodeInvalid, "subscription id in use or connection closing")
		return
	}
	c.subs[req.ID] = st
	c.mu.Unlock()
	ackMsg := wire.SubscribedMsg{ID: req.ID, Direct: sub.Plan().Mode == plan.ModeDirect}
	_ = c.writeFrame(wire.FrameSubscribed, ackMsg.EncodeBody(nil))
	c.srv.handlers.Add(1)
	go func() {
		defer c.srv.handlers.Done()
		c.forward(req.ID, st)
	}()
}

// forward consumes the subscription's update channel and sends each
// refreshed standing result (sendUpdate). The channel closes when the
// subscription does (unsubscribe, disconnect, or drain), ending the
// forwarder.
func (c *conn) forward(id uint64, st *subState) {
	for range st.sub.Updates() {
		res, ver := st.sub.Results()
		if res == nil {
			continue
		}
		if c.sendUpdate(id, st, res, ver, 0) != nil {
			return
		}
	}
}

// handleCredit replenishes a subscription's send window and sends the
// coalesced pending result, if any.
func (c *conn) handleCredit(cr *wire.CreditMsg) {
	c.mu.Lock()
	st := c.subs[cr.ID]
	c.mu.Unlock()
	if st == nil || cr.N == 0 {
		return
	}
	_ = c.sendUpdate(cr.ID, st, nil, 0, cr.N)
}

// sendUpdate is the one way a subscription's updates leave. It adds credit
// to the send window and takes res at version ver, or the pending result
// when res is nil. While the window is open it writes the change set that
// turns the result the client holds into it; with the window shut the
// result waits in pending, replacing an older one. st.mu is held across
// the diff and the write, so one subscription's sends never interleave,
// and a result older than the one sent is dropped: every change set
// applies to the base its predecessor left.
func (c *conn) sendUpdate(id uint64, st *subState, res *engine.Result, ver uint64, credit uint32) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.credits += credit
	if res == nil {
		if res, ver = st.pending, st.pendingVer; res == nil {
			return nil
		}
	}
	if ver < st.sentVer {
		return nil
	}
	if st.credits == 0 {
		st.pending, st.pendingVer = res, ver
		// A stall: the client's window is the bottleneck, not the
		// fabric — the series a slow consumer shows up in.
		c.srv.metrics.Counter("credit_stalls").Incr(1)
		return nil
	}
	st.credits--
	st.pending = nil
	removed, added := engine.DiffRows(st.sent, res.Rows)
	u := wire.UpdateMsg{ID: id, Version: ver, Base: st.sentVer, Columns: res.Columns, Removed: removed, Rows: added}
	body := u.EncodeBody(nil)
	if err := c.writeFrame(wire.FrameUpdate, body); err != nil {
		return err
	}
	st.sent, st.sentVer = res.Rows, ver
	// The frame's bytes: its length prefix and type byte, then the body.
	c.srv.metrics.Counter("update_bytes", "kind", st.kind).Incr(uint64(5 + len(body)))
	c.srv.metrics.Counter("update_frames", "kind", st.kind).Incr(1)
	return nil
}
