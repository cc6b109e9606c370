package wire

// This file is the network front door's framing layer: the
// length-prefixed message protocol `cheetahd` speaks with external
// clients (internal/netserve). It is deliberately separate from the
// Figure-4 dataplane packet above — Packet is what CWorkers and the
// switch exchange per entry; frames are the client↔server control
// channel carrying whole queries, results and stream batches over TCP.
//
// Every frame is `length(u32) | type(u8) | body`, where length counts
// the type byte plus the body and is capped by MaxFrameLen so a
// hostile peer cannot make the reader allocate unboundedly. Bodies are
// hand-rolled binary like the rest of this package: big-endian fixed
// ints, uvarints for counts, and uvarint-length-prefixed strings.
// Every DecodeBody validates counts against the remaining bytes before
// allocating, and rejects trailing garbage — properties the fuzz
// targets in fuzz_test.go pin.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"cheetah/internal/boolexpr"
	"cheetah/internal/engine"
	"cheetah/internal/prune"
	"cheetah/internal/table"
)

// ProtoVersion is the wire protocol version carried in the handshake.
// A server refuses a Hello whose version it does not speak. Version 3
// orders rows cell by cell (engine.CompareRows), where 2 ordered them by
// their NUL-joined keys.
const ProtoVersion uint16 = 3

// MaxFrameLen caps one frame's encoded size (type byte + body). The
// limit bounds reader allocation against hostile length prefixes; 16
// MiB comfortably fits the result sets and append batches the
// benchmarks move.
const MaxFrameLen = 16 << 20

// FrameType discriminates protocol frames.
type FrameType uint8

const (
	// FrameHello opens a connection (client → server): protocol
	// version and tenant identity.
	FrameHello FrameType = 0x01
	// FrameWelcome accepts a Hello (server → client): negotiated
	// version plus the served tables' schemas.
	FrameWelcome FrameType = 0x02
	// FrameQuery submits one one-shot query (client → server).
	FrameQuery FrameType = 0x03
	// FrameResult answers a Query (server → client).
	FrameResult FrameType = 0x04
	// FrameError answers any request with a failure, or reports a
	// connection-level fault when ID is 0 (server → client).
	FrameError FrameType = 0x05
	// FramePing is a liveness probe (either direction).
	FramePing FrameType = 0x06
	// FramePong answers a Ping, echoing its nonce.
	FramePong FrameType = 0x07
	// FrameAppend streams a row batch into the server's ingestor
	// (client → server).
	FrameAppend FrameType = 0x08
	// FrameAppended acknowledges an Append with the committed version
	// (server → client).
	FrameAppended FrameType = 0x09
	// FrameSubscribe registers a continuous query (client → server).
	FrameSubscribe FrameType = 0x0a
	// FrameSubscribed acknowledges a Subscribe (server → client).
	FrameSubscribed FrameType = 0x0b
	// FrameUpdate pushes a standing-result refresh to a subscriber
	// (server → client); each consumes one send-window credit.
	FrameUpdate FrameType = 0x0c
	// FrameCredit replenishes a subscription's send window
	// (client → server).
	FrameCredit FrameType = 0x0d
	// FrameUnsubscribe deregisters a continuous query (client → server).
	FrameUnsubscribe FrameType = 0x0e
	// FrameGoodbye announces an orderly close (either direction).
	FrameGoodbye FrameType = 0x0f
)

// String renders the frame type.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "HELLO"
	case FrameWelcome:
		return "WELCOME"
	case FrameQuery:
		return "QUERY"
	case FrameResult:
		return "RESULT"
	case FrameError:
		return "ERROR"
	case FramePing:
		return "PING"
	case FramePong:
		return "PONG"
	case FrameAppend:
		return "APPEND"
	case FrameAppended:
		return "APPENDED"
	case FrameSubscribe:
		return "SUBSCRIBE"
	case FrameSubscribed:
		return "SUBSCRIBED"
	case FrameUpdate:
		return "UPDATE"
	case FrameCredit:
		return "CREDIT"
	case FrameUnsubscribe:
		return "UNSUBSCRIBE"
	case FrameGoodbye:
		return "GOODBYE"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}

// Framing errors.
var (
	// ErrFrameTooLarge rejects a length prefix beyond MaxFrameLen.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrBadFrame rejects a malformed frame body (truncated fields,
	// counts disagreeing with the remaining bytes, trailing garbage).
	ErrBadFrame = errors.New("wire: malformed frame body")
)

// WriteFrame writes one `length | type | body` frame with a single Write
// of header and body, so a TCP connection with Nagle off sends one
// segment per frame, not two. The frame is assembled in a pooled buffer:
// a vectored write (net.Buffers) would avoid that copy, but Go's
// race detector orders a socket write before the peer's read only
// through write(2), not writev(2), and callers' tests read server state
// on the strength of that order.
func WriteFrame(w io.Writer, t FrameType, body []byte) error {
	if 1+len(body) > MaxFrameLen {
		return ErrFrameTooLarge
	}
	bp, _ := framePool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	frame := binary.BigEndian.AppendUint32((*bp)[:0], uint32(1+len(body)))
	frame = append(append(frame, byte(t)), body...)
	_, err := w.Write(frame)
	*bp = frame
	framePool.Put(bp)
	return err
}

// framePool recycles WriteFrame's buffers; like any sync.Pool it lets go
// of them across garbage collections, so one large frame does not pin
// its buffer.
var framePool sync.Pool

// ReadFrame reads one frame, allocating at most MaxFrameLen for the
// body. io.EOF surfaces unchanged on a clean close before the length
// prefix; a partial frame is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, ErrBadFrame
	}
	if n > MaxFrameLen {
		return 0, nil, ErrFrameTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return FrameType(buf[0]), buf[1:], nil
}

// ErrCode classifies a FrameError for the client's retry decision.
type ErrCode uint8

const (
	// CodeRetryable marks a transient server condition — draining for
	// shutdown, backlog shed — the client may retry later or elsewhere.
	CodeRetryable ErrCode = 1
	// CodeInvalid marks a malformed or unservable request; retrying the
	// same request cannot succeed.
	CodeInvalid ErrCode = 2
	// CodeInternal marks an execution failure inside the server.
	CodeInternal ErrCode = 3
)

// String renders the error code.
func (c ErrCode) String() string {
	switch c {
	case CodeRetryable:
		return "retryable"
	case CodeInvalid:
		return "invalid"
	case CodeInternal:
		return "internal"
	default:
		return fmt.Sprintf("code(%d)", uint8(c))
	}
}

// ---- body codec helpers ----

// decoder walks a frame body; the first decode error sticks and every
// later read returns zero values, so message decoders can read all
// fields and check err once. Reads only ever advance b from its front.
type decoder struct {
	b []byte
	// s is the one copy of the body that every decoded string is a slice
	// of, made by the first non-empty str from the bytes left then. It
	// ends where b ends, so b's next byte is s[len(s)-len(b)].
	s   string
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrBadFrame
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// boolean rejects byte values other than 0/1 so that every accepted
// body re-encodes to exactly the bytes received (canonical grammar).
func (d *decoder) boolean() bool {
	v := d.u8()
	if v > 1 {
		d.fail()
	}
	return v == 1
}

func (d *decoder) u16() uint16 {
	if d.err != nil || len(d.b) < 2 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(d.b)
	d.b = d.b[2:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	// Reject non-minimal encodings (a multi-byte varint whose last
	// group is zero, e.g. 0xf5 0x00 for 0x75): the grammar is
	// canonical, so each value has exactly one accepted spelling.
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v := d.uvarint()
	// Inline zig-zag decode, mirroring binary.Varint.
	x := int64(v >> 1)
	if v&1 != 0 {
		x = ^x
	}
	return x
}

// count reads a uvarint element count and bounds it by the bytes that
// remain, assuming each element costs at least min bytes — the guard
// that keeps a hostile count from driving a huge allocation.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64(len(d.b)/min)+1 && n > uint64(len(d.b)) {
		d.fail()
		return 0
	}
	return int(n)
}

// str reads a length-prefixed string as a slice of the body's one copy,
// so a frame's cells cost no allocation each, and the caller may reuse
// the bytes it decoded from: no string aliases them.
func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return ""
	}
	if n == 0 {
		return ""
	}
	if d.s == "" {
		d.s = string(d.b)
	}
	at := len(d.s) - len(d.b)
	d.b = d.b[n:]
	return d.s[at : at+int(n)]
}

// done rejects trailing bytes: a valid body is consumed exactly.
func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return ErrBadFrame
	}
	return nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func (d *decoder) strs() []string {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

// ---- handshake ----

// Hello is the client's opening frame.
type Hello struct {
	// Version is the client's protocol version.
	Version uint16
	// Tenant is the connection's tenant identity; every query submitted
	// on the connection is admitted under it (quotas, metrics).
	Tenant string
}

// EncodeBody serializes the Hello body.
func (h *Hello) EncodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, h.Version)
	return appendString(b, h.Tenant)
}

// DecodeBody parses a Hello body.
func (h *Hello) DecodeBody(b []byte) error {
	d := decoder{b: b}
	h.Version = d.u16()
	h.Tenant = d.str()
	return d.done()
}

// TableDef names one served table and its schema, so clients can build
// queries and append batches without out-of-band schema knowledge.
type TableDef struct {
	Name   string
	Schema table.Schema
}

// Welcome is the server's handshake acceptance.
type Welcome struct {
	// Version is the protocol version the connection will speak.
	Version uint16
	// Switches is the session fabric's width (informational).
	Switches uint32
	// Tables lists the tables queries may bind by name.
	Tables []TableDef
	// Stream names the appendable table (Append frames and
	// subscriptions target it); empty when streaming is disabled.
	Stream string
}

// EncodeBody serializes the Welcome body.
func (w *Welcome) EncodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, w.Version)
	b = binary.BigEndian.AppendUint32(b, w.Switches)
	b = binary.AppendUvarint(b, uint64(len(w.Tables)))
	for _, t := range w.Tables {
		b = appendString(b, t.Name)
		b = binary.AppendUvarint(b, uint64(len(t.Schema)))
		for _, c := range t.Schema {
			b = appendString(b, c.Name)
			b = append(b, byte(c.Type))
		}
	}
	return appendString(b, w.Stream)
}

// DecodeBody parses a Welcome body.
func (w *Welcome) DecodeBody(b []byte) error {
	d := decoder{b: b}
	w.Version = d.u16()
	if d.err == nil && len(d.b) >= 4 {
		w.Switches = binary.BigEndian.Uint32(d.b)
		d.b = d.b[4:]
	} else {
		d.fail()
	}
	nt := d.count(2)
	w.Tables = nil
	for i := 0; i < nt && d.err == nil; i++ {
		var td TableDef
		td.Name = d.str()
		nc := d.count(2)
		for j := 0; j < nc && d.err == nil; j++ {
			name := d.str()
			typ := table.Type(d.u8())
			if typ != table.Int64 && typ != table.String {
				d.fail()
				break
			}
			td.Schema = append(td.Schema, table.ColumnDef{Name: name, Type: typ})
		}
		w.Tables = append(w.Tables, td)
	}
	w.Stream = d.str()
	return d.done()
}

// ---- errors / liveness ----

// ErrorMsg reports a failed request (ID echoes the request) or a
// connection-level fault (ID 0).
type ErrorMsg struct {
	ID   uint64
	Code ErrCode
	Msg  string
}

// EncodeBody serializes the error body.
func (e *ErrorMsg) EncodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, e.ID)
	b = append(b, byte(e.Code))
	return appendString(b, e.Msg)
}

// DecodeBody parses an error body.
func (e *ErrorMsg) DecodeBody(b []byte) error {
	d := decoder{b: b}
	e.ID = d.u64()
	e.Code = ErrCode(d.u8())
	e.Msg = d.str()
	return d.done()
}

// PingMsg is a liveness probe; Pong echoes the nonce.
type PingMsg struct{ Nonce uint64 }

// EncodeBody serializes the ping body.
func (p *PingMsg) EncodeBody(b []byte) []byte {
	return binary.BigEndian.AppendUint64(b, p.Nonce)
}

// DecodeBody parses a ping body.
func (p *PingMsg) DecodeBody(b []byte) error {
	d := decoder{b: b}
	p.Nonce = d.u64()
	return d.done()
}

// GoodbyeMsg announces an orderly close.
type GoodbyeMsg struct{ Reason string }

// EncodeBody serializes the goodbye body.
func (g *GoodbyeMsg) EncodeBody(b []byte) []byte { return appendString(b, g.Reason) }

// DecodeBody parses a goodbye body.
func (g *GoodbyeMsg) DecodeBody(b []byte) error {
	d := decoder{b: b}
	g.Reason = d.str()
	return d.done()
}

// ---- query specs ----

// maxFormulaNodes bounds a decoded predicate formula; combined with
// boolexpr.MaxTruthTableVars it keeps a hostile Subscribe/Query frame
// from building an arbitrarily deep expression tree.
const maxFormulaNodes = 1024

// PredSpec is one WHERE predicate on the wire.
type PredSpec struct {
	Col   string
	Op    uint8 // prune.CmpOp
	Const int64
	Like  string
}

// QuerySpec is a declarative query spec detached from table pointers:
// tables travel as names and are re-bound against the server's
// catalog. It covers exactly the eight offloadable kinds.
type QuerySpec struct {
	Kind  uint8 // engine.QueryKind
	Table string
	Right string // join probe side

	Predicates []PredSpec
	Formula    []byte // prefix-encoded boolexpr (empty = AND of all predicates)
	CountOnly  bool

	DistinctCols []string

	OrderCol string
	N        int64

	KeyCol    string
	AggCol    string
	Threshold int64

	LeftKey, RightKey string

	SkylineCols []string
}

// EncodeFormula prefix-encodes a monotone predicate formula: node type
// (0 leaf, 1 const, 2 and, 3 or), then the leaf's variable, the
// constant's truth byte, or the child count followed by the children.
func EncodeFormula(e boolexpr.Expr) ([]byte, error) {
	return appendFormula(nil, e)
}

func appendFormula(b []byte, e boolexpr.Expr) ([]byte, error) {
	switch x := e.(type) {
	case boolexpr.Leaf:
		b = append(b, 0)
		return binary.AppendUvarint(b, uint64(x.V)), nil
	case boolexpr.Const:
		b = append(b, 1)
		if x {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	case boolexpr.And:
		b = append(b, 2)
		b = binary.AppendUvarint(b, uint64(len(x)))
		var err error
		for _, k := range x {
			if b, err = appendFormula(b, k); err != nil {
				return nil, err
			}
		}
		return b, nil
	case boolexpr.Or:
		b = append(b, 3)
		b = binary.AppendUvarint(b, uint64(len(x)))
		var err error
		for _, k := range x {
			if b, err = appendFormula(b, k); err != nil {
				return nil, err
			}
		}
		return b, nil
	default:
		return nil, fmt.Errorf("wire: formula node %T is not encodable", e)
	}
}

// DecodeFormula parses a prefix-encoded formula, bounding total node
// count.
func DecodeFormula(b []byte) (boolexpr.Expr, error) {
	d := decoder{b: b}
	budget := maxFormulaNodes
	e := decodeFormulaNode(&d, &budget)
	if err := d.done(); err != nil {
		return nil, err
	}
	return e, nil
}

func decodeFormulaNode(d *decoder, budget *int) boolexpr.Expr {
	if *budget <= 0 {
		d.fail()
		return boolexpr.Const(false)
	}
	*budget--
	switch d.u8() {
	case 0:
		v := d.uvarint()
		if v > math.MaxInt32 {
			d.fail()
			return boolexpr.Const(false)
		}
		return boolexpr.Leaf{V: int(v)}
	case 1:
		return boolexpr.Const(d.u8() != 0)
	case 2:
		n := d.count(2)
		kids := make(boolexpr.And, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			kids = append(kids, decodeFormulaNode(d, budget))
		}
		return kids
	case 3:
		n := d.count(2)
		kids := make(boolexpr.Or, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			kids = append(kids, decodeFormulaNode(d, budget))
		}
		return kids
	default:
		d.fail()
		return boolexpr.Const(false)
	}
}

// SpecOf detaches q into a wire spec, naming its table(s) for
// server-side re-binding.
func SpecOf(q *engine.Query, tableName, rightName string) (*QuerySpec, error) {
	s := &QuerySpec{
		Kind:         uint8(q.Kind),
		Table:        tableName,
		Right:        rightName,
		CountOnly:    q.CountOnly,
		DistinctCols: append([]string(nil), q.DistinctCols...),
		OrderCol:     q.OrderCol,
		N:            int64(q.N),
		KeyCol:       q.KeyCol,
		AggCol:       q.AggCol,
		Threshold:    q.Threshold,
		LeftKey:      q.LeftKey,
		RightKey:     q.RightKey,
		SkylineCols:  append([]string(nil), q.SkylineCols...),
	}
	for _, p := range q.Predicates {
		s.Predicates = append(s.Predicates, PredSpec{Col: p.Col, Op: uint8(p.Op), Const: p.Const, Like: p.Like})
	}
	if q.Formula != nil {
		f, err := EncodeFormula(q.Formula)
		if err != nil {
			return nil, err
		}
		s.Formula = f
	}
	return s, nil
}

// Bind re-attaches the spec to concrete tables from the server's
// catalog and returns a validated engine query.
func (s *QuerySpec) Bind(tables map[string]*table.Table) (*engine.Query, error) {
	t, ok := tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("wire: unknown table %q", s.Table)
	}
	q := &engine.Query{
		Kind:         engine.QueryKind(s.Kind),
		Table:        t,
		CountOnly:    s.CountOnly,
		DistinctCols: s.DistinctCols,
		OrderCol:     s.OrderCol,
		N:            int(s.N),
		KeyCol:       s.KeyCol,
		AggCol:       s.AggCol,
		Threshold:    s.Threshold,
		LeftKey:      s.LeftKey,
		RightKey:     s.RightKey,
		SkylineCols:  s.SkylineCols,
	}
	if s.Right != "" {
		r, ok := tables[s.Right]
		if !ok {
			return nil, fmt.Errorf("wire: unknown right table %q", s.Right)
		}
		q.Right = r
	}
	for _, p := range s.Predicates {
		q.Predicates = append(q.Predicates, engine.FilterPred{
			Col: p.Col, Op: prune.CmpOp(p.Op), Const: p.Const, Like: p.Like,
		})
	}
	if len(s.Formula) > 0 {
		f, err := DecodeFormula(s.Formula)
		if err != nil {
			return nil, err
		}
		q.Formula = f
	} else if q.Kind == engine.KindFilter {
		and := make(boolexpr.And, len(q.Predicates))
		for i := range and {
			and[i] = boolexpr.Leaf{V: i}
		}
		q.Formula = boolexpr.Simplify(and)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

func appendSpec(b []byte, s *QuerySpec) []byte {
	b = append(b, s.Kind)
	b = appendString(b, s.Table)
	b = appendString(b, s.Right)
	b = binary.AppendUvarint(b, uint64(len(s.Predicates)))
	for _, p := range s.Predicates {
		b = appendString(b, p.Col)
		b = append(b, p.Op)
		b = binary.AppendVarint(b, p.Const)
		b = appendString(b, p.Like)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Formula)))
	b = append(b, s.Formula...)
	if s.CountOnly {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendStrings(b, s.DistinctCols)
	b = appendString(b, s.OrderCol)
	b = binary.AppendVarint(b, s.N)
	b = appendString(b, s.KeyCol)
	b = appendString(b, s.AggCol)
	b = binary.AppendVarint(b, s.Threshold)
	b = appendString(b, s.LeftKey)
	b = appendString(b, s.RightKey)
	return appendStrings(b, s.SkylineCols)
}

func (d *decoder) spec() QuerySpec {
	var s QuerySpec
	s.Kind = d.u8()
	s.Table = d.str()
	s.Right = d.str()
	np := d.count(3)
	for i := 0; i < np && d.err == nil; i++ {
		var p PredSpec
		p.Col = d.str()
		p.Op = d.u8()
		p.Const = d.varint()
		p.Like = d.str()
		s.Predicates = append(s.Predicates, p)
	}
	nf := d.uvarint()
	if d.err == nil && nf <= uint64(len(d.b)) {
		if nf > 0 {
			s.Formula = append([]byte(nil), d.b[:nf]...)
			d.b = d.b[nf:]
		}
	} else {
		d.fail()
	}
	s.CountOnly = d.boolean()
	s.DistinctCols = d.strs()
	s.OrderCol = d.str()
	s.N = d.varint()
	s.KeyCol = d.str()
	s.AggCol = d.str()
	s.Threshold = d.varint()
	s.LeftKey = d.str()
	s.RightKey = d.str()
	s.SkylineCols = d.strs()
	return s
}

// ---- query / result ----

// QueryReq submits one one-shot query.
type QueryReq struct {
	// ID correlates the response; client-chosen, unique per connection.
	ID uint64
	// Priority is the admission priority (fabric.QoS.Priority).
	Priority int32
	// DeadlineMicros, when non-zero, is a relative admission deadline in
	// microseconds from server receipt (travels as a duration — absolute
	// instants don't survive clock skew).
	DeadlineMicros uint64
	// Spec is the detached query.
	Spec QuerySpec
}

// EncodeBody serializes the query body.
func (q *QueryReq) EncodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, q.ID)
	b = binary.AppendVarint(b, int64(q.Priority))
	b = binary.AppendUvarint(b, q.DeadlineMicros)
	return appendSpec(b, &q.Spec)
}

// DecodeBody parses a query body.
func (q *QueryReq) DecodeBody(b []byte) error {
	d := decoder{b: b}
	q.ID = d.u64()
	p := d.varint()
	if p < math.MinInt32 || p > math.MaxInt32 {
		d.fail()
	}
	q.Priority = int32(p)
	q.DeadlineMicros = d.uvarint()
	q.Spec = d.spec()
	return d.done()
}

// TraceStage is one aggregated lifecycle stage of the server-side
// execution — obs.Trace.Summary compacted for the wire, so clients see
// where server time went without shipping the whole span list. Stage is
// the obs.Stage number (stable by contract).
type TraceStage struct {
	Stage     uint8
	Nanos     uint64
	Entries   uint64
	Forwarded uint64
}

// ResultMsg answers a QueryReq with the canonical sorted result plus a
// small execution summary.
type ResultMsg struct {
	ID uint64
	// Mode is the plan mode that ran (plan.Mode's uint8 value).
	Mode uint8
	// EntriesSent / Forwarded summarize the dataplane traffic.
	EntriesSent, Forwarded uint64
	// FailedOver counts §7.2 failovers the execution absorbed.
	FailedOver uint32
	Columns    []string
	Rows       [][]string
	// WallNanos is the server-side wall clock of the whole execution
	// (admission waits and failover attempts included).
	WallNanos uint64
	// Trace is the compact per-stage timing summary; empty when the
	// server runs with tracing disabled.
	Trace []TraceStage
}

// EncodeBody serializes the result body, growing b once to the body's
// size.
func (r *ResultMsg) EncodeBody(b []byte) []byte {
	if n := len(b) + 8 + 1 + 4*binary.MaxVarintLen64 + resultLen(r.Columns, r.Rows) +
		binary.MaxVarintLen64 + len(r.Trace)*(1+3*binary.MaxVarintLen64); cap(b) < n {
		b = append(make([]byte, 0, n), b...)
	}
	b = binary.BigEndian.AppendUint64(b, r.ID)
	b = append(b, r.Mode)
	b = binary.AppendUvarint(b, r.EntriesSent)
	b = binary.AppendUvarint(b, r.Forwarded)
	b = binary.AppendUvarint(b, uint64(r.FailedOver))
	b = appendResult(b, r.Columns, r.Rows)
	b = binary.AppendUvarint(b, r.WallNanos)
	b = binary.AppendUvarint(b, uint64(len(r.Trace)))
	for _, t := range r.Trace {
		b = append(b, t.Stage)
		b = binary.AppendUvarint(b, t.Nanos)
		b = binary.AppendUvarint(b, t.Entries)
		b = binary.AppendUvarint(b, t.Forwarded)
	}
	return b
}

// DecodeBody parses a result body.
func (r *ResultMsg) DecodeBody(b []byte) error {
	d := decoder{b: b}
	r.ID = d.u64()
	r.Mode = d.u8()
	r.EntriesSent = d.uvarint()
	r.Forwarded = d.uvarint()
	fo := d.uvarint()
	if fo > math.MaxUint32 {
		d.fail()
	}
	r.FailedOver = uint32(fo)
	r.Columns, r.Rows = d.result()
	r.WallNanos = d.uvarint()
	n := d.count(4) // stage byte + three at-least-one-byte uvarints
	if d.err != nil {
		return d.done()
	}
	if n > 0 {
		r.Trace = make([]TraceStage, n)
		for i := range r.Trace {
			r.Trace[i].Stage = d.u8()
			r.Trace[i].Nanos = d.uvarint()
			r.Trace[i].Entries = d.uvarint()
			r.Trace[i].Forwarded = d.uvarint()
		}
	}
	return d.done()
}

// appendResult serializes a canonical result: columns, then rows of
// exactly len(columns) cells each.
func appendResult(b []byte, cols []string, rows [][]string) []byte {
	return appendRows(appendStrings(b, cols), rows)
}

// resultLen is the size appendResult gives cols and rows.
func resultLen(cols []string, rows [][]string) int {
	n := uvarintLen(uint64(len(cols))) + cellsLen(cols) + uvarintLen(uint64(len(rows)))
	for _, row := range rows {
		n += cellsLen(row)
	}
	return n
}

// cellsLen is the size appendString gives each of ss.
func cellsLen(ss []string) int {
	n := 0
	for _, s := range ss {
		n += uvarintLen(uint64(len(s))) + len(s)
	}
	return n
}

// uvarintLen is the size binary.AppendUvarint gives v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// appendRows serializes rows as wide as the columns sent before them: a
// count, then every cell.
func appendRows(b []byte, rows [][]string) []byte {
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, row := range rows {
		for _, cell := range row {
			b = appendString(b, cell)
		}
	}
	return b
}

func (d *decoder) result() ([]string, [][]string) {
	cols := d.strs()
	return cols, d.rows(len(cols))
}

// rows reads a count of rows of width cells each; without columns no row
// is admitted. The rows are views of one cell array, each clipped to its
// width so that appending to one row cannot overwrite the next.
func (d *decoder) rows(width int) [][]string {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	if width == 0 || uint64(n)*uint64(width) > uint64(len(d.b))+1 {
		d.fail()
		return nil
	}
	cells := make([]string, n*width)
	for i := range cells {
		cells[i] = d.str()
	}
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = cells[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// ---- streaming ----

// ColData is one append-batch column in schema order: Ints for an Int64
// column, Strs for a String column. It is the table's own column type, so
// a batch hands its decoded columns to table.FromColumns as they are.
type ColData = table.ColumnData

// AppendReq streams one batch of rows into the server's primary table.
// Columns are self-describing (type + values); the server validates
// them against the stream table's schema before committing.
type AppendReq struct {
	ID   uint64
	Rows int
	Cols []ColData
}

// AppendBatchOf detaches src into an append request (all rows).
func AppendBatchOf(id uint64, src *table.Table) *AppendReq {
	r := &AppendReq{ID: id, Rows: src.NumRows()}
	for c := 0; c < src.NumCols(); c++ {
		cd := ColData{Type: src.ColumnType(c)}
		switch cd.Type {
		case table.Int64:
			cd.Ints = append(cd.Ints, src.Int64Col(c)...)
		case table.String:
			cd.Strs = append(cd.Strs, src.StringCol(c)...)
		}
		r.Cols = append(r.Cols, cd)
	}
	return r
}

// Batch materializes the request as a table with the given schema,
// validating arity and types. The table adopts the request's columns, so
// the request must not be changed after.
func (a *AppendReq) Batch(schema table.Schema) (*table.Table, error) {
	if len(a.Cols) != len(schema) {
		return nil, fmt.Errorf("wire: append batch has %d columns, schema has %d", len(a.Cols), len(schema))
	}
	for i, cd := range a.Cols {
		if cd.Type != schema[i].Type {
			return nil, fmt.Errorf("wire: append column %q is %v, schema wants %v", schema[i].Name, cd.Type, schema[i].Type)
		}
		n := len(cd.Ints)
		if cd.Type == table.String {
			n = len(cd.Strs)
		}
		if n != a.Rows {
			return nil, fmt.Errorf("wire: append column %q has %d values for %d rows", schema[i].Name, n, a.Rows)
		}
	}
	return table.FromColumns(schema, a.Rows, a.Cols)
}

// EncodeBody serializes the append body.
func (a *AppendReq) EncodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, a.ID)
	b = binary.AppendUvarint(b, uint64(a.Rows))
	b = binary.AppendUvarint(b, uint64(len(a.Cols)))
	for _, cd := range a.Cols {
		b = append(b, byte(cd.Type))
		switch cd.Type {
		case table.Int64:
			for _, v := range cd.Ints {
				b = binary.AppendVarint(b, v)
			}
		case table.String:
			for _, s := range cd.Strs {
				b = appendString(b, s)
			}
		}
	}
	return b
}

// DecodeBody parses an append body.
func (a *AppendReq) DecodeBody(b []byte) error {
	d := decoder{b: b}
	a.ID = d.u64()
	rows := d.uvarint()
	nc := d.count(1)
	if d.err == nil && rows > uint64(len(d.b))+1 {
		// Each row needs ≥ 1 byte per column; one column minimum.
		d.fail()
	}
	a.Rows = int(rows)
	a.Cols = nil
	for c := 0; c < nc && d.err == nil; c++ {
		cd := ColData{Type: table.Type(d.u8())}
		switch cd.Type {
		case table.Int64:
			cd.Ints = make([]int64, 0, a.Rows)
			for r := 0; r < a.Rows && d.err == nil; r++ {
				cd.Ints = append(cd.Ints, d.varint())
			}
		case table.String:
			cd.Strs = make([]string, 0, a.Rows)
			for r := 0; r < a.Rows && d.err == nil; r++ {
				cd.Strs = append(cd.Strs, d.str())
			}
		default:
			d.fail()
		}
		a.Cols = append(a.Cols, cd)
	}
	return d.done()
}

// AppendedMsg acknowledges an Append with the committed stream version.
type AppendedMsg struct {
	ID      uint64
	Version uint64
}

// EncodeBody serializes the ack body.
func (a *AppendedMsg) EncodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, a.ID)
	return binary.BigEndian.AppendUint64(b, a.Version)
}

// DecodeBody parses the ack body.
func (a *AppendedMsg) DecodeBody(b []byte) error {
	d := decoder{b: b}
	a.ID = d.u64()
	a.Version = d.u64()
	return d.done()
}

// SubscribeReq registers a continuous query. ID doubles as the
// subscription id for every later Update/Credit/Unsubscribe frame.
type SubscribeReq struct {
	ID uint64
	// Window/Slide select the windowed variants (0/0 = unwindowed).
	Window, Slide uint32
	// Credits is the initial send window: how many Update frames the
	// server may push before waiting for a Credit. 0 defaults to 1.
	Credits uint32
	Spec    QuerySpec
}

// EncodeBody serializes the subscribe body.
func (s *SubscribeReq) EncodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, s.ID)
	b = binary.AppendUvarint(b, uint64(s.Window))
	b = binary.AppendUvarint(b, uint64(s.Slide))
	b = binary.AppendUvarint(b, uint64(s.Credits))
	return appendSpec(b, &s.Spec)
}

// DecodeBody parses a subscribe body.
func (s *SubscribeReq) DecodeBody(b []byte) error {
	d := decoder{b: b}
	s.ID = d.u64()
	w, sl, cr := d.uvarint(), d.uvarint(), d.uvarint()
	if w > math.MaxUint32 || sl > math.MaxUint32 || cr > math.MaxUint32 {
		d.fail()
	}
	s.Window, s.Slide, s.Credits = uint32(w), uint32(sl), uint32(cr)
	s.Spec = d.spec()
	return d.done()
}

// SubscribedMsg acknowledges a Subscribe.
type SubscribedMsg struct {
	ID uint64
	// Direct reports that the standing program could not be hosted on a
	// switch and deltas run exact and unpruned (informational).
	Direct bool
}

// EncodeBody serializes the ack body.
func (s *SubscribedMsg) EncodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, s.ID)
	if s.Direct {
		return append(b, 1)
	}
	return append(b, 0)
}

// DecodeBody parses the ack body.
func (s *SubscribedMsg) DecodeBody(b []byte) error {
	d := decoder{b: b}
	s.ID = d.u64()
	s.Direct = d.boolean()
	return d.done()
}

// UpdateMsg pushes a change to a subscription's standing result: the rows
// the result at version Base loses (Removed) and gains (Rows), each list in
// canonical order — cell by cell, engine.CompareRows', which is part of
// protocol 3 — which turn it into the result at Version. The server
// diffs against the result it last sent, so the change applies to the one
// the client holds; a subscription's first update has Base 0 and adds
// every row. Updates coalesce server-side (latest wins) while the client's
// send window is exhausted.
type UpdateMsg struct {
	ID uint64
	// Version is the committed row prefix the result covers.
	Version uint64
	// Base is the version of the result the change applies to.
	Base    uint64
	Columns []string
	// Removed are the rows the result at Base loses.
	Removed [][]string
	// Rows are the rows it gains.
	Rows [][]string
}

// EncodeBody serializes the update body.
func (u *UpdateMsg) EncodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, u.ID)
	b = binary.BigEndian.AppendUint64(b, u.Version)
	b = binary.BigEndian.AppendUint64(b, u.Base)
	b = appendStrings(b, u.Columns)
	return appendRows(appendRows(b, u.Removed), u.Rows)
}

// DecodeBody parses an update body.
func (u *UpdateMsg) DecodeBody(b []byte) error {
	d := decoder{b: b}
	u.ID = d.u64()
	u.Version = d.u64()
	u.Base = d.u64()
	u.Columns = d.strs()
	u.Removed = d.rows(len(u.Columns))
	u.Rows = d.rows(len(u.Columns))
	return d.done()
}

// CreditMsg replenishes a subscription's send window by N updates.
type CreditMsg struct {
	ID uint64
	N  uint32
}

// EncodeBody serializes the credit body.
func (c *CreditMsg) EncodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, c.ID)
	return binary.AppendUvarint(b, uint64(c.N))
}

// DecodeBody parses a credit body.
func (c *CreditMsg) DecodeBody(b []byte) error {
	d := decoder{b: b}
	c.ID = d.u64()
	n := d.uvarint()
	if n > math.MaxUint32 {
		d.fail()
	}
	c.N = uint32(n)
	return d.done()
}

// UnsubscribeMsg deregisters a continuous query.
type UnsubscribeMsg struct{ ID uint64 }

// EncodeBody serializes the unsubscribe body.
func (u *UnsubscribeMsg) EncodeBody(b []byte) []byte {
	return binary.BigEndian.AppendUint64(b, u.ID)
}

// DecodeBody parses an unsubscribe body.
func (u *UnsubscribeMsg) DecodeBody(b []byte) error {
	d := decoder{b: b}
	u.ID = d.u64()
	return d.done()
}
