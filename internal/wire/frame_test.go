package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"cheetah/internal/boolexpr"
	"cheetah/internal/engine"
	"cheetah/internal/prune"
	"cheetah/internal/table"
)

// frameMsg is the shared encode/decode surface every frame body has.
type frameMsg interface {
	EncodeBody(b []byte) []byte
	DecodeBody(b []byte) error
}

// sampleSpec is a fully-populated query spec exercising every field.
func sampleSpec() QuerySpec {
	f, err := EncodeFormula(boolexpr.Or{
		boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}},
		boolexpr.Const(false),
		boolexpr.Leaf{V: 2},
	})
	if err != nil {
		panic(err)
	}
	return QuerySpec{
		Kind:  uint8(engine.KindFilter),
		Table: "visits",
		Right: "rankings",
		Predicates: []PredSpec{
			{Col: "duration", Op: uint8(prune.OpGT), Const: -42},
			{Col: "adRevenue", Op: uint8(prune.OpLE), Const: 9000},
			{Col: "userAgent", Like: "Mozilla%"},
		},
		Formula:      f,
		CountOnly:    true,
		DistinctCols: []string{"a", "b"},
		OrderCol:     "adRevenue",
		N:            250,
		KeyCol:       "country",
		AggCol:       "revenue",
		Threshold:    1 << 40,
		LeftKey:      "destURL",
		RightKey:     "pageURL",
		SkylineCols:  []string{"x", "y"},
	}
}

// TestFrameRoundTrips pins encode→decode equality for every frame
// body.
func TestFrameRoundTrips(t *testing.T) {
	msgs := []struct {
		name    string
		in, out frameMsg
	}{
		{"hello", &Hello{Version: ProtoVersion, Tenant: "tenant-3"}, &Hello{}},
		{"welcome", &Welcome{
			Version:  ProtoVersion,
			Switches: 4,
			Tables: []TableDef{
				{Name: "visits", Schema: table.Schema{
					{Name: "duration", Type: table.Int64},
					{Name: "userAgent", Type: table.String},
				}},
				{Name: "rankings", Schema: table.Schema{{Name: "pageURL", Type: table.String}}},
			},
			Stream: "visits",
		}, &Welcome{}},
		{"error", &ErrorMsg{ID: 7, Code: CodeRetryable, Msg: "draining"}, &ErrorMsg{}},
		{"ping", &PingMsg{Nonce: 0xdeadbeef}, &PingMsg{}},
		{"goodbye", &GoodbyeMsg{Reason: "shutdown"}, &GoodbyeMsg{}},
		{"query", &QueryReq{ID: 99, Priority: -2, DeadlineMicros: 1_500_000, Spec: sampleSpec()}, &QueryReq{}},
		{"result", &ResultMsg{
			ID: 99, Mode: 1, EntriesSent: 100_000, Forwarded: 1234, FailedOver: 2,
			Columns: []string{"k", "v"},
			Rows:    [][]string{{"a", "1"}, {"b", "2"}, {"", ""}},
		}, &ResultMsg{}},
		{"result-empty", &ResultMsg{ID: 1, Columns: []string{"count"}}, &ResultMsg{}},
		{"result-traced", &ResultMsg{
			ID: 12, Mode: 2, EntriesSent: 640, Forwarded: 64,
			Columns:   []string{"k"},
			Rows:      [][]string{{"a"}},
			WallNanos: 1_250_000,
			Trace: []TraceStage{
				{Stage: 0, Nanos: 12_000, Entries: 0, Forwarded: 0},
				{Stage: 6, Nanos: 900_000, Entries: 640, Forwarded: 64},
			},
		}, &ResultMsg{}},
		{"appended", &AppendedMsg{ID: 3, Version: 77}, &AppendedMsg{}},
		{"subscribe", &SubscribeReq{ID: 5, Window: 100, Slide: 50, Credits: 4, Spec: sampleSpec()}, &SubscribeReq{}},
		{"subscribed", &SubscribedMsg{ID: 5, Direct: true}, &SubscribedMsg{}},
		{"update", &UpdateMsg{ID: 5, Version: 640, Base: 512, Columns: []string{"k", "v"},
			Removed: [][]string{{"a", "1"}, {"a\x00", ""}}, Rows: [][]string{{"b", "2"}}}, &UpdateMsg{}},
		{"update-first", &UpdateMsg{ID: 5, Version: 64, Columns: []string{"c"}, Rows: [][]string{{"x"}}}, &UpdateMsg{}},
		{"update-empty", &UpdateMsg{ID: 5, Version: 70, Base: 64, Columns: []string{"c"}}, &UpdateMsg{}},
		{"credit", &CreditMsg{ID: 5, N: 3}, &CreditMsg{}},
		{"unsubscribe", &UnsubscribeMsg{ID: 5}, &UnsubscribeMsg{}},
	}
	for _, m := range msgs {
		t.Run(m.name, func(t *testing.T) {
			body := m.in.EncodeBody(nil)
			if err := m.out.DecodeBody(body); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(m.in, m.out) {
				t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", m.in, m.out)
			}
			// Trailing garbage must be rejected, truncations must error
			// (not panic).
			if err := m.out.DecodeBody(append(append([]byte(nil), body...), 0)); err == nil {
				t.Fatalf("trailing byte accepted")
			}
			for cut := 0; cut < len(body); cut++ {
				_ = m.out.DecodeBody(body[:cut]) // must not panic; errors allowed per prefix
			}
		})
	}
}

// TestAppendReqRoundTrip pins batch → request → batch equality.
func TestAppendReqRoundTrip(t *testing.T) {
	schema := table.Schema{
		{Name: "id", Type: table.Int64},
		{Name: "name", Type: table.String},
	}
	src := table.MustNew(schema)
	for i := 0; i < 10; i++ {
		if err := src.AppendRow(int64(i*3-5), string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	req := AppendBatchOf(42, src)
	body := req.EncodeBody(nil)
	var got AppendReq
	if err := got.DecodeBody(body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(req, &got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", req, got)
	}
	back, err := got.Batch(schema)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if back.NumRows() != src.NumRows() {
		t.Fatalf("rows %d != %d", back.NumRows(), src.NumRows())
	}
	for r := 0; r < src.NumRows(); r++ {
		for c := 0; c < src.NumCols(); c++ {
			if back.ValueAt(c, r) != src.ValueAt(c, r) {
				t.Fatalf("cell (%d,%d) %v != %v", c, r, back.ValueAt(c, r), src.ValueAt(c, r))
			}
		}
	}
	// A schema mismatch is a decode-time validation error, not a panic.
	if _, err := got.Batch(table.Schema{{Name: "id", Type: table.Int64}}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := got.Batch(table.Schema{
		{Name: "id", Type: table.String},
		{Name: "name", Type: table.String},
	}); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

// TestSpecBindEquivalence pins SpecOf → Bind as the identity on every
// query kind the multitenant mix generates (modulo table pointers).
func TestSpecBindEquivalence(t *testing.T) {
	visits := table.MustNew(table.Schema{
		{Name: "duration", Type: table.Int64},
		{Name: "adRevenue", Type: table.Int64},
		{Name: "userAgent", Type: table.String},
	})
	rankings := table.MustNew(table.Schema{
		{Name: "pageURL", Type: table.String},
		{Name: "rank", Type: table.Int64},
	})
	for i := 0; i < 4; i++ {
		if err := visits.AppendRow(int64(i), int64(i*i), "ua"); err != nil {
			t.Fatal(err)
		}
		if err := rankings.AppendRow("u", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tables := map[string]*table.Table{"visits": visits, "rankings": rankings}
	queries := []*engine.Query{
		{Kind: engine.KindFilter, Table: visits,
			Predicates: []engine.FilterPred{{Col: "duration", Op: prune.OpGT, Const: 1}},
			Formula:    boolexpr.Leaf{V: 0}},
		{Kind: engine.KindDistinct, Table: visits, DistinctCols: []string{"userAgent"}},
		{Kind: engine.KindTopN, Table: visits, OrderCol: "adRevenue", N: 2},
		{Kind: engine.KindGroupByMax, Table: visits, KeyCol: "userAgent", AggCol: "adRevenue"},
		{Kind: engine.KindGroupBySum, Table: visits, KeyCol: "userAgent", AggCol: "duration"},
		{Kind: engine.KindHaving, Table: visits, KeyCol: "userAgent", AggCol: "duration", Threshold: 2},
		{Kind: engine.KindJoin, Table: visits, Right: rankings, LeftKey: "userAgent", RightKey: "pageURL"},
		{Kind: engine.KindSkyline, Table: visits, SkylineCols: []string{"duration", "adRevenue"}},
	}
	for _, q := range queries {
		right := ""
		if q.Right != nil {
			right = "rankings"
		}
		spec, err := SpecOf(q, "visits", right)
		if err != nil {
			t.Fatalf("%v: SpecOf: %v", q.Kind, err)
		}
		// Through the wire and back.
		body := appendSpec(nil, spec)
		d := decoder{b: body}
		dec := d.spec()
		if err := d.done(); err != nil {
			t.Fatalf("%v: spec decode: %v", q.Kind, err)
		}
		got, err := dec.Bind(tables)
		if err != nil {
			t.Fatalf("%v: Bind: %v", q.Kind, err)
		}
		if got.Table != visits || (right != "" && got.Right != rankings) {
			t.Fatalf("%v: tables bound wrong", q.Kind)
		}
		// Execution equivalence is the real contract: the re-bound query
		// answers identically.
		want, err := engine.ExecDirect(q)
		if err != nil {
			t.Fatalf("%v: direct(orig): %v", q.Kind, err)
		}
		have, err := engine.ExecDirect(got)
		if err != nil {
			t.Fatalf("%v: direct(bound): %v", q.Kind, err)
		}
		want.Sort()
		have.Sort()
		if !want.Equal(have) {
			t.Fatalf("%v: bound query diverges:\nwant %v\nhave %v", q.Kind, want, have)
		}
	}
	// Unknown tables fail descriptively.
	spec, _ := SpecOf(queries[0], "nope", "")
	if _, err := spec.Bind(tables); err == nil {
		t.Fatal("unknown table accepted")
	}
}

// TestBindUnknownKind: a kind byte past the engine's kind table, decoded
// from a Query frame, binds to an "unknown query kind" error, not a panic.
func TestBindUnknownKind(t *testing.T) {
	tables := map[string]*table.Table{"t": table.MustNew(table.Schema{{Name: "v", Type: table.Int64}})}
	for _, kind := range []uint8{8, 255} {
		body := (&QueryReq{ID: 1, Spec: QuerySpec{Kind: kind, Table: "t"}}).EncodeBody(nil)
		var req QueryReq
		if err := req.DecodeBody(body); err != nil {
			t.Fatalf("kind %d: decode: %v", kind, err)
		}
		q, err := req.Spec.Bind(tables)
		if err == nil || !strings.Contains(err.Error(), "unknown query kind") {
			t.Fatalf("kind %d: Bind = %v, %v; want an unknown query kind error", kind, q, err)
		}
	}
}

// TestReadWriteFrame pins the stream framing: sequential frames,
// oversized rejection, clean EOF vs truncation.
func TestReadWriteFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FramePing, (&PingMsg{Nonce: 1}).EncodeBody(nil)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, FrameGoodbye, (&GoodbyeMsg{Reason: "bye"}).EncodeBody(nil)); err != nil {
		t.Fatal(err)
	}
	ft, body, err := ReadFrame(&buf)
	if err != nil || ft != FramePing {
		t.Fatalf("first frame: %v %v", ft, err)
	}
	var p PingMsg
	if err := p.DecodeBody(body); err != nil || p.Nonce != 1 {
		t.Fatalf("ping body: %+v %v", p, err)
	}
	if ft, _, err = ReadFrame(&buf); err != nil || ft != FrameGoodbye {
		t.Fatalf("second frame: %v %v", ft, err)
	}
	if _, _, err = ReadFrame(&buf); err != io.EOF {
		t.Fatalf("clean EOF, got %v", err)
	}

	// Oversized length prefix is rejected before allocation.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized: %v", err)
	}
	// Truncated body is ErrUnexpectedEOF, not EOF.
	trunc := []byte{0, 0, 0, 10, byte(FramePing), 1, 2}
	if _, _, err := ReadFrame(bytes.NewReader(trunc)); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated: %v", err)
	}
	// Zero-length frames are malformed (no type byte).
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("zero-length: %v", err)
	}
}

// TestResultFrameOneBuffer pins ResultMsg.EncodeBody to one allocation —
// the buffer is sized from the rows before anything is appended — and
// WriteFrame's single header+body write to arrive whole over TCP, empty
// bodies included.
func TestResultFrameOneBuffer(t *testing.T) {
	res := &ResultMsg{ID: 3, Mode: 1, EntriesSent: 1 << 40, Forwarded: 300, Columns: []string{"k", "v"},
		Trace: []TraceStage{{Stage: 6, Nanos: 1 << 33, Entries: 9, Forwarded: 1}}}
	for i := 0; i < 3000; i++ {
		res.Rows = append(res.Rows, []string{strings.Repeat("k", i%200), fmt.Sprint(i * i)})
	}
	if n := testing.AllocsPerRun(20, func() { res.EncodeBody(nil) }); n != 1 {
		t.Fatalf("EncodeBody(nil) made %v allocations, want 1", n)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_ = WriteFrame(c, FrameResult, res.EncodeBody(nil))
		_ = WriteFrame(c, FramePing, nil)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ft, body, err := ReadFrame(c)
	if err != nil || ft != FrameResult {
		t.Fatalf("result frame: %v %v", ft, err)
	}
	var got ResultMsg
	if err := got.DecodeBody(body); err != nil || !reflect.DeepEqual(&got, res) {
		t.Fatalf("result over TCP: %v, equal %v", err, reflect.DeepEqual(&got, res))
	}
	if ft, body, err = ReadFrame(c); err != nil || ft != FramePing || len(body) != 0 {
		t.Fatalf("empty frame: %v %d bytes %v", ft, len(body), err)
	}
}

// TestResultDecodeAllocs pins ResultMsg.DecodeBody to a fixed number of
// allocations, whatever the row count: one copy of the body that every
// cell is a slice of, the columns, one cell array and one row-header array.
func TestResultDecodeAllocs(t *testing.T) {
	allocs := func(rows int) float64 {
		res := &ResultMsg{ID: 3, Columns: []string{"k", "v"}}
		for i := 0; i < rows; i++ {
			res.Rows = append(res.Rows, []string{fmt.Sprint("key", i), fmt.Sprint(i * i)})
		}
		body := res.EncodeBody(nil)
		var got ResultMsg
		return testing.AllocsPerRun(20, func() {
			if err := got.DecodeBody(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(300), allocs(3000)
	if small != large || large > 4 {
		t.Fatalf("DecodeBody made %v allocations for 300 rows and %v for 3000, want the same and at most 4", small, large)
	}
}

// TestAppendBatchAllocs pins decoding an append body and adopting it as a
// table to allocations per column, not per row or cell.
func TestAppendBatchAllocs(t *testing.T) {
	const cols = 9
	var schema table.Schema
	for c := 0; c < cols; c++ {
		typ := table.Int64
		if c%3 == 0 {
			typ = table.String
		}
		schema = append(schema, table.ColumnDef{Name: fmt.Sprint("c", c), Type: typ})
	}
	allocs := func(rows int) float64 {
		src := table.MustNew(schema)
		row := make([]any, cols)
		for r := 0; r < rows; r++ {
			for c := range row {
				if schema[c].Type == table.String {
					row[c] = fmt.Sprint("cell", r%37, c)
				} else {
					row[c] = int64(r * c)
				}
			}
			if err := src.AppendRow(row...); err != nil {
				t.Fatal(err)
			}
		}
		body := AppendBatchOf(1, src).EncodeBody(nil)
		return testing.AllocsPerRun(20, func() {
			var req AppendReq
			if err := req.DecodeBody(body); err != nil {
				t.Fatal(err)
			}
			if _, err := req.Batch(schema); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(256), allocs(2048)
	if small != large || large > 5*cols {
		t.Fatalf("decode and Batch made %v allocations at 256 rows and %v at 2048 over %d columns, want the same and at most %d",
			small, large, cols, 5*cols)
	}
}

// TestDecodedRowsApart pins decoded rows as disjoint views of their cell
// array: growing one row copies it and leaves the next row whole.
func TestDecodedRowsApart(t *testing.T) {
	in := &UpdateMsg{ID: 1, Version: 2, Columns: []string{"k", "v"},
		Removed: [][]string{{"r", "0"}}, Rows: [][]string{{"a", "1"}, {"b", "2"}}}
	var got UpdateMsg
	if err := got.DecodeBody(in.EncodeBody(nil)); err != nil {
		t.Fatal(err)
	}
	_ = append(got.Rows[0], "x")
	_ = append(got.Removed[0], "y")
	if !reflect.DeepEqual(&got, in) {
		t.Fatalf("appending to a decoded row changed its neighbours:\n got %+v\nwant %+v", got, in)
	}
}

// TestDecodeFormulaBudget pins the node-count bound against deep
// hostile formulas.
func TestDecodeFormulaBudget(t *testing.T) {
	// A nest of single-child ANDs deeper than the budget.
	var b []byte
	for i := 0; i < maxFormulaNodes+10; i++ {
		b = append(b, 2, 1) // AND with 1 child
	}
	b = append(b, 1, 1) // innermost: Const(true)
	if _, err := DecodeFormula(b); err == nil {
		t.Fatal("over-budget formula accepted")
	}
	// A legal small formula still decodes.
	enc, err := EncodeFormula(boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := DecodeFormula(enc)
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(p0 AND p1)" {
		t.Fatalf("decoded %s", e)
	}
}

// TestControlPacketStrictLength pins the tightened DecodeFrom bounds:
// fixed-size control messages reject trailing bytes.
func TestControlPacketStrictLength(t *testing.T) {
	ack := NewAck(7, 9)
	buf, err := ack.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	if err := p.DecodeFrom(buf); err != nil {
		t.Fatalf("exact ACK: %v", err)
	}
	if err := p.DecodeFrom(append(buf, 0xcc)); !errors.Is(err, ErrBadCount) {
		t.Fatalf("trailing byte on ACK: %v", err)
	}
}
