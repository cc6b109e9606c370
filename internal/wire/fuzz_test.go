package wire

import (
	"bytes"
	"testing"
)

// FuzzPacketDecodeFrom throws arbitrary bytes at the dataplane packet
// decoder. The invariants: never panic, and anything that decodes must
// re-encode to exactly the input bytes (DecodeFrom accepts only
// canonical framings).
func FuzzPacketDecodeFrom(f *testing.F) {
	// Seed with a round-trip corpus covering every message type and the
	// value-count edges.
	seeds := []Packet{
		NewData(1, 0, nil),
		NewData(7, 42, []uint64{1, 2, 3}),
		NewData(0xffffffff, 1<<63, make([]uint64, MaxValues)),
		NewAck(3, 9),
		NewFin(3, 100),
		NewFinAck(3, 100),
	}
	for i := range seeds {
		buf, err := seeds[i].AppendTo(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	// Known-hostile shapes: truncations, bad type, count/length skew.
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xcc})
	f.Add([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, b []byte) {
		var p Packet
		if err := p.DecodeFrom(b); err != nil {
			return
		}
		out, err := p.AppendTo(nil)
		if err != nil {
			t.Fatalf("decoded packet fails to encode: %v", err)
		}
		if !bytes.Equal(out, b) {
			t.Fatalf("round trip not canonical:\n in %x\nout %x", b, out)
		}
	})
}

// FuzzFrameDecode throws arbitrary frame bodies at every stream-frame
// decoder. The invariants are no panics and no over-allocation (hostile
// counts must be rejected by the remaining-bytes guards before any
// large make()), a canonical round trip, and no aliasing: a decoded
// message re-encodes to the input bytes after they are overwritten.
func FuzzFrameDecode(f *testing.F) {
	spec := QuerySpec{
		Kind:       1,
		Table:      "t",
		Predicates: []PredSpec{{Col: "c", Op: 2, Const: 5}},
		Formula:    []byte{0, 0},
	}
	f.Add(uint8(FrameHello), (&Hello{Version: ProtoVersion, Tenant: "x"}).EncodeBody(nil))
	f.Add(uint8(FrameWelcome), (&Welcome{Version: 1, Switches: 2, Stream: "t"}).EncodeBody(nil))
	f.Add(uint8(FrameQuery), (&QueryReq{ID: 1, Spec: spec}).EncodeBody(nil))
	f.Add(uint8(FrameResult), (&ResultMsg{ID: 1, Columns: []string{"a"}, Rows: [][]string{{"1"}}}).EncodeBody(nil))
	f.Add(uint8(FrameError), (&ErrorMsg{ID: 1, Code: CodeRetryable, Msg: "m"}).EncodeBody(nil))
	f.Add(uint8(FramePing), (&PingMsg{Nonce: 3}).EncodeBody(nil))
	f.Add(uint8(FrameAppend), (&AppendReq{ID: 1, Rows: 1, Cols: []ColData{{Type: 0, Ints: []int64{4}}}}).EncodeBody(nil))
	f.Add(uint8(FrameAppended), (&AppendedMsg{ID: 1, Version: 2}).EncodeBody(nil))
	f.Add(uint8(FrameSubscribe), (&SubscribeReq{ID: 1, Credits: 2, Spec: spec}).EncodeBody(nil))
	f.Add(uint8(FrameSubscribed), (&SubscribedMsg{ID: 1}).EncodeBody(nil))
	f.Add(uint8(FrameUpdate), (&UpdateMsg{ID: 1, Version: 9, Columns: []string{"a"}, Rows: [][]string{{"1"}}}).EncodeBody(nil))
	// Change sets: rows retired and added against a base, NUL and empty
	// cells; an empty change; a change that only retires.
	f.Add(uint8(FrameUpdate), (&UpdateMsg{ID: 2, Version: 12, Base: 9, Columns: []string{"k", "v"},
		Removed: [][]string{{"a", "1"}, {"a\x00", ""}}, Rows: [][]string{{"", "3"}, {"b", "4"}}}).EncodeBody(nil))
	f.Add(uint8(FrameUpdate), (&UpdateMsg{ID: 3, Version: 4, Base: 4, Columns: []string{"k"}}).EncodeBody(nil))
	f.Add(uint8(FrameUpdate), (&UpdateMsg{ID: 4, Version: 7, Base: 3, Columns: []string{"k"}, Removed: [][]string{{"x"}}}).EncodeBody(nil))
	f.Add(uint8(FrameCredit), (&CreditMsg{ID: 1, N: 1}).EncodeBody(nil))
	f.Add(uint8(FrameUnsubscribe), (&UnsubscribeMsg{ID: 1}).EncodeBody(nil))
	f.Add(uint8(FrameGoodbye), (&GoodbyeMsg{Reason: "r"}).EncodeBody(nil))
	// Bodies whose strings all slice one copy: String append columns with
	// empty and NUL cells, a result of several rows, a change set holding
	// cells on both sides.
	f.Add(uint8(FrameAppend), (&AppendReq{ID: 2, Rows: 3, Cols: []ColData{
		{Type: 1, Strs: []string{"a", "", "\x00"}}, {Type: 0, Ints: []int64{-1, 0, 1 << 40}},
		{Type: 1, Strs: []string{"", "b\x00c", "d"}}}}).EncodeBody(nil))
	f.Add(uint8(FrameResult), (&ResultMsg{ID: 2, Columns: []string{"k", "v"},
		Rows: [][]string{{"a", "1"}, {"", "2"}, {"c\x00", ""}}}).EncodeBody(nil))
	f.Add(uint8(FrameUpdate), (&UpdateMsg{ID: 5, Version: 8, Base: 6, Columns: []string{"k", "v"},
		Removed: [][]string{{"a", "1"}, {"b", "2"}}, Rows: [][]string{{"a", "3"}, {"c", ""}}}).EncodeBody(nil))
	// Hostile: huge declared counts with tiny bodies.
	f.Add(uint8(FrameResult), []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(uint8(FrameAppend), []byte{0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 1, 1, 'a'})

	f.Fuzz(func(t *testing.T, ft uint8, body []byte) {
		var m frameMsg
		switch FrameType(ft) {
		case FrameHello:
			m = &Hello{}
		case FrameWelcome:
			m = &Welcome{}
		case FrameQuery:
			m = &QueryReq{}
		case FrameResult:
			m = &ResultMsg{}
		case FrameError:
			m = &ErrorMsg{}
		case FramePing, FramePong:
			m = &PingMsg{}
		case FrameAppend:
			m = &AppendReq{}
		case FrameAppended:
			m = &AppendedMsg{}
		case FrameSubscribe:
			m = &SubscribeReq{}
		case FrameSubscribed:
			m = &SubscribedMsg{}
		case FrameUpdate:
			m = &UpdateMsg{}
		case FrameCredit:
			m = &CreditMsg{}
		case FrameUnsubscribe:
			m = &UnsubscribeMsg{}
		case FrameGoodbye:
			m = &GoodbyeMsg{}
		default:
			return
		}
		in := bytes.Clone(body)
		if err := m.DecodeBody(body); err != nil {
			return
		}
		// The decoded message owns its bytes: overwriting the body it was
		// decoded from changes nothing in it.
		for i := range body {
			body[i] = 0xa5
		}
		// Successful decodes re-encode to the same bytes: the body
		// grammar is canonical.
		out := m.EncodeBody(nil)
		if !bytes.Equal(out, in) {
			t.Fatalf("frame %d round trip not canonical:\n in %x\nout %x", ft, in, out)
		}
	})
}
