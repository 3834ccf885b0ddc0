package protocol

// Fuzzers for the two wire codecs every peer exposes to the network: the
// JSON control envelope and the binary data frame. Both decoders sit
// directly on attacker-reachable input (any peer can send any bytes), so
// the properties fuzzed here are the security-relevant ones: no panic, no
// unbounded allocation driven by header fields, and encode(decode(x))
// fidelity for everything the decoder accepts.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"ncast/internal/gf"
	"ncast/internal/obs"
	"ncast/internal/rlnc"
)

// controlSeeds returns one well-formed frame per control message type,
// plus structural edge cases, so the fuzzer starts inside the grammar.
func controlSeeds(t testing.TB) [][]byte {
	t.Helper()
	payloads := []struct {
		typ MsgType
		p   interface{}
	}{
		{MsgHello, Hello{Addr: "n1", Degree: 3}},
		{MsgWelcome, Welcome{ID: 7, K: 32, Degree: 4, Threads: []int{1, 5, 9},
			Session: SessionParams{FieldBits: 8, GenSize: 16, PacketSize: 512, ContentLen: 1 << 20}}},
		{MsgGoodbye, Goodbye{ID: 7}},
		{MsgGoodbyeAck, GoodbyeAck{}},
		{MsgComplaint, Complaint{ID: 9, Thread: 2, ParentAddr: "n4"}},
		{MsgRedirect, Redirect{Thread: 1, ChildAddr: "n8"}},
		{MsgComplete, Complete{ID: 3}},
		{MsgError, ErrorMsg{Reason: "full"}},
		{MsgExpelled, Expelled{ID: 11}},
		{MsgCongested, Congested{ID: 2}},
		{MsgUncongested, Uncongested{ID: 2}},
		{MsgThreadDropped, ThreadDropped{Thread: 6}},
		{MsgThreadAdded, ThreadAdded{Thread: 6, ChildAddr: "n2"}},
		{MsgLease, Lease{ID: 5}},
		{MsgStatsReport, StatsReport{ID: 5, Rank: 12, MaxRank: 64,
			GenRanks: []int{4, 4, 4}, Received: 100, DelayP50Nanos: 1000}},
	}
	seeds := make([][]byte, 0, len(payloads)+4)
	for _, s := range payloads {
		frame, err := EncodeControl(s.typ, s.p)
		if err != nil {
			t.Fatalf("seed encode %d: %v", s.typ, err)
		}
		seeds = append(seeds, frame)
	}
	seeds = append(seeds,
		[]byte{},          // empty
		[]byte{1},         // control kind byte, no body
		[]byte(`{"t":1}`), // missing kind byte
		append([]byte{1}, `{"t":255,"p":{"addr":"x"}}`...), // unknown type
	)
	return seeds
}

// FuzzDecodeControl hammers the control envelope decoder with arbitrary
// bytes. Accepted frames must re-encode to a frame that decodes to the
// same type and a semantically identical payload.
func FuzzDecodeControl(f *testing.F) {
	for _, s := range controlSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		typ, payload, err := DecodeControl(frame)
		if err != nil {
			return
		}
		// Whatever the decoder accepts must be within the JSON grammar.
		if payload != nil && !json.Valid(payload) {
			t.Fatalf("accepted invalid payload %q", payload)
		}
		if payload == nil {
			payload = json.RawMessage("null")
		}
		again, err := EncodeControl(typ, payload)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		typ2, payload2, err := DecodeControl(again)
		if err != nil {
			t.Fatalf("decode of re-encoded frame failed: %v", err)
		}
		if typ2 != typ {
			t.Fatalf("type changed across round trip: %d -> %d", typ, typ2)
		}
		// Compare semantically, not byte-wise: re-encoding HTML-escapes
		// characters like "&" to "\u0026", which is the same JSON value.
		var want, got interface{}
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatalf("unmarshal original: %v", err)
		}
		if err := json.Unmarshal(payload2, &got); err != nil {
			t.Fatalf("unmarshal round-tripped: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("payload changed across round trip: %s -> %s", payload, payload2)
		}
	})
}

// fuzzField maps the fuzzer's field selector onto the three coding fields.
func fuzzField(sel uint8) gf.Field {
	switch sel % 3 {
	case 0:
		return gf.F2
	case 1:
		return gf.F256
	default:
		return gf.F65536
	}
}

// FuzzDecodeData hammers the data-frame decoder over all three fields and
// every header layout AppendDataSeq emits: plain, stamped and traced, each
// with and without a sequence number, carrying coded and systematic
// packets. Accepted frames must round-trip exactly: thread, seq, stamp,
// trace context, generation, coefficients, systematic index and payload
// all survive re-encoding. A malformed trace header must be rejected,
// never mis-routed to another layout.
func FuzzDecodeData(f *testing.F) {
	coded := &rlnc.Packet{Gen: 3, Coeff: []uint16{1, 0, 1}, Payload: []byte("abcd")}
	sys := &rlnc.Packet{Gen: 3, Coeff: []uint16{0, 1, 0}, Sys: true, SysIdx: 1, Payload: []byte("abcd")}
	traced := TraceContext{ID: 0xfeedface, Hop: 2}
	for sel := uint8(0); sel < 3; sel++ {
		fld := fuzzField(sel)
		f.Add(sel, AppendDataSeq(nil, fld, 9, -1, 0, TraceContext{}, coded))
		f.Add(sel, AppendDataSeq(nil, fld, 9, -1, 123456789, TraceContext{}, coded))
		f.Add(sel, AppendDataSeq(nil, fld, 9, -1, 123456789, traced, coded))
		f.Add(sel, AppendDataSeq(nil, fld, 9, -1, 0, TraceContext{ID: 1, Hop: 255}, coded))
		f.Add(sel, AppendDataSeq(nil, fld, 9, 0, 0, TraceContext{}, coded))
		f.Add(sel, AppendDataSeq(nil, fld, 9, SeqMod-1, 123456789, TraceContext{}, coded))
		f.Add(sel, AppendDataSeq(nil, fld, 9, 7, 123456789, traced, coded))
	}
	f.Add(uint8(1), []byte{0, 0, 1})                              // header only
	f.Add(uint8(1), []byte{3, 0, 1, 1, 2, 3})                     // stamped, truncated stamp
	f.Add(uint8(1), []byte{4, 0, 1, 1, 2, 3})                     // traced, truncated context
	f.Add(uint8(1), append([]byte{4, 0, 1}, make([]byte, 17)...)) // traced, zero id
	f.Add(uint8(1), []byte{0, 0x80, 1, 9})                        // seq flag, truncated seq
	for sel := uint8(0); sel < 3; sel++ {
		fld := fuzzField(sel)
		f.Add(sel, AppendDataSeq(nil, fld, 9, -1, 0, TraceContext{}, sys))
		f.Add(sel, AppendDataSeq(nil, fld, 9, 0, 123456789, TraceContext{}, sys))
		f.Add(sel, AppendDataSeq(nil, fld, 9, SeqMod-1, 123456789, traced, sys))
	}
	f.Fuzz(func(t *testing.T, sel uint8, frame []byte) {
		fld := fuzzField(sel)
		thread, seq, stamp, tc, p, err := DecodeDataSeq(fld, frame)
		if err != nil {
			return
		}
		defer p.Release()
		if seq < -1 || seq >= SeqMod {
			t.Fatalf("seq %d outside [-1, %d)", seq, SeqMod)
		}
		// Header fields must not have conjured state beyond the input:
		// everything in the packet was carried by the frame itself.
		if p.WireSize(fld) > len(frame) {
			t.Fatalf("decoded packet claims %d wire bytes from a %d-byte frame", p.WireSize(fld), len(frame))
		}
		// A frame the decoder calls traced must carry a usable context.
		if frame[0] == frameDataTraced && !tc.Traced() {
			t.Fatalf("traced frame accepted with zero trace id")
		}
		again := AppendDataSeq(nil, fld, thread, seq, stamp, tc, p)
		thread2, seq2, stamp2, tc2, p2, err := DecodeDataSeq(fld, again)
		if err != nil {
			t.Fatalf("decode of re-encoded frame failed: %v", err)
		}
		defer p2.Release()
		// Traced frames carry the stamp verbatim; otherwise a non-positive
		// stamp encodes as the unstamped layout.
		wantStamp := stamp
		if !tc.Traced() && wantStamp <= 0 {
			wantStamp = 0
		}
		if thread2 != thread || seq2 != seq || stamp2 != wantStamp || tc2 != tc {
			t.Fatalf("header changed across round trip: thread %d/%d seq %d/%d stamp %d/%d tc %+v/%+v",
				thread, thread2, seq, seq2, stamp, stamp2, tc, tc2)
		}
		if !samePacket(p, p2) {
			t.Fatalf("packet changed across round trip:\n%+v\n%+v", p, p2)
		}
	})
}

// samePacket reports whether two packets carry the same generation,
// coefficients, systematic marking and payload.
func samePacket(a, b *rlnc.Packet) bool {
	return a.Gen == b.Gen && a.Sys == b.Sys && a.SysIdx == b.SysIdx &&
		slices.Equal(a.Coeff, b.Coeff) && bytes.Equal(a.Payload, b.Payload)
}

// FuzzDecodeKeepalive covers the keepalive frame: it must never panic,
// must reject anything shorter than the layout, and must round-trip every
// KeepaliveInfo it accepts.
func FuzzDecodeKeepalive(f *testing.F) {
	f.Add(EncodeKeepalive(0, 0, 0, 0))                  // plain beat
	f.Add(EncodeKeepalive(65535, 0, 0, 0))              // widest thread
	f.Add([]byte{2})                                    // kind byte only
	f.Add(EncodeKeepalive(3, 123456789, 0, 0))          // probe
	f.Add(EncodeKeepalive(3, 0, 123456789, 42))         // echo
	f.Add([]byte{2, 0x12, 0x34})                        // thread word only
	f.Add(append(EncodeKeepalive(1, 1, 0, 0), 0xbe))    // trailing bytes: tolerated
	f.Add(EncodeKeepalive(9, 1, 0, 0)[:keepaliveLen-1]) // truncated
	f.Fuzz(func(t *testing.T, frame []byte) {
		ki, err := DecodeKeepalive(frame)
		if err != nil {
			return
		}
		if len(frame) < keepaliveLen {
			t.Fatalf("accepted a %d-byte keepalive", len(frame))
		}
		again := EncodeKeepalive(ki.Thread, ki.TxNanos, ki.EchoNanos, ki.HoldNanos)
		if !bytes.Equal(again, frame[:keepaliveLen]) {
			t.Fatalf("re-encoding %+v: got %x, want %x", ki, again, frame[:keepaliveLen])
		}
		if ki2, err := DecodeKeepalive(again); err != nil || ki2 != ki {
			t.Fatalf("keepalive round trip: %+v -> %+v, err %v", ki, ki2, err)
		}
	})
}

// TestControlRoundTripAllTypes pins the non-fuzz property directly: every
// concrete control message encodes, decodes, and unmarshals back to an
// identical value.
func TestControlRoundTripAllTypes(t *testing.T) {
	t.Parallel()
	check := func(typ MsgType, in, out interface{}) {
		t.Helper()
		frame, err := EncodeControl(typ, in)
		if err != nil {
			t.Fatalf("encode %d: %v", typ, err)
		}
		gotType, payload, err := DecodeControl(frame)
		if err != nil {
			t.Fatalf("decode %d: %v", typ, err)
		}
		if gotType != typ {
			t.Fatalf("type %d decoded as %d", typ, gotType)
		}
		if err := json.Unmarshal(payload, out); err != nil {
			t.Fatalf("unmarshal %d: %v", typ, err)
		}
		inJSON, _ := json.Marshal(in)
		outJSON, _ := json.Marshal(out)
		if !bytes.Equal(inJSON, outJSON) {
			t.Fatalf("type %d round trip: %s -> %s", typ, inJSON, outJSON)
		}
	}
	check(MsgHello, &Hello{Addr: "n1", Degree: 2}, &Hello{})
	check(MsgWelcome, &Welcome{ID: 1, K: 8, Degree: 2, Threads: []int{0, 7},
		Session:     SessionParams{FieldBits: 16, GenSize: 32, PacketSize: 1024, ContentLen: 1 << 16, LayerSizes: []int{4096, 60928}},
		LeaseMillis: 500, StatsMillis: 1000}, &Welcome{})
	check(MsgGoodbye, &Goodbye{ID: 4}, &Goodbye{})
	check(MsgComplaint, &Complaint{ID: 4, Thread: 3, ParentAddr: "p"}, &Complaint{})
	check(MsgRedirect, &Redirect{Thread: 3, ChildAddr: "c"}, &Redirect{})
	check(MsgStatsReport, &StatsReport{ID: 2, Rank: 5, MaxRank: 10, GenRanks: []int{5},
		GensDone: 0, TotalGens: 2, Received: 9, Innovative: 5, Redundant: 4,
		DelayP50Nanos: 10, DelayP90Nanos: 20, DelayP99Nanos: 30, OverheadPermille: 1100}, &StatsReport{})
}

// TestTracedHotPathAllocs is the tracing-overhead guard: with sampling
// off (a zero TraceContext), the pooled emit and receive paths must not
// allocate at all — enabling the tracing code paths costs nothing unless
// a generation is actually sampled.
func TestTracedHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	fld := gf.F256
	src := &rlnc.Packet{Gen: 1, Coeff: []uint16{3, 1, 4, 1}, Payload: make([]byte, 256)}
	frame := AppendDataSeq(nil, fld, 2, -1, 12345, TraceContext{}, src)
	hot := func() {
		buf := rlnc.GetFrameBuf()
		*buf = AppendDataSeq(*buf, fld, 2, -1, 12345, TraceContext{}, src)
		_, _, _, _, p, err := DecodeDataSeq(fld, frame)
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
		rlnc.PutFrameBuf(buf)
	}
	// Warm the pools outside the measured runs.
	for i := 0; i < 16; i++ {
		hot()
	}
	if allocs := testing.AllocsPerRun(200, hot); allocs != 0 {
		t.Fatalf("untraced hot path allocates %.1f objects per emit+receive, want 0", allocs)
	}
}

// TestDataFrameGoldenLayout pins the exact byte layout of every data-frame
// header and of the keepalive. These bytes are the wire protocol: a
// mixed-version fleet only works if they never shift. The systematic rows
// also pin what the end-to-end benchmark's recorder parses by hand: the
// thread word at bytes 1–2 (top bit = seq flag) and the systematic flag in
// bit 31 of the rlnc length word, 6 bytes past the frame header.
func TestDataFrameGoldenLayout(t *testing.T) {
	t.Parallel()
	fld := gf.F256
	p := &rlnc.Packet{Gen: 3, Coeff: []uint16{1, 2, 3}, Payload: []byte("hi")}
	body := p.AppendTo(nil, fld)
	sys := &rlnc.Packet{Gen: 3, Coeff: []uint16{0, 1, 0}, Sys: true, SysIdx: 1, Payload: []byte("hi")}
	// gen 3, 3 coefficients, length word 0x80000002 (systematic, 2 bytes),
	// systematic index 1, payload.
	sysBody := []byte{0, 0, 0, 3, 0, 3, 0x80, 0, 0, 2, 0, 1, 'h', 'i'}

	stamp8 := make([]byte, 8)
	binary.BigEndian.PutUint64(stamp8, 99)
	id8 := make([]byte, 8)
	binary.BigEndian.PutUint64(id8, 0xabc)
	tc := TraceContext{ID: 0xabc, Hop: 2}

	join := func(parts ...[]byte) []byte {
		var out []byte
		for _, part := range parts {
			out = append(out, part...)
		}
		return out
	}
	cases := []struct {
		name  string
		frame []byte
		want  []byte
	}{
		{"plain", AppendDataSeq(nil, fld, 9, -1, 0, TraceContext{}, p), join([]byte{0, 0, 9}, body)},
		{"stamped", AppendDataSeq(nil, fld, 9, -1, 99, TraceContext{}, p), join([]byte{3, 0, 9}, stamp8, body)},
		{"traced", AppendDataSeq(nil, fld, 9, -1, 99, tc, p),
			join([]byte{4, 0, 9}, stamp8, id8, []byte{2}, body)},
		{"seq-plain", AppendDataSeq(nil, fld, 9, 0x010203, 0, TraceContext{}, p),
			join([]byte{0, 0x80, 9, 1, 2, 3}, body)},
		{"seq-stamped", AppendDataSeq(nil, fld, 9, 0x010203, 99, TraceContext{}, p),
			join([]byte{3, 0x80, 9, 1, 2, 3}, stamp8, body)},
		{"seq-traced", AppendDataSeq(nil, fld, 9, 0x010203, 99, tc, p),
			join([]byte{4, 0x80, 9, 1, 2, 3}, stamp8, id8, []byte{2}, body)},
		{"sys-plain", AppendDataSeq(nil, fld, 9, -1, 0, TraceContext{}, sys), join([]byte{0, 0, 9}, sysBody)},
		{"sys-stamped", AppendDataSeq(nil, fld, 9, -1, 99, TraceContext{}, sys), join([]byte{3, 0, 9}, stamp8, sysBody)},
		{"sys-traced", AppendDataSeq(nil, fld, 9, -1, 99, tc, sys),
			join([]byte{4, 0, 9}, stamp8, id8, []byte{2}, sysBody)},
		{"sys-seq-plain", AppendDataSeq(nil, fld, 9, 0x010203, 0, TraceContext{}, sys),
			join([]byte{0, 0x80, 9, 1, 2, 3}, sysBody)},
		{"sys-seq-stamped", AppendDataSeq(nil, fld, 9, 0x010203, 99, TraceContext{}, sys),
			join([]byte{3, 0x80, 9, 1, 2, 3}, stamp8, sysBody)},
		{"sys-seq-traced", AppendDataSeq(nil, fld, 9, 0x010203, 99, tc, sys),
			join([]byte{4, 0x80, 9, 1, 2, 3}, stamp8, id8, []byte{2}, sysBody)},
		{"keepalive", EncodeKeepalive(0x1234, 0, 0, 0), join([]byte{2, 0x12, 0x34}, make([]byte, 24))},
		{"keepalive-probe", EncodeKeepalive(0x1234, 99, 0, 0),
			join([]byte{2, 0x12, 0x34}, stamp8, make([]byte, 16))},
	}
	for _, c := range cases {
		if !bytes.Equal(c.frame, c.want) {
			t.Errorf("%s layout:\n got %x\nwant %x", c.name, c.frame, c.want)
		}
	}
}

// TestLinkHotPathAllocs is the link-telemetry overhead guard: the full
// per-frame accounting path — pooled seq-stamped emit, decode, sequence
// ledger, innovation verdict — must not allocate in the steady state, or
// enabling telemetry would tax every datagram.
func TestLinkHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	fld := gf.F256
	links := obs.NewLinkTracker(0)
	src := &rlnc.Packet{Gen: 1, Coeff: []uint16{3, 1, 4, 1}, Payload: make([]byte, 256)}
	seq := int32(0)
	hot := func() {
		buf := rlnc.GetFrameBuf()
		*buf = AppendDataSeq(*buf, fld, 2, seq, 12345, TraceContext{}, src)
		th, gotSeq, _, _, p, err := DecodeDataSeq(fld, *buf)
		if err != nil {
			t.Fatal(err)
		}
		links.ObserveFrame("parent", th, gotSeq, len(*buf), 12345)
		links.ObservePacket("parent", true)
		p.Release()
		rlnc.PutFrameBuf(buf)
		seq = (seq + 1) % SeqMod
	}
	// Warm the pools and the per-peer ledger outside the measured runs.
	for i := 0; i < 16; i++ {
		hot()
	}
	if allocs := testing.AllocsPerRun(200, hot); allocs != 0 {
		t.Fatalf("link-accounting hot path allocates %.1f objects per frame, want 0", allocs)
	}
}

// dataTestPackets returns, for fld, coded packets at the GF(2) bit-packing
// edges (coefficient counts straddling byte boundaries) and a systematic
// packet for each count.
func dataTestPackets(fld gf.Field) []*rlnc.Packet {
	max := uint16(1)
	if fld.Bits() == 8 {
		max = 255
	} else if fld.Bits() == 16 {
		max = 65535
	}
	var packets []*rlnc.Packet
	for _, n := range []int{1, 7, 8, 9, 16, 33} {
		coeff := make([]uint16, n)
		for i := range coeff {
			coeff[i] = uint16(i*31+1) & max
		}
		packets = append(packets, &rlnc.Packet{Gen: uint32(n), Coeff: coeff, Payload: []byte("payload-bytes")})
		unit := make([]uint16, n)
		unit[n-1] = 1
		packets = append(packets, &rlnc.Packet{Gen: uint32(n), Coeff: unit, Sys: true, SysIdx: uint16(n - 1), Payload: []byte("sys-bytes")})
	}
	return packets
}

// checkDataRoundTrip encodes p with (seq, stamp, tc) on thread 5 and
// checks the frame classifies as data and decodes to exactly what went in.
func checkDataRoundTrip(t *testing.T, fld gf.Field, seq int32, stamp int64, tc TraceContext, p *rlnc.Packet) {
	t.Helper()
	frame := AppendDataSeq(nil, fld, 5, seq, stamp, tc, p)
	if !IsData(frame) || !DataPlaneFrame(frame) || IsKeepalive(frame) {
		t.Fatalf("field %d: data frame misclassified", fld.Bits())
	}
	if seq < 0 && frame[1]&0x80 != 0 {
		t.Fatalf("field %d: seq<0 frame has the seq flag set", fld.Bits())
	}
	th, gotSeq, gotStamp, gotTC, q, err := DecodeDataSeq(fld, frame)
	if err != nil {
		t.Fatalf("field %d n=%d seq=%d stamp=%d tc=%+v: %v", fld.Bits(), len(p.Coeff), seq, stamp, tc, err)
	}
	if th != 5 || gotSeq != seq || gotStamp != stamp || gotTC != tc {
		t.Fatalf("field %d: got th=%d seq=%d stamp=%d tc=%+v, want 5/%d/%d/%+v",
			fld.Bits(), th, gotSeq, gotStamp, gotTC, seq, stamp, tc)
	}
	if !samePacket(p, q) {
		t.Fatalf("field %d n=%d sys=%v: packet mismatch", fld.Bits(), len(p.Coeff), p.Sys)
	}
}

// TestDataRoundTripAllFields pins the data-frame codec across the three
// fields for coded packets at the GF(2) bit-packing edges and systematic
// packets, with and without a sequence number and a stamp.
func TestDataRoundTripAllFields(t *testing.T) {
	t.Parallel()
	for _, fld := range []gf.Field{gf.F2, gf.F256, gf.F65536} {
		for _, p := range dataTestPackets(fld) {
			for _, seq := range []int32{-1, 0, SeqMod - 1} {
				for _, stamp := range []int64{0, 42} {
					checkDataRoundTrip(t, fld, seq, stamp, TraceContext{}, p)
				}
			}
		}
	}
}

// TestDataRoundTripTraced pins the traced layout across the three fields:
// the context survives exactly (including the ID and hop extremes, and a
// zero stamp, which the traced layout carries verbatim) with and without a
// sequence number, and the two malformed shapes — truncated context, zero
// trace ID — are rejected as errors rather than mis-read as another layout.
func TestDataRoundTripTraced(t *testing.T) {
	t.Parallel()
	for _, fld := range []gf.Field{gf.F2, gf.F256, gf.F65536} {
		packets := dataTestPackets(fld)
		for _, p := range packets {
			for _, tc := range []TraceContext{{ID: 1, Hop: 1}, {ID: ^uint64(0), Hop: 255}, {ID: 0xdeadbeefcafe, Hop: 0}} {
				for _, seq := range []int32{-1, 0, SeqMod - 1} {
					for _, stamp := range []int64{0, 42} {
						checkDataRoundTrip(t, fld, seq, stamp, tc, p)
					}
				}
			}
		}
		if _, _, _, _, _, err := DecodeDataSeq(fld, []byte{4, 0, 3, 1, 2}); err == nil {
			t.Fatalf("field %d: truncated traced frame accepted", fld.Bits())
		}
		zero := append([]byte{4, 0, 3}, make([]byte, 17)...)
		zero = packets[0].AppendTo(zero, fld)
		if _, _, _, _, _, err := DecodeDataSeq(fld, zero); err == nil {
			t.Fatalf("field %d: zero-trace-id frame accepted", fld.Bits())
		}
	}
}

// TestDataRoundTripSeq pins the sequence number across the three fields
// and every header combination (plain, stamped, traced): it survives
// exactly, including the wrap-point extremes; seq < 0 leaves the flag bit
// clear; and a seq-flagged frame whose body ends before the 3 seq bytes is
// malformed, not mis-read as an unstamped frame.
func TestDataRoundTripSeq(t *testing.T) {
	t.Parallel()
	for _, fld := range []gf.Field{gf.F2, gf.F256, gf.F65536} {
		coded := &rlnc.Packet{Gen: 7, Coeff: []uint16{1, 0, 1, 1}, Payload: []byte("seq-payload")}
		sys := &rlnc.Packet{Gen: 7, Coeff: []uint16{0, 0, 1, 0}, Sys: true, SysIdx: 2, Payload: []byte("seq-sys")}
		for _, p := range []*rlnc.Packet{coded, sys} {
			for _, seq := range []int32{-1, 0, 1, 1 << 12, SeqMod - 1} {
				for _, stamp := range []int64{0, 42} {
					for _, tc := range []TraceContext{{}, {ID: 0xabc, Hop: 3}} {
						checkDataRoundTrip(t, fld, seq, stamp, tc, p)
					}
				}
			}
		}
		if _, _, _, _, _, err := DecodeDataSeq(fld, []byte{0, 0x80, 5, 1, 2}); err == nil {
			t.Fatalf("field %d: truncated seq frame accepted", fld.Bits())
		}
	}
}

// TestKeepaliveRoundTrip pins the keepalive codec: a plain beat, a probe
// and an echo each round-trip and classify as exactly one of neither,
// probe or echo; trailing bytes are tolerated; anything shorter than the
// 27-byte layout — down to a bare kind byte — is rejected, as is another
// frame kind.
func TestKeepaliveRoundTrip(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name        string
		in          KeepaliveInfo
		probe, echo bool
	}{
		{"beat", KeepaliveInfo{Thread: 7}, false, false},
		{"probe", KeepaliveInfo{Thread: 7, TxNanos: 123456789}, true, false},
		{"echo", KeepaliveInfo{Thread: 7, EchoNanos: 123456789, HoldNanos: 42}, false, true},
		{"widest-thread", KeepaliveInfo{Thread: 65535, TxNanos: 1}, true, false},
	} {
		frame := EncodeKeepalive(c.in.Thread, c.in.TxNanos, c.in.EchoNanos, c.in.HoldNanos)
		if !IsKeepalive(frame) || !DataPlaneFrame(frame) || IsData(frame) {
			t.Fatalf("%s: keepalive misclassified", c.name)
		}
		long := append(slices.Clip(frame), 0xff, 0xee)
		for _, f := range [][]byte{frame, long} {
			ki, err := DecodeKeepalive(f)
			if err != nil || ki != c.in {
				t.Fatalf("%s (%d bytes): decoded %+v err=%v, want %+v", c.name, len(f), ki, err, c.in)
			}
			if ki.IsProbe() != c.probe || ki.IsEcho() != c.echo {
				t.Fatalf("%s: probe=%v echo=%v, want %v/%v", c.name, ki.IsProbe(), ki.IsEcho(), c.probe, c.echo)
			}
		}
		for n := range keepaliveLen {
			if _, err := DecodeKeepalive(frame[:n]); err == nil {
				t.Fatalf("%s: %d-byte keepalive accepted", c.name, n)
			}
		}
	}
	notKA := append([]byte{frameData}, make([]byte, keepaliveLen)...)
	if _, err := DecodeKeepalive(notKA); err == nil {
		t.Fatal("data frame decoded as a keepalive")
	}
}
