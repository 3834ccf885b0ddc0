//go:build linux

package main

import (
	"context"
	"sync"
	"time"

	"ncast/internal/protocol"
	"ncast/internal/transport"
)

// Control message types as they appear on the wire (protocol.MsgType
// values, which the protocol package fixes as wire format).
const (
	msgHello   = int(protocol.MsgHello)
	msgWelcome = int(protocol.MsgWelcome)
	msgGoodbye = int(protocol.MsgGoodbye)
	msgLease   = int(protocol.MsgLease)
	msgStats   = int(protocol.MsgStatsReport)
	msgTypes   = 32
)

// ctrlType returns the message type of a control frame without decoding
// its JSON: EncodeControl writes the kind byte then `{"t":<type>,...`.
// It returns 0 for anything else.
func ctrlType(b []byte) int {
	const prefix = `{"t":`
	if len(b) < 1+len(prefix)+1 || b[0] != 1 || string(b[1:1+len(prefix)]) != prefix {
		return 0
	}
	t := 0
	for _, c := range b[1+len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		t = t*10 + int(c-'0')
	}
	if t >= msgTypes {
		return 0
	}
	return t
}

// dataThread reads the thread index from a data frame header (the top
// bit of the thread word flags a sequence number).
func dataThread(b []byte) int {
	if len(b) < 3 {
		return -1
	}
	return int(uint16(b[1])<<8|uint16(b[2])) &^ 0x8000
}

// isSysFrame reports whether a data frame carries a systematic packet:
// bit 31 of the rlnc length word, after the data-frame header (kind,
// thread word, optional sequence number, the stamped or traced
// variant's fields) and the packet's generation and coefficient count.
func isSysFrame(b []byte) bool {
	if len(b) < 3 {
		return false
	}
	off := 3
	if b[1]&0x80 != 0 {
		off += 3
	}
	switch b[0] {
	case 3: // stamped
		off += 8
	case 4: // traced
		off += 17
	}
	off += 4 + 2
	return len(b) > off && b[off]&0x80 != 0
}

// ctrlOp is one membership operation as the tracker received it, in
// arrival order — the sequence the curtain replay re-executes.
type ctrlOp struct {
	hello  bool
	addr   string
	window bool // inside the measured churn window
}

// recorder is the recording transport.Endpoint decorator the traced run
// wraps around every endpoint it hands to NewSource, NewNode and
// NewTracker. It times Send (busy time, errors) and Recv (wait time),
// classifies frames by kind and size, and derives the node's handling
// span: with inline decoding a node's receive loop is single-threaded,
// so the gap from a data frame's Recv return to the next Recv call is
// the node handling that frame, and data-frame Sends inside the gap are
// its child spans.
type recorder struct {
	inner transport.Endpoint
	node  bool // a client node: handling spans and capture apply

	mu sync.Mutex

	dataSend     dist
	dataSendErrs int
	ctrlSend     dist
	recvWait     dist // Recv calls that returned a data frame
	recvSys      int64
	sentBytes    [3]int64
	sentFrames   [3]int64
	recvBytes    [3]int64
	recvFrames   [3]int64

	// node handling span state
	inHandle    bool
	handleStart time.Time
	childSend   time.Duration
	handle      dist
	handleSelf  dist

	// source pump rounds (server endpoint): a round restarts when the
	// thread index of consecutive data sends stops increasing.
	lastThread int
	roundStart time.Time
	roundGap   dist

	// frame capture for the offline replay (one node)
	capture  bool
	welcomed bool
	captured [][]byte

	// tracker side; window gates the control tallies (always open on
	// data workloads, the churn window on ctrl-churn)
	window      bool
	ctrlIn      [msgTypes]int64
	ctrlSamples [msgTypes][][]byte
	helloRecv   map[string]time.Time
	welcomeSent map[string]time.Time
	admit       dist
	ops         []ctrlOp
	tracker     bool
}

// frame kinds for the byte/frame tallies
const (
	kindData = iota
	kindKeepalive
	kindCtrl
)

func frameKind(b []byte) int {
	switch {
	case protocol.IsData(b):
		return kindData
	case protocol.IsKeepalive(b):
		return kindKeepalive
	default:
		return kindCtrl
	}
}

// ctrlSampleCap bounds the control frames kept per type for the decode
// replay.
const ctrlSampleCap = 4096

func newRecorder(inner transport.Endpoint) *recorder {
	return &recorder{inner: inner, lastThread: -1, window: true}
}

func newTrackerRecorder(inner transport.Endpoint) *recorder {
	r := newRecorder(inner)
	r.tracker = true
	r.helloRecv = make(map[string]time.Time)
	r.welcomeSent = make(map[string]time.Time)
	return r
}

func (r *recorder) Addr() string { return r.inner.Addr() }
func (r *recorder) Close() error { return r.inner.Close() }

func (r *recorder) Send(ctx context.Context, to string, msg []byte) error {
	start := time.Now()
	err := r.inner.Send(ctx, to, msg)
	end := time.Now()
	d := end.Sub(start)
	k := frameKind(msg)

	r.mu.Lock()
	defer r.mu.Unlock()
	r.sentFrames[k]++
	r.sentBytes[k] += int64(len(msg))
	switch k {
	case kindData:
		r.dataSend.addDur(d)
		if err != nil {
			r.dataSendErrs++
		}
		if r.inHandle {
			r.childSend += d
		}
		if th := dataThread(msg); th <= r.lastThread || r.roundStart.IsZero() {
			if !r.roundStart.IsZero() {
				r.roundGap.addDur(start.Sub(r.roundStart))
			}
			r.roundStart = start
		}
		r.lastThread = dataThread(msg)
	case kindCtrl:
		if !r.window {
			break
		}
		r.ctrlSend.addDur(d)
		if r.tracker && ctrlType(msg) == msgWelcome {
			if _, dup := r.welcomeSent[to]; !dup {
				r.welcomeSent[to] = end
				if t0, ok := r.helloRecv[to]; ok {
					r.admit.addDur(end.Sub(t0))
				}
			}
		}
	}
	return err
}

func (r *recorder) Recv(ctx context.Context) (string, []byte, error) {
	start := time.Now()
	r.mu.Lock()
	if r.inHandle {
		span := start.Sub(r.handleStart)
		r.handle.addDur(span)
		r.handleSelf.addDur(span - r.childSend)
		r.inHandle = false
	}
	r.mu.Unlock()

	from, msg, err := r.inner.Recv(ctx)
	if err != nil {
		return from, msg, err
	}
	end := time.Now()
	k := frameKind(msg)

	r.mu.Lock()
	defer r.mu.Unlock()
	r.recvFrames[k]++
	r.recvBytes[k] += int64(len(msg))
	switch k {
	case kindData:
		r.recvWait.addDur(end.Sub(start))
		if isSysFrame(msg) {
			r.recvSys++
		}
		if r.node {
			r.inHandle = true
			r.handleStart = end
			r.childSend = 0
			if r.capture && r.welcomed {
				r.captured = append(r.captured, append([]byte(nil), msg...))
			}
		}
	case kindCtrl:
		t := ctrlType(msg)
		if r.node && t == msgWelcome {
			r.welcomed = true
		}
		if r.tracker {
			if r.window {
				r.ctrlIn[t]++
				if len(r.ctrlSamples[t]) < ctrlSampleCap {
					r.ctrlSamples[t] = append(r.ctrlSamples[t], append([]byte(nil), msg...))
				}
			}
			switch t {
			case msgHello:
				if _, seen := r.helloRecv[from]; !seen {
					r.helloRecv[from] = end
					r.ops = append(r.ops, ctrlOp{hello: true, addr: from, window: r.window})
				}
			case msgGoodbye:
				r.ops = append(r.ops, ctrlOp{addr: from, window: r.window})
			}
		}
	}
	return from, msg, nil
}

// tally sums [frames, bytes] by direction and frame kind over recorders.
func tally(recs ...*recorder) map[string]map[string][2]int64 {
	names := [3]string{kindData: "data", kindKeepalive: "keepalive", kindCtrl: "ctrl"}
	out := map[string]map[string][2]int64{"sent": {}, "recv": {}}
	for _, r := range recs {
		for k, name := range names {
			s, v := out["sent"][name], out["recv"][name]
			s[0], s[1] = s[0]+r.sentFrames[k], s[1]+r.sentBytes[k]
			v[0], v[1] = v[0]+r.recvFrames[k], v[1]+r.recvBytes[k]
			out["sent"][name], out["recv"][name] = s, v
		}
	}
	return out
}

// setWindow opens or closes the tracker's counting window.
func (r *recorder) setWindow(on bool) {
	r.mu.Lock()
	r.window = on
	r.mu.Unlock()
}

// helloRecvAt and welcomeSentAt read the tracker-side stamps for addr.
func (r *recorder) helloRecvAt(addr string) (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.helloRecv[addr]
	return t, ok
}

func (r *recorder) welcomeSentAt(addr string) (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.welcomeSent[addr]
	return t, ok
}
