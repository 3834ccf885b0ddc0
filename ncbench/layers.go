//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"ncast/internal/core"
	"ncast/internal/gf"
	"ncast/internal/protocol"
	"ncast/internal/rlnc"
	"ncast/internal/transport"
)

// layerUnits fixes the per-layer metric set every traced run prints; a
// layer a workload does not exercise reads 0.
var layerUnits = map[string]string{
	"rlnc.eliminate_ns":               "ns",
	"rlnc.eliminate_ns.innovative":    "ns",
	"rlnc.eliminate_ns.redundant":     "ns",
	"rlnc.install_ns":                 "ns",
	"rlnc.recode_ns":                  "ns",
	"rlnc.encode_ns":                  "ns",
	"node.redundant_frac":             "ratio",
	"node.handle_ns":                  "ns",
	"node.handle_self_ns":             "ns",
	"node.content_ms_per_mib":         "ms/MiB",
	"protocol.frame_decode_ns":        "ns",
	"protocol.frame_encode_ns":        "ns",
	"source.round_us":                 "us",
	"transport.data.send_ns":          "ns",
	"transport.data.recv_wait_ns":     "ns",
	"transport.data.send_err_frac":    "ratio",
	"transport.ctrl.send_ns":          "ns",
	"tracker.admit_ns.p50":            "ns",
	"tracker.admit_ns.p99":            "ns",
	"protocol.ctrl_decode_ns.hello":   "ns",
	"protocol.ctrl_decode_ns.goodbye": "ns",
	"protocol.ctrl_decode_ns.lease":   "ns",
	"protocol.ctrl_decode_ns.stats":   "ns",
	"core.hello_ns":                   "ns",
	"core.goodbye_ns":                 "ns",
	"tracker.admit_batch_mean":        "count",
	"tracker.ctrl_in_per_s.hello":     "1/s",
	"tracker.ctrl_in_per_s.goodbye":   "1/s",
	"tracker.ctrl_in_per_s.lease":     "1/s",
	"tracker.ctrl_in_per_s.stats":     "1/s",
	"harness.hello_deliver_ns":        "ns",
	"harness.welcome_deliver_ns":      "ns",
	"harness.gen_late_ms":             "ms",
	"harness.verify_s":                "s",
	"budget.accounted_frac":           "ratio",
}

func emptyLayers() map[string]metric {
	m := make(map[string]metric, len(layerUnits))
	for k, u := range layerUnits {
		m[k] = metric{0, u}
	}
	return m
}

// budget splits the traced window's process CPU into layer busy times:
// per-op times from the offline replay multiplied by live op counts, plus
// spans the harness times itself (Content calls). Live Send and handling
// spans from the recorders are wall time — blocking on full queues and
// waiting for a core included — so they are kept beside the budget.
type budget struct {
	cpu       time.Duration
	parts     []budgetPart
	harn      []budgetPart
	walls     []budgetPart
	remainder string
}

type budgetPart struct {
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Source string  `json:"source"` // "live" span sums or "replay" estimates
	Ns     float64 `json:"ns"`
	Share  float64 `json:"share_of_cpu"`
}

func (b *budget) add(name, layer, source string, ns float64) {
	b.parts = append(b.parts, budgetPart{Name: name, Layer: layer, Source: source, Ns: ns})
}

func (b *budget) addHarness(name, source string, ns float64) {
	b.harn = append(b.harn, budgetPart{Name: name, Layer: "harness", Source: source, Ns: ns})
}

// wall records a live span sum shown beside the budget: wall time, which
// includes blocking and run-queue waits, so it is not a CPU share.
func (b *budget) wall(name string, ns float64) {
	b.walls = append(b.walls, budgetPart{Name: name, Source: "live wall", Ns: ns})
}

func (b *budget) accountedFrac() float64 {
	if b.cpu <= 0 {
		return 0
	}
	sum := 0.0
	for _, p := range b.parts {
		sum += p.Ns
	}
	return sum / float64(b.cpu.Nanoseconds())
}

func (b *budget) report(workload string) map[string]interface{} {
	cpu := float64(b.cpu.Nanoseconds())
	share := func(ps []budgetPart) []budgetPart {
		out := append([]budgetPart(nil), ps...)
		for i := range out {
			if cpu > 0 {
				out[i].Share = out[i].Ns / cpu
			}
		}
		return out
	}
	acc := b.accountedFrac()
	harn := 0.0
	for _, p := range b.harn {
		harn += p.Ns
	}
	return map[string]interface{}{
		"workload":         workload,
		"process_cpu_s":    b.cpu.Seconds(),
		"system_layers":    share(b.parts),
		"harness":          share(b.harn),
		"accounted_frac":   acc,
		"harness_frac":     harn / cpu,
		"unaccounted_frac": 1 - acc - harn/cpu,
		"unaccounted":      b.remainder,
		"wall_spans":       b.walls,
	}
}

// nodeReplay is the per-op timing of one node's captured inbound frames
// pushed back through the public layer functions.
type nodeReplay struct {
	decode, install, elimInnov, elimRedund, recode, encode dist
	innovative, redundant                                  uint64
}

// replayNode re-executes a node's data path on its captured frames:
// DecodeDataSeq, Recoder.Add, Recoder.Packet and AppendDataSeq, timing
// each call. Its self-check demands the live node's innovative/redundant
// split, full rank on every generation and the source's bytes back;
// otherwise the timings describe work the live run did not do.
func replayNode(frames [][]byte, f gf.Field, params rlnc.Params, content []byte, liveInnov, liveRedund uint64) (*nodeReplay, error) {
	r := &nodeReplay{}
	gens := params.Generations(len(content))
	recoders := make(map[uint32]*rlnc.Recoder, gens)
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 0, 2048)
	for _, fr := range frames {
		t0 := time.Now()
		th, seq, emit, tc, p, err := protocol.DecodeDataSeq(f, fr)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("decode captured frame: %w", err)
		}
		r.decode.addDur(t1.Sub(t0))
		rc, ok := recoders[p.Gen]
		if !ok {
			if rc, err = rlnc.NewRecoder(f, p.Gen, params.GenSize, params.PacketSize); err != nil {
				return nil, err
			}
			recoders[p.Gen] = rc
		}
		sys := p.Sys
		t0 = time.Now()
		innov, err := rc.Add(p)
		t1 = time.Now()
		p.Release()
		if err != nil {
			return nil, fmt.Errorf("add captured packet: %w", err)
		}
		switch {
		case sys && innov:
			r.install.addDur(t1.Sub(t0))
		case innov:
			r.elimInnov.addDur(t1.Sub(t0))
		default:
			r.elimRedund.addDur(t1.Sub(t0))
		}
		if innov {
			r.innovative++
		} else {
			r.redundant++
		}
		t0 = time.Now()
		out, ok := rc.Packet(rng)
		t1 = time.Now()
		if !ok {
			continue
		}
		r.recode.addDur(t1.Sub(t0))
		t0 = time.Now()
		buf = protocol.AppendDataSeq(buf[:0], f, th, seq, emit, tc, out)
		t1 = time.Now()
		r.encode.addDur(t1.Sub(t0))
		out.Release()
	}
	if r.innovative != liveInnov || r.redundant != liveRedund {
		return nil, fmt.Errorf("replay split innovative/redundant %d/%d, live node %d/%d",
			r.innovative, r.redundant, liveInnov, liveRedund)
	}
	var got []byte
	for g := 0; g < gens; g++ {
		rc, ok := recoders[uint32(g)]
		if !ok || !rc.Complete() {
			return nil, fmt.Errorf("replay: generation %d not at full rank", g)
		}
		src, err := rc.Decode()
		if err != nil {
			return nil, err
		}
		for _, pkt := range src {
			got = append(got, pkt...)
		}
	}
	if !bytes.Equal(got[:len(content)], content) {
		return nil, fmt.Errorf("replay: decoded bytes differ from the source")
	}
	return r, nil
}

// replayEncode times the source's encoder on its own content: every
// generation's systematic packets, then coded packets.
func replayEncode(params rlnc.Params, content []byte) (sys, coded dist, err error) {
	fe, err := rlnc.NewFileEncoder(params, content)
	if err != nil {
		return sys, coded, err
	}
	rng := rand.New(rand.NewSource(2))
	for g := 0; g < fe.NumGenerations(); g++ {
		for i := 0; i < params.GenSize; i++ {
			t0 := time.Now()
			p, err := fe.Systematic(g, i)
			sys.addDur(time.Since(t0))
			if err != nil {
				return sys, coded, err
			}
			p.Release()
		}
		for i := 0; i < 2; i++ {
			t0 := time.Now()
			p, err := fe.Packet(g, rng)
			coded.addDur(time.Since(t0))
			if err != nil {
				return sys, coded, err
			}
			p.Release()
		}
	}
	return sys, coded, nil
}

// replayCtrlDecode decodes the captured control frames as the tracker
// does (DecodeControl, then json.Unmarshal into the message type), timing
// each, and times re-encoding them with EncodeControl — the cost a
// sender of that message pays.
func replayCtrlDecode(samples *[msgTypes][][]byte) (map[int]*dist, *dist, error) {
	dec := make(map[int]*dist)
	enc := &dist{}
	for _, t := range []int{msgHello, msgGoodbye, msgLease, msgStats} {
		d := &dist{}
		dec[t] = d
		for _, fr := range samples[t] {
			t0 := time.Now()
			typ, payload, err := protocol.DecodeControl(fr)
			if err != nil || int(typ) != t {
				return nil, nil, fmt.Errorf("control replay: frame of type %d: %v", t, err)
			}
			var v interface{}
			switch t {
			case msgHello:
				v = &protocol.Hello{}
			case msgGoodbye:
				v = &protocol.Goodbye{}
			case msgLease:
				v = &protocol.Lease{}
			case msgStats:
				v = &protocol.StatsReport{}
			}
			if err := json.Unmarshal(payload, v); err != nil {
				return nil, nil, fmt.Errorf("control replay: unmarshal type %d: %w", t, err)
			}
			d.addDur(time.Since(t0))
			t0 = time.Now()
			if _, err := protocol.EncodeControl(typ, v); err != nil {
				return nil, nil, err
			}
			enc.addDur(time.Since(t0))
		}
	}
	return dec, enc, nil
}

// replayTransport pushes frames one at a time through a fresh endpoint
// pair of the workload's plane (in-memory fabric, or UDP on loopback),
// timing each Send with its matching Recv. One frame per hand-off means
// no syscall batching, so on UDP this is an upper bound per frame.
func replayTransport(frames [][]byte, udp bool) (*dist, error) {
	var a, b transport.Endpoint
	if udp {
		ua, err := transport.ListenUDP("127.0.0.1:0", transport.UDPConfig{})
		if err != nil {
			return nil, err
		}
		defer ua.Close()
		ub, err := transport.ListenUDP("127.0.0.1:0", transport.UDPConfig{})
		if err != nil {
			return nil, err
		}
		defer ub.Close()
		a, b = ua, ub
	} else {
		net := transport.NewNetwork()
		defer net.Close()
		var err error
		if a, err = net.Endpoint("a"); err != nil {
			return nil, err
		}
		if b, err = net.Endpoint("b"); err != nil {
			return nil, err
		}
	}
	if len(frames) > transportReplayCap {
		frames = frames[:transportReplayCap]
	}
	d := &dist{}
	for _, fr := range frames {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		t0 := time.Now()
		err := a.Send(ctx, b.Addr(), fr)
		if err == nil {
			_, _, err = b.Recv(ctx)
		}
		el := time.Since(t0)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("transport replay: %w", err)
		}
		d.addDur(el)
	}
	return d, nil
}

// transportReplayCap bounds the frames pushed through the transport
// replay; the per-frame mean settles long before.
const transportReplayCap = 8192

// replayCurtain re-executes the tracker's curtain operations for the
// captured membership sequence on a fresh core.Curtain with the
// tracker's seed — JoinDegree/Threads/Parents per hello, Threads/Parents/
// ThreadChildren/Leave per goodbye — timing the ops inside the window.
// The result must equal the live tracker's matrix byte for byte.
func replayCurtain(ops []ctrlOp, k, d int, seed int64, mode core.InsertMode, want string) (hello, goodbye dist, err error) {
	c, err := core.New(k, d, rand.New(rand.NewSource(seed)), core.WithInsertMode(mode))
	if err != nil {
		return hello, goodbye, err
	}
	ids := make(map[string]core.NodeID)
	for _, op := range ops {
		if op.hello {
			if _, dup := ids[op.addr]; dup {
				continue
			}
			t0 := time.Now()
			id, err := c.JoinDegree(d)
			if err == nil {
				_, err = c.Threads(id)
			}
			if err == nil {
				_, err = c.Parents(id)
			}
			el := time.Since(t0)
			if err != nil {
				return hello, goodbye, fmt.Errorf("curtain replay hello: %w", err)
			}
			ids[op.addr] = id
			if op.window {
				hello.addDur(el)
			}
			continue
		}
		id, ok := ids[op.addr]
		if !ok {
			continue // a retried goodbye whose row is already gone
		}
		t0 := time.Now()
		_, err := c.Threads(id)
		if err == nil {
			_, err = c.Parents(id)
		}
		if err == nil {
			_, err = c.ThreadChildren(id)
		}
		if err == nil {
			err = c.Leave(id)
		}
		el := time.Since(t0)
		if err != nil {
			return hello, goodbye, fmt.Errorf("curtain replay goodbye: %w", err)
		}
		delete(ids, op.addr)
		if op.window {
			goodbye.addDur(el)
		}
	}
	if got := c.MatrixString(); got != want {
		return hello, goodbye, fmt.Errorf("curtain replay: matrix differs from the live tracker (%d vs %d rows)",
			c.NumNodes(), bytes.Count([]byte(want), []byte("\n")))
	}
	return hello, goodbye, nil
}
