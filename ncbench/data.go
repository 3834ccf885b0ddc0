//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"time"

	"ncast"
	"ncast/internal/core"
	"ncast/internal/obs"
	"ncast/internal/protocol"
	"ncast/internal/transport"
)

// dataSpec is one broadcast workload: a server, a fixed set of clients,
// and content and loss coins derived from the seed, broadcast repeatedly
// until the measurement window is spent.
type dataSpec struct {
	name         string
	udp          bool
	clients      int
	contentBytes int
	loss         float64
	// setupRounds are extra start-to-all-admitted rounds (no broadcast)
	// that feed setup_s and the admission percentiles; they also warm the
	// allocator and packet pools before the first timed broadcast.
	setupRounds int
	config      func() ncast.Config
}

var memSpec = dataSpec{
	name:         "mem-relay-lossy",
	clients:      8,
	contentBytes: 32 << 20,
	loss:         0.05,
	setupRounds:  20,
	config: func() ncast.Config {
		cfg := ncast.DefaultConfig()
		for _, o := range []ncast.Option{
			ncast.WithKD(16, 4),
			ncast.WithField(ncast.GF256),
			ncast.WithGeneration(32, 1024),
			ncast.WithSourceInterval(0),
			ncast.WithDecodeWorkers(0),
			ncast.WithDatagramData(),
			ncast.WithSeed(topologySeed),
		} {
			o(&cfg)
		}
		return cfg
	},
}

var udpSpec = dataSpec{
	name:         "udp-loopback",
	udp:          true,
	clients:      2,
	contentBytes: 16 << 20,
	setupRounds:  30,
	config: func() ncast.Config {
		cfg := ncast.DefaultConfig()
		ncast.WithDatagramData()(&cfg)
		ncast.WithSeed(topologySeed)(&cfg)
		return cfg
	},
}

func (s dataSpec) params(seconds int) map[string]interface{} {
	cfg := s.config()
	return map[string]interface{}{
		"transport":       map[bool]string{false: "in-memory fabric, datagram data plane", true: "TCP control + UDP data on 127.0.0.1"}[s.udp],
		"k":               cfg.K,
		"d":               cfg.D,
		"field_bits":      map[ncast.Field]int{ncast.GF2: 1, ncast.GF256: 8, ncast.GF65536: 16}[cfg.Field],
		"generation":      cfg.GenSize,
		"packet":          cfg.PacketSize,
		"clients":         s.clients,
		"content_bytes":   s.contentBytes,
		"loss":            s.loss,
		"source_interval": cfg.SourceInterval.String(),
		"systematic":      cfg.Systematic,
		"decode_workers":  cfg.DecodeWorkers,
		"setup_rounds":    s.setupRounds,
		"window_s":        seconds,
		"loop":            "closed: back-to-back broadcasts, each to all clients",
	}
}

// peer is the client surface the harness drives; both ncast.Client and
// protocol.Node provide it.
type peer interface {
	Completed() <-chan struct{}
	Content() ([]byte, error)
}

// instance is one live broadcast: server up, every client admitted.
type instance struct {
	peers    []peer
	joinedAt []time.Time
	admits   []time.Duration
	setup    time.Duration
	close    func()
	// traced stacks only
	tr *tracedData
}

// broadcastDeadline bounds one broadcast; a client still incomplete by
// then counts as failed.
const broadcastDeadline = 60 * time.Second

// roundResult is one broadcast's measurements.
type roundResult struct {
	window  time.Duration
	cpu     time.Duration
	ttc     []time.Duration
	content []time.Duration
	failed  int
	verify  time.Duration
	heap    float64 // live heap MiB at completion, before teardown
}

func makeContent(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b) //nolint:errcheck // never fails
	return b
}

func (s dataSpec) run(seed int64, seconds int, traced bool) (*outcome, error) {
	content := makeContent(seed, s.contentBytes)
	out := &outcome{e2e: make(map[string]metric)}

	var setups []float64
	var admits dist
	note := func(inst *instance) {
		setups = append(setups, inst.setup.Seconds())
		for _, a := range inst.admits {
			admits.addDur(a)
		}
	}
	round := 0
	for ; round < s.setupRounds; round++ {
		inst, err := s.start(content, seed, round, false)
		if err != nil {
			return nil, err
		}
		note(inst)
		inst.close()
	}
	// Warm-up broadcast of an eighth of the content: lazy pools, heap
	// growth and page faults are paid here, not in the first timed round.
	warm, err := s.start(content[:len(content)/8], seed, round, false)
	if err != nil {
		return nil, err
	}
	round++
	if r := s.broadcast(warm, content[:len(content)/8]); r.failed > 0 {
		out.fail("warm-up broadcast: %d clients failed", r.failed)
	}

	var goodputs []float64
	var ttc, contentDur dist
	var cpu time.Duration
	var delivered, heap float64
	var verify time.Duration
	var last *tracedData
	var lastRound roundResult
	start := time.Now()
	for time.Since(start) < time.Duration(seconds)*time.Second {
		inst, err := s.start(content, seed, round, traced)
		if err != nil {
			return nil, err
		}
		round++
		note(inst)
		r := s.broadcast(inst, content)
		out.attempted += s.clients
		out.failed += r.failed
		goodputs = append(goodputs, float64(s.clients*len(content))/r.window.Seconds()/1e6)
		for _, t := range r.ttc {
			ttc.addDur(t)
		}
		for _, t := range r.content {
			contentDur.addDur(t)
		}
		cpu += r.cpu
		heap = math.Max(heap, r.heap)
		delivered += float64(s.clients * len(content))
		verify += r.verify
		if traced {
			if last != nil {
				last.release()
			}
			last, lastRound = inst.tr, r
		}
	}
	mib := delivered / (1 << 20)
	out.e2e["setup_s"] = metric{median(setups), "s"}
	out.e2e["goodput_mbps"] = metric{median(goodputs), "MB/s"}
	out.e2e["ttc_p50_s"] = metric{ttc.quantile(0.5) / 1e9, "s"}
	out.e2e["cpu_ms_per_mib"] = metric{ms(cpu) / mib, "ms/MiB"}
	out.e2e["heap_peak_mib"] = metric{heap, "MiB"}
	printJSON("samples", map[string]interface{}{
		"traced": traced, "broadcasts": len(goodputs), "ttc": ttc.n(),
		"admissions": admits.n(), "setups": len(setups),
		"admit_ladder_ms": ladder(&admits), "goodputs_mbps": goodputs,
	})
	if traced && last != nil {
		out.layers, out.budget = last.layers(content, lastRound, &contentDur, out)
		out.layers["harness.verify_s"] = metric{verify.Seconds(), "s"}
	}
	return out, nil
}

// broadcast waits for every client's Content, timing from the end of
// set-up, then tears the instance down and verifies the bytes.
func (s dataSpec) broadcast(inst *instance, content []byte) roundResult {
	var r roundResult
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := time.NewTimer(broadcastDeadline)
	defer deadline.Stop()

	// One harness goroutine waits on every completion channel and calls
	// Content as each client finishes.
	got := make([][]byte, len(inst.peers))
	cases := make([]reflect.SelectCase, 0, len(inst.peers)+1)
	idx := make([]int, 0, len(inst.peers))
	for i, p := range inst.peers {
		cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(p.Completed())})
		idx = append(idx, i)
	}
	cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(deadline.C)})
	end := t0
	for len(idx) > 0 {
		chosen, _, _ := reflect.Select(cases)
		if chosen == len(cases)-1 {
			end = time.Now()
			break
		}
		i := idx[chosen]
		c0 := time.Now()
		b, err := inst.peers[i].Content()
		end = time.Now()
		if err == nil {
			got[i] = b
			r.ttc = append(r.ttc, end.Sub(inst.joinedAt[i]))
			r.content = append(r.content, end.Sub(c0))
		}
		cases = append(cases[:chosen], cases[chosen+1:]...)
		idx = append(idx[:chosen], idx[chosen+1:]...)
	}
	r.window = end.Sub(t0)
	r.cpu = cpuTime() - cpu0
	r.heap = liveHeapMiB()
	inst.close()

	v0 := time.Now()
	for _, b := range got {
		if !bytes.Equal(b, content) {
			r.failed++
		}
	}
	r.verify = time.Since(v0)
	return r
}

// start brings a server and all clients up and times it. Untraced rounds
// use the public API; traced rounds build the same stack from the
// protocol and transport packages with recording endpoints.
func (s dataSpec) start(content []byte, seed int64, round int, traced bool) (*instance, error) {
	cfg := s.config()
	netSeed := seed*1000003 + int64(round) // this round's loss coins
	if traced {
		return s.startTraced(content, cfg, netSeed)
	}
	inst := &instance{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t0 := time.Now()
	if !s.udp {
		sess, err := ncast.NewSession(content, cfg, ncast.WithLoss(s.loss), ncast.WithNetworkSeed(netSeed))
		if err != nil {
			return nil, err
		}
		inst.close = func() { sess.Close() } //nolint:errcheck // always nil
		for i := 0; i < s.clients; i++ {
			a := time.Now()
			c, err := sess.AddClient(ctx)
			if err != nil {
				sess.Close() //nolint:errcheck // always nil
				return nil, fmt.Errorf("add client %d: %w", i, err)
			}
			now := time.Now()
			inst.peers = append(inst.peers, c)
			inst.admits = append(inst.admits, now.Sub(a))
			inst.joinedAt = append(inst.joinedAt, now)
		}
		inst.setup = time.Since(t0)
		return inst, nil
	}
	srv, err := ncast.ListenAndServe("127.0.0.1:0", content, cfg)
	if err != nil {
		return nil, err
	}
	var clients []*ncast.RemoteClient
	inst.close = func() {
		for _, c := range clients {
			c.Close() //nolint:errcheck // teardown
		}
		srv.Close() //nolint:errcheck // teardown
	}
	for i := 0; i < s.clients; i++ {
		a := time.Now()
		c, err := ncast.Dial(ctx, srv.Addr(), "127.0.0.1:0", cfg, ncast.WithClientSeed(int64(i)+1))
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("dial client %d: %w", i, err)
		}
		now := time.Now()
		clients = append(clients, c)
		inst.peers = append(inst.peers, c)
		inst.admits = append(inst.admits, now.Sub(a))
		inst.joinedAt = append(inst.joinedAt, now)
	}
	inst.setup = time.Since(t0)
	return inst, nil
}

// tracedData is a broadcast stack assembled by hand, mirroring
// ncast.NewSession/AddClient (in-memory) or ListenAndServe/Dial (sockets),
// with a recorder around every endpoint the protocol layer sees.
type tracedData struct {
	spec    dataSpec
	cfg     ncast.Config
	reg     *obs.Registry
	server  *recorder
	nodes   []*recorder
	nodeObs []*obs.NodeMetrics
	addrs   []string
	dataObs []*obs.TransportMetrics // UDP planes: their drop-on-full counts
	tm      *obs.TrackerMetrics
	matrix  string // the tracker's matrix M at teardown
	capture int    // index of the node whose frames are captured
}

// release drops the captured frames of a stack whose numbers are not
// reported (only the last traced broadcast is analysed).
func (t *tracedData) release() {
	for _, n := range t.nodes {
		n.captured = nil
	}
}

func (s dataSpec) startTraced(content []byte, cfg ncast.Config, netSeed int64) (*instance, error) {
	params, err := protocol.SessionParams{
		FieldBits: 8, GenSize: cfg.GenSize, PacketSize: cfg.PacketSize, ContentLen: len(content),
	}.Params()
	if err != nil {
		return nil, err
	}
	td := &tracedData{spec: s, cfg: cfg, reg: obs.NewRegistry(), capture: s.clients - 1}
	inst := &instance{tr: td}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var closers []func()
	var tr *protocol.Tracker
	inst.close = func() {
		if tr != nil {
			td.matrix = tr.MatrixDump()
		}
		cancel()
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
		wg.Wait()
	}
	fail := func(err error) (*instance, error) {
		inst.close()
		return nil, err
	}

	t0 := time.Now()
	// Endpoint construction mirrors sessionEndpoint / listenEndpoint.
	var ctrlNet, dataNet *transport.Network
	if !s.udp {
		ctrlNet = transport.NewNetwork(transport.WithSeed(netSeed))
		dataNet = transport.NewNetwork(transport.WithSeed(netSeed), transport.WithLoss(s.loss))
		closers = append(closers, func() { ctrlNet.Close(); dataNet.Close() }) //nolint:errcheck // teardown
	}
	endpoint := func(addr string) (transport.Endpoint, string, error) {
		if !s.udp {
			ctrl, err := ctrlNet.Endpoint(addr)
			if err != nil {
				return nil, "", err
			}
			data, err := dataNet.Endpoint(addr)
			if err != nil {
				ctrl.Close() //nolint:errcheck // error path
				return nil, "", err
			}
			transport.Instrument(ctrl, obs.NewTransportMetricsKind(td.reg, addr, "ctrl"))
			transport.Instrument(data, obs.NewTransportMetricsKind(td.reg, addr, "data"))
			return transport.NewDual(ctrl, data, protocol.DataPlaneFrame), addr, nil
		}
		tcp, udp, err := transport.ListenSamePort(addr, transport.UDPConfig{MTU: transport.DefaultMTU})
		if err != nil {
			return nil, "", err
		}
		name := tcp.Addr()
		um := obs.NewTransportMetricsKind(td.reg, name, "udp")
		td.dataObs = append(td.dataObs, um)
		transport.Instrument(tcp, obs.NewTransportMetricsKind(td.reg, name, "tcp"))
		transport.Instrument(udp, um)
		return transport.NewDual(tcp, udp, protocol.DataPlaneFrame), name, nil
	}

	serverAddr := "server"
	if s.udp {
		serverAddr = "127.0.0.1:0"
	}
	sep, _, err := endpoint(serverAddr)
	if err != nil {
		return fail(err)
	}
	td.server = newTrackerRecorder(sep)
	closers = append(closers, func() { td.server.Close() }) //nolint:errcheck // teardown
	src, err := protocol.NewSource(td.server, cfg.K, params, content, cfg.Seed)
	if err != nil {
		return fail(err)
	}
	src.RoundInterval = cfg.SourceInterval
	src.Obs = obs.NewSourceMetrics(td.reg)
	src.Systematic = cfg.Systematic
	src.LinkSeq = cfg.DatagramData
	td.tm = obs.NewTrackerMetrics(td.reg)
	tr, err = protocol.NewTracker(td.server, src, protocol.TrackerConfig{
		K: cfg.K, D: cfg.D, Session: src.Session(), InsertMode: core.InsertMode(cfg.Insert),
		Seed: cfg.Seed, LeaseTimeout: cfg.LeaseTimeout, SendDeadline: cfg.SendDeadline,
		StatsInterval: cfg.StatsInterval,
		Obs:           td.tm, TraceObs: obs.NewTraceMetrics(td.reg), LinkObs: obs.NewLinkMetrics(td.reg),
	})
	if err != nil {
		return fail(err)
	}
	obs.NewRuntimeMetrics(td.reg)
	wg.Add(2)
	go func() { defer wg.Done(); tr.Run(ctx) }()  //nolint:errcheck // exits on cancel
	go func() { defer wg.Done(); src.Run(ctx) }() //nolint:errcheck // exits on cancel
	trackerAddr := td.server.Addr()

	for i := 0; i < s.clients; i++ {
		a := time.Now()
		addr := fmt.Sprintf("client-%d", i+1)
		if s.udp {
			addr = "127.0.0.1:0"
		}
		ep, name, err := endpoint(addr)
		if err != nil {
			return fail(err)
		}
		rec := newRecorder(ep)
		rec.node = true
		rec.capture = i == td.capture
		closers = append(closers, func() { rec.Close() }) //nolint:errcheck // teardown
		m := obs.NewNodeMetrics(td.reg, name)
		node := protocol.NewNode(rec, protocol.NodeConfig{
			TrackerAddr:      trackerAddr,
			ComplaintTimeout: cfg.ComplaintTimeout,
			Seed:             int64(i + 1),
			DecodeWorkers:    cfg.DecodeWorkers,
			LinkSeq:          cfg.DatagramData,
			Obs:              m,
		})
		wg.Add(1)
		go func() { defer wg.Done(); node.Run(ctx) }() //nolint:errcheck // exits on cancel
		select {
		case err := <-node.Joined():
			if err != nil {
				return fail(err)
			}
		case <-time.After(30 * time.Second):
			return fail(fmt.Errorf("client %d: join timed out", i))
		}
		now := time.Now()
		td.nodes = append(td.nodes, rec)
		td.nodeObs = append(td.nodeObs, m)
		td.addrs = append(td.addrs, name)
		inst.peers = append(inst.peers, node)
		inst.admits = append(inst.admits, now.Sub(a))
		inst.joinedAt = append(inst.joinedAt, now)
	}
	inst.setup = time.Since(t0)
	return inst, nil
}

// layers reports the traced run's per-layer metrics from the last traced
// broadcast: live spans from the recorders, counts from the obs registry,
// per-op costs from replaying the captured node's frames and the
// tracker's control traffic.
func (t *tracedData) layers(content []byte, r roundResult, contentDur *dist, out *outcome) (map[string]metric, *budget) {
	layers := emptyLayers()
	cfg := t.cfg
	params, err := protocol.SessionParams{
		FieldBits: 8, GenSize: cfg.GenSize, PacketSize: cfg.PacketSize, ContentLen: len(content),
	}.Params()
	if err != nil {
		out.fail("params: %v", err)
		return layers, nil
	}
	capRec, capObs := t.nodes[t.capture], t.nodeObs[t.capture]
	runtime.GC() // start the replays on a collected heap
	nr, err := replayNode(capRec.captured, params.Field, params, content, capObs.Innovative.Value(), capObs.Redundant.Value())
	if err != nil {
		out.fail("node replay: %v", err)
		return layers, nil
	}
	sysEnc, codedEnc, err := replayEncode(params, content)
	if err != nil {
		out.fail("encode replay: %v", err)
		return layers, nil
	}
	srv := t.server
	dec, _, err := replayCtrlDecode(&srv.ctrlSamples)
	if err != nil {
		out.fail("%v", err)
		return layers, nil
	}
	coreHello, coreGoodbye, err := replayCurtain(srv.ops, cfg.K, cfg.D, cfg.Seed, core.InsertMode(cfg.Insert), t.matrix)
	if err != nil {
		out.fail("%v", err)
		return layers, nil
	}

	// Live aggregates over every node, plus the source's sends.
	var handle, self, recvWait, dataSend, nodeSend, ctrlSend dist
	var sendErrs, received, redundant, emitted, addNs float64
	for i, n := range t.nodes {
		handle.merge(&n.handle)
		self.merge(&n.handleSelf)
		recvWait.merge(&n.recvWait)
		nodeSend.merge(&n.dataSend)
		ctrlSend.merge(&n.ctrlSend)
		sendErrs += float64(n.dataSendErrs)
		m := t.nodeObs[i]
		received += float64(m.Received.Value())
		redundant += float64(m.Redundant.Value())
		emitted += float64(m.Emitted.Value())
		// Each node's Adds at the replayed per-op cost of its own mix:
		// systematic installs, innovative and redundant eliminations.
		sys := float64(n.recvSys)
		addNs += sys*nr.install.mean() +
			math.Max(float64(m.Innovative.Value())-sys, 0)*nr.elimInnov.mean() +
			float64(m.Redundant.Value())*nr.elimRedund.mean()
	}
	dataSend.merge(&nodeSend)
	dataSend.merge(&srv.dataSend)
	ctrlSend.merge(&srv.ctrlSend)
	sendErrs += float64(srv.dataSendErrs)
	for _, m := range t.dataObs {
		sendErrs += float64(m.Drops.Value()) // UDP drop-on-full reports success at Send
	}

	// The source sends each generation's systematic packets first, then
	// coded ones.
	srcFrames := float64(srv.sentFrames[kindData])
	sysCount := 0.0
	if cfg.Systematic {
		sysCount = math.Min(float64(params.Generations(len(content))*params.GenSize), srcFrames)
	}
	encodeNs := sysCount*sysEnc.mean() + (srcFrames-sysCount)*codedEnc.mean()

	var elim dist
	elim.merge(&nr.elimInnov)
	elim.merge(&nr.elimRedund)
	contentMiB := float64(len(content)) / (1 << 20)
	win := r.window.Seconds()

	layers["rlnc.eliminate_ns"] = metric{elim.mean(), "ns"}
	layers["rlnc.eliminate_ns.innovative"] = metric{nr.elimInnov.mean(), "ns"}
	layers["rlnc.eliminate_ns.redundant"] = metric{nr.elimRedund.mean(), "ns"}
	layers["rlnc.install_ns"] = metric{nr.install.mean(), "ns"}
	layers["rlnc.recode_ns"] = metric{nr.recode.mean(), "ns"}
	if srcFrames > 0 {
		layers["rlnc.encode_ns"] = metric{encodeNs / srcFrames, "ns"}
	}
	if received > 0 {
		layers["node.redundant_frac"] = metric{redundant / received, "ratio"}
	}
	layers["node.handle_ns"] = metric{handle.mean(), "ns"}
	layers["node.handle_self_ns"] = metric{self.mean(), "ns"}
	layers["node.content_ms_per_mib"] = metric{contentDur.mean() / 1e6 / contentMiB, "ms/MiB"}
	layers["protocol.frame_decode_ns"] = metric{nr.decode.mean(), "ns"}
	layers["protocol.frame_encode_ns"] = metric{nr.encode.mean(), "ns"}
	layers["source.round_us"] = metric{srv.roundGap.mean() / 1e3, "us"}
	layers["transport.data.send_ns"] = metric{dataSend.mean(), "ns"}
	layers["transport.data.recv_wait_ns"] = metric{recvWait.mean(), "ns"}
	if dataSend.n() > 0 {
		layers["transport.data.send_err_frac"] = metric{sendErrs / float64(dataSend.n()), "ratio"}
	}
	setCtrlLayers(layers, srv, dec, &coreHello, &coreGoodbye, win, t.tm.AdmitBatch.Sum()/float64(t.tm.AdmitBatch.Count()))
	layers["transport.ctrl.send_ns"] = metric{ctrlSend.mean(), "ns"}

	// Budget of the last traced broadcast's window: CPU the named layers
	// cost, as replayed per-op times scaled by live op counts. Live
	// spans are wall time (they include blocking on full queues and
	// waiting for a core), so they are reported beside the budget, not in
	// it.
	var contentNs float64
	for _, c := range r.content {
		contentNs += float64(c.Nanoseconds())
	}
	wire, err := replayTransport(capRec.captured, t.spec.udp)
	if err != nil {
		out.fail("transport replay: %v", err)
		return layers, nil
	}
	b := &budget{cpu: r.cpu}
	b.add("source.encode", "rlnc", "replay", encodeNs)
	b.add("source.frame_encode", "protocol", "replay", srcFrames*nr.encode.mean())
	b.add("node.frame_decode", "protocol", "replay", received*nr.decode.mean())
	b.add("node.eliminate_install", "rlnc", "replay", addNs)
	b.add("node.recode", "rlnc", "replay", emitted*nr.recode.mean())
	b.add("node.frame_encode", "protocol", "replay", emitted*nr.encode.mean())
	b.add("transport.data.send_recv", "transport", "replay", float64(dataSend.n())*wire.mean())
	b.add("node.content", "protocol", "live", contentNs)
	b.wall("source.send", srv.dataSend.sum)
	b.wall("node.send", nodeSend.sum)
	b.wall("node.handle", handle.sum)
	b.wall("node.handle_self", self.sum)
	b.wall("transport.ctrl.send", ctrlSend.sum)
	b.remainder = "node bookkeeping (locks, obs counters, link scorecards, lifecycle), Dual pump goroutines and " +
		"channel hand-offs, batched UDP syscalls beyond the one-frame replay, node timer loops, tracker stats " +
		"ingest, GC and scheduler"
	layers["budget.accounted_frac"] = metric{b.accountedFrac(), "ratio"}
	printJSON("replay", map[string]interface{}{
		"captured_frames": len(capRec.captured), "innovative": nr.innovative, "redundant": nr.redundant,
		"self_check": "ok: live split, full rank, bytes equal", "curtain_ops": len(srv.ops),
		"server_frames_bytes": tally(srv), "node_frames_bytes": tally(t.nodes...),
	})
	return layers, b
}
