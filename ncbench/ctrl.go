//go:build linux

package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"ncast/internal/core"
	"ncast/internal/obs"
	"ncast/internal/protocol"
	"ncast/internal/swarm"
	"ncast/internal/transport"
)

// ctrl-churn parameters. The offered rate is fixed here, never derived
// from the host, so two hosts see the same load.
const (
	ctrlPopulation = 20000
	ctrlShards     = 2
	ctrlRate       = 1000 // membership ops per second, open loop
	ctrlSetupReps  = 3
	ctrlOpLimit    = 2 * time.Second
	ctrlK, ctrlD   = 16, 4
	ctrlLease      = 5 * time.Second
	ctrlStats      = time.Second
	// ctrlPoll is the completion-poll interval while ops are in flight.
	ctrlPoll = 50 * time.Microsecond
)

var ctrlSession = protocol.SessionParams{FieldBits: 8, GenSize: 16, PacketSize: 64, ContentLen: 4 * 16 * 64}

func ctrlParams(seconds int) map[string]interface{} {
	return map[string]interface{}{
		"transport":         "in-memory fabric, tracker only (no source, no data plane)",
		"k":                 ctrlK,
		"d":                 ctrlD,
		"population":        ctrlPopulation,
		"swarm_shards":      ctrlShards,
		"offered_ops_per_s": ctrlRate,
		"ops":               "alternating goodbye of a random member and hello of a fresh node",
		"op_limit_s":        ctrlOpLimit.Seconds(),
		"lease_timeout_s":   ctrlLease.Seconds(),
		"stats_interval_s":  ctrlStats.Seconds(),
		"setup_reps":        ctrlSetupReps,
		"window_s":          seconds,
		"loop":              "open: ops issued on schedule, timed from their due time",
	}
}

// ctrlEnv is a live tracker with a swarm of virtual nodes on one fabric.
type ctrlEnv struct {
	net     *transport.Network
	tracker *protocol.Tracker
	sw      *swarm.Swarm
	rec     *recorder // traced runs only
	tm      *obs.TrackerMetrics
	ep      *obs.TransportMetrics
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

func newCtrlEnv(n int, traced bool) (*ctrlEnv, error) {
	net := transport.NewNetwork()
	tep, err := net.Endpoint("tracker")
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	e := &ctrlEnv{net: net, tm: obs.NewTrackerMetrics(reg), ep: obs.NewTransportMetrics(reg, "tracker")}
	transport.Instrument(tep, e.ep)
	var ep transport.Endpoint = tep
	if traced {
		e.rec = newTrackerRecorder(tep)
		e.rec.window = false
		ep = e.rec
	}
	tr, err := protocol.NewTracker(ep, nil, protocol.TrackerConfig{
		K: ctrlK, D: ctrlD, Seed: topologySeed, Session: ctrlSession,
		LeaseTimeout: ctrlLease, StatsInterval: ctrlStats,
		// Flash-crowd welcomes funnel through one outbox per shard.
		OutboxDepth: (n/ctrlShards + 64) * (ctrlD + 2),
		Obs:         e.tm, TraceObs: obs.NewTraceMetrics(reg), LinkObs: obs.NewLinkMetrics(reg),
	})
	if err != nil {
		net.Close() //nolint:errcheck // error path
		return nil, err
	}
	obs.NewRuntimeMetrics(reg)
	sw, err := swarm.New(swarm.Config{
		N: n, Shards: ctrlShards, Network: net, TrackerAddr: "tracker", Seed: topologySeed,
		EndpointBuf: n/ctrlShards + 1024,
	})
	if err != nil {
		net.Close() //nolint:errcheck // error path
		return nil, err
	}
	e.tracker, e.sw = tr, sw
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	e.wg.Add(1)
	go func() { defer e.wg.Done(); tr.Run(ctx) }() //nolint:errcheck // exits on cancel
	sw.Start(ctx)
	return e, nil
}

func (e *ctrlEnv) close() {
	e.cancel()
	e.sw.Close()
	e.net.Close() //nolint:errcheck // teardown
	e.wg.Wait()
}

// admitAll joins the standing population and returns the set-up time:
// start until every vnode is welcomed.
func (e *ctrlEnv) admitAll(sl *sleeper) (time.Duration, error) {
	t0 := time.Now()
	e.sw.JoinRange(0, ctrlPopulation)
	for e.sw.JoinedCount() < ctrlPopulation {
		if time.Since(t0) > 60*time.Second {
			return 0, fmt.Errorf("set-up: %d of %d admitted after 60s", e.sw.JoinedCount(), ctrlPopulation)
		}
		if err := sl.sleep(200 * time.Microsecond); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// vnodeAddr is the wire address of swarm node i (default prefix).
func vnodeAddr(i int) string {
	return fmt.Sprintf("swarm%d%cn%d", i%ctrlShards, transport.MuxSep, i)
}

// churnOp is one in-flight membership op of the open loop.
type churnOp struct {
	idx    int
	hello  bool
	due    time.Time
	issued time.Time
}

func runCtrl(seed int64, seconds int, traced bool) (*outcome, error) {
	out := &outcome{e2e: make(map[string]metric)}
	sl, err := newSleeper()
	if err != nil {
		return nil, err
	}
	defer sl.close()
	nOps := seconds * ctrlRate
	nOps -= nOps % 2 // equal goodbyes and hellos keep the census fixed
	n := ctrlPopulation + nOps/2 + 16

	var setups []float64
	var env *ctrlEnv
	for rep := 0; rep < ctrlSetupReps; rep++ {
		e, err := newCtrlEnv(n, traced && rep == ctrlSetupReps-1)
		if err != nil {
			return nil, err
		}
		d, err := e.admitAll(sl)
		if err != nil {
			e.close()
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if rep < ctrlSetupReps-1 {
			e.close()
		} else {
			env = e
		}
	}

	// Open loop: op k is due at start + k/rate. Even ops are goodbyes of
	// a random standing member (drawn from the workload seed), odd ops
	// hellos of a never-used vnode.
	rng := rand.New(rand.NewSource(seed ^ 0x636875726e))
	pool := make([]int, ctrlPopulation)
	for i := range pool {
		pool[i] = i
	}
	next := ctrlPopulation
	var all, admit, late, helloDeliver, welcomeDeliver dist
	var inflight []churnOp
	interval := time.Second / ctrlRate

	if env.rec != nil {
		env.rec.setWindow(true)
	}
	batchSum0, batchCount0 := env.tm.AdmitBatch.Sum(), env.tm.AdmitBatch.Count()
	bytes0, frames0 := env.ep.BytesRecv.Value(), env.ep.FramesRecv.Value()
	counts0 := env.sw.Counts()
	cpu0 := cpuTime()
	start := time.Now().Add(time.Millisecond)
	end := start
	for k := 0; k < nOps || len(inflight) > 0; {
		now := time.Now()
		for ; k < nOps; k++ {
			due := start.Add(time.Duration(k) * interval)
			if due.After(now) {
				break
			}
			op := churnOp{due: due, hello: k%2 == 1}
			if op.hello {
				op.idx = next
				next++
				env.sw.Join(op.idx)
			} else {
				j := rng.Intn(len(pool))
				op.idx = pool[j]
				pool[j] = pool[len(pool)-1]
				pool = pool[:len(pool)-1]
				env.sw.Leave(op.idx)
			}
			op.issued = time.Now()
			late.addDur(op.issued.Sub(due))
			inflight = append(inflight, op)
		}
		now = time.Now()
		keep := inflight[:0]
		for _, op := range inflight {
			st := env.sw.State(op.idx)
			switch {
			case op.hello && st == swarm.StateJoined, !op.hello && st == swarm.StateLeft:
				lat := now.Sub(op.due)
				all.addDur(lat)
				end = now
				if op.hello {
					admit.addDur(lat)
					pool = append(pool, op.idx)
					if env.rec != nil {
						addr := vnodeAddr(op.idx)
						if t, ok := env.rec.helloRecvAt(addr); ok {
							helloDeliver.addDur(t.Sub(op.issued))
						}
						if t, ok := env.rec.welcomeSentAt(addr); ok {
							welcomeDeliver.addDur(now.Sub(t))
						}
					}
				}
			case now.Sub(op.due) > ctrlOpLimit:
				out.failed++
				end = now
			default:
				keep = append(keep, op)
			}
		}
		inflight = keep
		wait := ctrlPoll
		if k < nOps {
			if untilDue := time.Until(start.Add(time.Duration(k) * interval)); len(inflight) == 0 || untilDue < wait {
				wait = untilDue
			}
		}
		if err := sl.sleep(wait); err != nil {
			env.close()
			return nil, err
		}
	}
	cpu := cpuTime() - cpu0
	window := end.Sub(start)
	if env.rec != nil {
		env.rec.setWindow(false)
	}
	ctrlBytes := float64(env.ep.BytesRecv.Value() - bytes0)
	ctrlMsgs := float64(env.ep.FramesRecv.Value() - frames0)
	counts1 := env.sw.Counts()
	out.attempted = nOps

	// Oracle: curtain invariants and the census.
	v0 := time.Now()
	if err := env.tracker.CheckInvariants(); err != nil {
		out.fail("invariants: %v", err)
		out.failed = out.attempted
	}
	if got := env.tracker.NumNodes(); got != ctrlPopulation {
		out.fail("census: tracker has %d nodes, want %d", got, ctrlPopulation)
		out.failed = out.attempted
	}
	if got := env.sw.JoinedCount(); got != ctrlPopulation {
		out.fail("census: swarm has %d joined, want %d", got, ctrlPopulation)
		out.failed = out.attempted
	}
	verify := time.Since(v0)
	// Stop the swarm and tracker before any replay, so replayed per-op
	// times are not measured under the live load.
	matrix := env.tracker.MatrixDump()
	// The live heap includes frames queued in the fabric at that instant;
	// the median of a few samples keeps one backlog from setting it.
	var heaps []float64
	for i := 0; i < 5; i++ {
		heaps = append(heaps, liveHeapMiB())
		time.Sleep(50 * time.Millisecond)
	}
	heap := median(heaps)
	env.close()

	mib := ctrlBytes / (1 << 20)
	out.e2e["setup_s"] = metric{median(setups), "s"}
	out.e2e["goodput_mbps"] = metric{ctrlBytes / window.Seconds() / 1e6, "MB/s"}
	out.e2e["ttc_p50_s"] = metric{all.quantile(0.5) / 1e9, "s"}
	out.e2e["cpu_ms_per_mib"] = metric{ms(cpu) / mib, "ms/MiB"}
	out.e2e["heap_peak_mib"] = metric{heap, "MiB"}
	printJSON("samples", map[string]interface{}{
		"traced": traced, "ops": nOps, "completed": all.n(), "admissions": admit.n(),
		"setups": len(setups), "ctrl_msgs": ctrlMsgs, "window_s": window.Seconds(),
		"ctrl_cpu_us_per_msg": float64(cpu.Nanoseconds()) / 1e3 / ctrlMsgs,
		"swarm_leases":        counts1.Leases - counts0.Leases, "swarm_stats": counts1.StatsSent - counts0.StatsSent,
		"gen_late_p99_ms": late.quantile(0.99) / 1e6,
		"admit_ladder_ms": ladder(&admit),
	})

	if traced {
		h := &ctrlHarness{
			window: window, cpu: cpu, verify: verify,
			late: &late, helloDeliver: &helloDeliver, welcomeDeliver: &welcomeDeliver,
			batchMean: (env.tm.AdmitBatch.Sum() - batchSum0) / float64(env.tm.AdmitBatch.Count()-batchCount0),
			swarmSent: float64(counts1.Leases-counts0.Leases) + float64(counts1.StatsSent-counts0.StatsSent) + float64(nOps),
		}
		layers, b, err := ctrlLayers(env.rec, matrix, h)
		if err != nil {
			out.fail("replay: %v", err)
		}
		out.layers, out.budget = layers, b
	}
	return out, nil
}

// ctrlHarness carries the open loop's own measurements into the layer
// report.
type ctrlHarness struct {
	window, cpu, verify          time.Duration
	late                         *dist
	helloDeliver, welcomeDeliver *dist
	batchMean                    float64
	swarmSent                    float64
}

// ctrlLayers turns the tracker recorder's capture into per-layer
// metrics: control decode and curtain ops replayed offline, live send
// and admission spans, and the budget against process CPU.
func ctrlLayers(rec *recorder, matrix string, h *ctrlHarness) (map[string]metric, *budget, error) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	runtime.GC() // start the replays on a collected heap
	dec, enc, err := replayCtrlDecode(&rec.ctrlSamples)
	if err != nil {
		return nil, nil, err
	}
	coreHello, coreGoodbye, err := replayCurtain(rec.ops, ctrlK, ctrlD, topologySeed, core.InsertAppend, matrix)
	if err != nil {
		return nil, nil, err
	}
	layers := emptyLayers()
	win := h.window.Seconds()
	setCtrlLayers(layers, rec, dec, &coreHello, &coreGoodbye, win, h.batchMean)
	layers["harness.hello_deliver_ns"] = metric{h.helloDeliver.quantile(0.5), "ns"}
	layers["harness.welcome_deliver_ns"] = metric{h.welcomeDeliver.quantile(0.5), "ns"}
	layers["harness.gen_late_ms"] = metric{h.late.quantile(0.99) / 1e6, "ms"}
	layers["harness.verify_s"] = metric{h.verify.Seconds(), "s"}

	b := &budget{cpu: h.cpu}
	for _, t := range []int{msgHello, msgGoodbye, msgLease, msgStats} {
		b.add("protocol.ctrl_decode."+msgName(t), "protocol", "replay", float64(rec.ctrlIn[t])*dec[t].mean())
	}
	b.add("core.hello", "core", "replay", float64(coreHello.n())*coreHello.mean())
	b.add("core.goodbye", "core", "replay", float64(coreGoodbye.n())*coreGoodbye.mean())
	var frames [][]byte
	var ctrlIn float64
	for _, t := range []int{msgHello, msgGoodbye, msgLease, msgStats} {
		frames = append(frames, rec.ctrlSamples[t]...)
		ctrlIn += float64(rec.ctrlIn[t])
	}
	wire, err := replayTransport(frames, false)
	if err != nil {
		return nil, nil, err
	}
	b.add("transport.ctrl.send_recv", "transport", "replay", (ctrlIn+float64(rec.ctrlSend.n()))*wire.mean())
	b.addHarness("harness.swarm_encode", "replay", h.swarmSent*enc.mean())
	b.wall("transport.ctrl.send", rec.ctrlSend.sum)
	b.remainder = "tracker dispatch and stats/lease bookkeeping outside the curtain, welcome/redirect JSON encode, " +
		"outbox workers, in-memory fabric delivery, swarm event loops and decode, GC and scheduler"
	layers["budget.accounted_frac"] = metric{b.accountedFrac(), "ratio"}
	printJSON("replay", map[string]interface{}{
		"control_frames_replayed": len(frames), "curtain_ops": len(rec.ops),
		"self_check":           "ok: every sample decodes to its type, curtain matrix equals the tracker's",
		"tracker_frames_bytes": tally(rec),
	})
	return layers, b, nil
}

// setCtrlLayers fills the tracker-side metrics shared by every workload.
func setCtrlLayers(layers map[string]metric, rec *recorder, dec map[int]*dist, coreHello, coreGoodbye *dist, win, batchMean float64) {
	layers["transport.ctrl.send_ns"] = metric{rec.ctrlSend.mean(), "ns"}
	layers["tracker.admit_ns.p50"] = metric{rec.admit.quantile(0.5), "ns"}
	layers["tracker.admit_ns.p99"] = metric{rec.admit.quantile(0.99), "ns"}
	layers["core.hello_ns"] = metric{coreHello.mean(), "ns"}
	layers["core.goodbye_ns"] = metric{coreGoodbye.mean(), "ns"}
	layers["tracker.admit_batch_mean"] = metric{batchMean, "count"}
	for _, t := range []int{msgHello, msgGoodbye, msgLease, msgStats} {
		layers["protocol.ctrl_decode_ns."+msgName(t)] = metric{dec[t].mean(), "ns"}
		layers["tracker.ctrl_in_per_s."+msgName(t)] = metric{float64(rec.ctrlIn[t]) / win, "1/s"}
	}
}

func msgName(t int) string {
	switch t {
	case msgHello:
		return "hello"
	case msgGoodbye:
		return "goodbye"
	case msgLease:
		return "lease"
	case msgStats:
		return "stats"
	}
	return fmt.Sprint(t)
}
