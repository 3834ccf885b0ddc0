// Package swarm multiplexes very large populations of lightweight,
// protocol-correct virtual nodes onto a handful of goroutines, so the
// real tracker's control plane can be exercised at 100k+ nodes on one
// machine (the paper's scale regime) without paying per-node goroutines,
// timers, or sockets.
//
// Each virtual node embeds a protocol.Member — the same membership state
// machine protocol.Node runs — so hello (with retry), welcome, lease
// renewal, stats reports, goodbye (with retry) and expulsion handling are
// the real protocol, spoken against an unmodified protocol.Tracker; the
// swarm only translates commands, timer-wheel entries and frames into
// Member calls and schedules what the Member returns. What is stubbed is
// the data plane: instead of decoding coded packets, a node advances a
// synthetic rank at a per-node rate and reports believable
// MsgStatsReports, so the tracker-side telemetry pipeline (ClusterSnapshot
// and friends) sees a live-looking fleet.
//
// Architecture: the population is split across a small number of shards.
// Each shard owns one transport.MuxEndpoint (all its nodes are virtual
// sub-addresses of it — see transport.MuxSep), one event-loop goroutine,
// and one receive pump. All per-node timers live in a hashed timer wheel
// owned by the event loop. Total goroutine count is O(shards), not O(N);
// the drills assert this sublinearity.
package swarm

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ncast/internal/protocol"
	"ncast/internal/transport"
)

// Config parameterises a swarm.
type Config struct {
	// N is the virtual-node population.
	N int
	// Shards is the number of event loops (and mux endpoints) the
	// population is split across. Zero means 8 (or N when smaller).
	Shards int
	// Network is the in-memory fabric shared with the tracker.
	Network *transport.Network
	// TrackerAddr is where hellos go.
	TrackerAddr string
	// Seed drives every per-node random choice (rates, jitter). Two
	// swarms with the same seed and the same command sequence behave
	// identically.
	Seed int64
	// Degree, when non-nil, gives node i's requested degree (0 means the
	// session default). Heterogeneous fleets set this.
	Degree func(i int) int
	// Rate, when non-nil, gives node i's synthetic decode rate in rank
	// units per stats interval (minimum 1). Heterogeneous fleets set
	// this; nil draws 1..4 per node from the seed.
	Rate func(i int) int
	// HelloRetry is how long an unanswered hello waits before resending
	// (default 500ms).
	HelloRetry time.Duration
	// EndpointBuf is the per-shard mux endpoint receive buffer in frames
	// (default 8192): it must absorb the tracker's welcome bursts while
	// the event loop is busy sending hellos.
	EndpointBuf int
}

const (
	// tick is the timer-wheel granularity.
	tick = 5 * time.Millisecond
	// addrPrefix names the shard endpoints: shard i registers
	// addrPrefix+i and node j rides it as addrPrefix+i+"!nj".
	addrPrefix = "swarm"
)

// Node lifecycle states (externally visible via State): the values of
// protocol.MemberState.
const (
	StateIdle     = int32(protocol.MemberIdle)
	StateJoining  = int32(protocol.MemberJoining)
	StateJoined   = int32(protocol.MemberJoined)
	StateLeaving  = int32(protocol.MemberLeaving)
	StateLeft     = int32(protocol.MemberLeft)
	StateCrashed  = int32(protocol.MemberCrashed)
	StateRejected = int32(protocol.MemberRejected)
)

// Counts is a snapshot of the swarm's counters.
type Counts struct {
	Joined       int64  // currently admitted (welcomed and not yet departed)
	Welcomes     uint64 // fresh welcomes (first per join attempt)
	DupWelcomes  uint64 // welcome retries observed
	HelloRetries uint64
	Rejoins      uint64 // joins of previously crashed nodes
	Expelled     uint64 // MsgExpelled received while alive
	Leaves       uint64 // acked goodbyes
	Crashes      uint64
	Leases       uint64
	StatsSent    uint64
	Completes    uint64
	Redirects    uint64 // parent-side redirects received (stub data plane)
	Rejected     uint64 // joins refused with MsgError
	SendErrors   uint64
}

// counters back Counts: one per Member event (EventCrashed is the last)
// and per control message a Member asked for, plus the swarm's own.
type counters struct {
	joined                                                  atomic.Int64
	events                                                  [protocol.EventCrashed + 1]atomic.Uint64
	sent                                                    [protocol.MsgStatsReport + 1]atomic.Uint64
	helloRetries, rejoins, completes, redirects, sendErrors atomic.Uint64
}

// Swarm is a population of virtual nodes.
type Swarm struct {
	cfg    Config
	shards []*shard
	// states and ids mirror each vnode's externally interesting fields
	// so gates and tests can read them without entering the event loops.
	states []atomic.Int32
	ids    []atomic.Uint64
	c      counters

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// command kinds delivered to a shard's event loop.
const (
	cmdJoin uint8 = iota
	cmdLeave
	cmdCrash
)

type command struct {
	kind uint8
	node int32
}

// vnode is one virtual node's state, owned exclusively by its shard's
// event loop — no locks. 100k of these cost ~100 bytes each, not a
// goroutine stack each.
type vnode struct {
	m      protocol.Member
	idx    int32
	addr   string
	degree int

	// Synthetic data plane.
	rank, maxRank int
	genSize, gens int
	rate          int
	redundant     uint64
	renewals      uint64
	completeSent  bool

	helloAt    time.Time
	wasCrash   bool // this join attempt is a rejoin after a crash
	genScratch []int
}

type shard struct {
	s   *Swarm
	idx int
	ep  *transport.MuxEndpoint
	rng *rand.Rand
	// prefix is every node address's shard part, <shardAddr>!n.
	prefix string

	// notify wakes the event loop; inbox and cmds are appended by
	// outsiders (the pump, the public API) under their mutexes and
	// swapped out wholesale by the loop.
	notify chan struct{}
	inMu   sync.Mutex
	inbox  []inFrame
	cmdMu  sync.Mutex
	cmds   []command

	wheel *wheel
	nodes map[int32]*vnode

	latMu sync.Mutex
	lats  []float64 // admission latencies (hello→welcome), nanoseconds
}

type inFrame struct {
	from, to string
	msg      []byte
}

// New builds a swarm and registers its shard endpoints on cfg.Network.
func New(cfg Config) (*Swarm, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("swarm: N must be positive, got %d", cfg.N)
	}
	if cfg.Network == nil || cfg.TrackerAddr == "" {
		return nil, fmt.Errorf("swarm: Network and TrackerAddr are required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.Shards > cfg.N {
		cfg.Shards = cfg.N
	}
	if cfg.EndpointBuf <= 0 {
		cfg.EndpointBuf = 8192
	}
	s := &Swarm{
		cfg:    cfg,
		states: make([]atomic.Int32, cfg.N),
		ids:    make([]atomic.Uint64, cfg.N),
	}
	for i := 0; i < cfg.Shards; i++ {
		ep, err := cfg.Network.MuxEndpoint(fmt.Sprintf("%s%d", addrPrefix, i), cfg.EndpointBuf)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, &shard{
			s:      s,
			idx:    i,
			ep:     ep,
			prefix: fmt.Sprintf("%s%cn", ep.Addr(), transport.MuxSep),
			rng:    rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			notify: make(chan struct{}, 1),
			wheel:  newWheel(tick, 512),
			nodes:  make(map[int32]*vnode),
		})
	}
	return s, nil
}

// Start launches the shard event loops and receive pumps.
func (s *Swarm) Start(ctx context.Context) {
	ctx, s.cancel = context.WithCancel(ctx)
	for _, sh := range s.shards {
		s.wg.Add(2)
		go sh.pump(ctx)
		go sh.run(ctx)
	}
}

// Close stops every loop and releases the shard endpoints.
func (s *Swarm) Close() {
	if s.cancel != nil {
		s.cancel()
	}
	for _, sh := range s.shards {
		sh.ep.Close()
	}
	s.wg.Wait()
}

func (s *Swarm) enqueue(kind uint8, i int) {
	sh := s.shards[i%len(s.shards)]
	sh.cmdMu.Lock()
	sh.cmds = append(sh.cmds, command{kind: kind, node: int32(i)})
	sh.cmdMu.Unlock()
	sh.wake()
}

// Join asks node i to enter the overlay (idempotent while joining or
// joined; a crashed or departed node rejoins with a fresh hello).
func (s *Swarm) Join(i int) { s.enqueue(cmdJoin, i) }

// Leave asks node i to depart gracefully (goodbye, retried until acked).
func (s *Swarm) Leave(i int) { s.enqueue(cmdLeave, i) }

// Crash kills node i silently: no goodbye, all timers cancelled, inbound
// frames ignored — the tracker can only find out via lease expiry.
func (s *Swarm) Crash(i int) { s.enqueue(cmdCrash, i) }

// JoinRange joins nodes [lo, hi).
func (s *Swarm) JoinRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		s.Join(i)
	}
}

// State returns node i's lifecycle state.
func (s *Swarm) State(i int) int32 { return s.states[i].Load() }

// NodeID returns the tracker-assigned id of node i (0 before any welcome).
func (s *Swarm) NodeID(i int) uint64 { return s.ids[i].Load() }

// JoinedCount returns how many nodes are currently joined.
func (s *Swarm) JoinedCount() int { return int(s.c.joined.Load()) }

// Counts snapshots the counters.
func (s *Swarm) Counts() Counts {
	ev := func(e protocol.MemberEvent) uint64 { return s.c.events[e].Load() }
	return Counts{
		Joined:       s.c.joined.Load(),
		Welcomes:     ev(protocol.EventJoined),
		DupWelcomes:  ev(protocol.EventDupWelcome),
		HelloRetries: s.c.helloRetries.Load(),
		Rejoins:      s.c.rejoins.Load(),
		Expelled:     ev(protocol.EventExpelled),
		Leaves:       ev(protocol.EventLeft),
		Crashes:      ev(protocol.EventCrashed),
		Leases:       s.c.sent[protocol.MsgLease].Load(),
		StatsSent:    s.c.sent[protocol.MsgStatsReport].Load(),
		Completes:    s.c.completes.Load(),
		Redirects:    s.c.redirects.Load(),
		Rejected:     ev(protocol.EventRejected),
		SendErrors:   s.c.sendErrors.Load(),
	}
}

// AdmissionLatencies returns a sorted copy of every hello→welcome latency
// observed (nanoseconds). Each fresh admission contributes one sample.
func (s *Swarm) AdmissionLatencies() []float64 {
	var all []float64
	for _, sh := range s.shards {
		sh.latMu.Lock()
		all = append(all, sh.lats...)
		sh.latMu.Unlock()
	}
	sort.Float64s(all)
	return all
}

func (sh *shard) wake() {
	select {
	case sh.notify <- struct{}{}:
	default:
	}
}

// pump drains the shard endpoint into the unbounded inbox so the
// tracker's outbox workers never block on a busy event loop (which could
// otherwise form a send-cycle under a flash crowd: shard blocked sending
// hellos into a tracker whose replies can't land).
func (sh *shard) pump(ctx context.Context) {
	defer sh.s.wg.Done()
	for {
		from, to, msg, err := sh.ep.RecvTo(ctx)
		if err != nil {
			return
		}
		sh.inMu.Lock()
		sh.inbox = append(sh.inbox, inFrame{from: from, to: to, msg: msg})
		sh.inMu.Unlock()
		sh.wake()
	}
}

// run is the shard event loop: drain frames, drain commands, advance the
// wheel, sleep until woken or the next tick.
func (sh *shard) run(ctx context.Context) {
	defer sh.s.wg.Done()
	timer := time.NewTimer(tick)
	defer timer.Stop()
	for {
		sh.inMu.Lock()
		frames := sh.inbox
		sh.inbox = nil
		sh.inMu.Unlock()
		for i := range frames {
			sh.handleFrame(ctx, &frames[i])
		}
		sh.cmdMu.Lock()
		cmds := sh.cmds
		sh.cmds = nil
		sh.cmdMu.Unlock()
		for _, c := range cmds {
			sh.handleCommand(ctx, c)
		}
		sh.wheel.advance(time.Now(), func(e timerEntry) { sh.fire(ctx, e) })

		var tickC <-chan time.Time // nil: nothing scheduled, sleep until woken
		if sh.wheel.pending() {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(tick)
			tickC = timer.C
		}
		select {
		case <-ctx.Done():
			return
		case <-sh.notify:
		case <-tickC:
		}
	}
}

// node returns (creating on first use) the vnode for a global index.
func (sh *shard) node(i int32) *vnode {
	v, ok := sh.nodes[i]
	if !ok {
		deg := 0
		if f := sh.s.cfg.Degree; f != nil {
			deg = f(int(i))
		}
		rate := 0
		if f := sh.s.cfg.Rate; f != nil {
			rate = f(int(i))
		}
		if rate <= 0 {
			rate = 1 + sh.rng.Intn(4)
		}
		v = &vnode{
			m:      protocol.Member{HelloRetry: sh.s.cfg.HelloRetry},
			idx:    i,
			addr:   sh.prefix + strconv.Itoa(int(i)),
			degree: deg,
			rate:   rate,
		}
		sh.nodes[i] = v
	}
	return v
}

// apply carries out a Member output for v: mirror its state, count the
// transition, schedule its timers and send its message.
func (sh *shard) apply(ctx context.Context, v *vnode, out protocol.MemberOutput, now time.Time) {
	c := &sh.s.c
	st := v.m.State()
	if old := protocol.MemberState(sh.s.states[v.idx].Load()); old != st {
		sh.s.states[v.idx].Store(int32(st))
		sh.s.ids[v.idx].Store(v.m.ID())
		if st.Admitted() && !old.Admitted() {
			c.joined.Add(1)
		} else if old.Admitted() && !st.Admitted() {
			c.joined.Add(-1)
		}
	}
	if out.Event != protocol.EventNone {
		c.events[out.Event].Add(1)
	}
	switch out.Event {
	case protocol.EventJoining:
		v.rank, v.redundant, v.renewals, v.completeSent = 0, 0, 0, false
		v.helloAt = now
	case protocol.EventExpelled:
		// The tracker removed our row (lease expiry after a partition, or
		// a complaint) and the Member re-hellos. Decoded state survives in
		// a real node; here the synthetic rank restarts at the welcome.
		v.helloAt = now
	case protocol.EventJoined:
		sh.welcomed(v, out.Welcome, now)
	}
	for _, t := range out.Timers[:out.NTimers] {
		sh.wheel.add(timerEntry{due: t.Due, node: v.idx, kind: t.Kind, epoch: t.Epoch})
	}
	if out.Send != 0 {
		c.sent[out.Send].Add(1)
	}
	switch out.Send {
	case protocol.MsgHello:
		sh.sendControl(ctx, v, out.Send, protocol.Hello{Addr: v.addr, Degree: v.degree})
	case protocol.MsgGoodbye:
		sh.sendControl(ctx, v, out.Send, protocol.Goodbye{ID: v.m.ID()})
	case protocol.MsgLease:
		v.renewals++
		sh.sendControl(ctx, v, out.Send, protocol.Lease{ID: v.m.ID()})
	case protocol.MsgStatsReport:
		sh.advanceProgress(ctx, v)
	}
}

func (sh *shard) handleCommand(ctx context.Context, c command) {
	v := sh.node(c.node)
	now := time.Now()
	var out protocol.MemberOutput
	switch c.kind {
	case cmdJoin:
		if v.m.State() == protocol.MemberCrashed {
			v.wasCrash = true
		}
		out = v.m.Join(now)
	case cmdLeave:
		out = v.m.Leave(now)
	case cmdCrash:
		out = v.m.Crash(now)
	}
	sh.apply(ctx, v, out, now)
}

func (sh *shard) fire(ctx context.Context, e timerEntry) {
	v := sh.nodes[e.node] // only commanded nodes arm timers
	now := time.Now()
	out := v.m.Fire(now, protocol.MemberTimer{Due: e.due, Kind: e.kind, Epoch: e.epoch})
	if out.Send == protocol.MsgHello {
		sh.s.c.helloRetries.Add(1)
	}
	sh.apply(ctx, v, out, now)
}

func (sh *shard) sendControl(ctx context.Context, v *vnode, typ protocol.MsgType, payload interface{}) {
	frame, err := protocol.EncodeControl(typ, payload)
	if err != nil {
		sh.s.c.sendErrors.Add(1)
		return
	}
	// A bounded wait: if the tracker's receive queue is saturated the
	// frame is dropped and the protocol's retry machinery (hello retry,
	// goodbye retry, next lease tick) recovers — exactly the lossy-link
	// semantics real nodes live with.
	sendCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	err = sh.ep.SendAs(sendCtx, v.addr, sh.s.cfg.TrackerAddr, frame)
	cancel()
	if err != nil && ctx.Err() == nil {
		sh.s.c.sendErrors.Add(1)
	}
}

func (sh *shard) handleFrame(ctx context.Context, f *inFrame) {
	idx, ok := sh.nodeIndexOf(f.to)
	if !ok {
		return
	}
	v, ok := sh.nodes[idx]
	if !ok {
		return // never commanded: nothing to deliver to
	}
	if v.m.State() == protocol.MemberCrashed {
		return // a dead process reads nothing
	}
	typ, payload, err := protocol.DecodeControl(f.msg)
	if err != nil {
		return
	}
	now := time.Now()
	out, ok := v.m.Control(now, typ, payload, sh.firstTimer)
	if ok {
		sh.apply(ctx, v, out, now)
		return
	}
	switch typ {
	case protocol.MsgRedirect, protocol.MsgThreadDropped, protocol.MsgThreadAdded:
		// Stub data plane: a real node would re-route its stream; the
		// swarm only needs the tracker to believe it did.
		sh.s.c.redirects.Add(1)
	}
}

// firstTimer is the swarm's welcome jitter: the first lease lands in
// [every/2, 3·every/2) and the first stats report in [0, every), so 100k
// leases don't beat in phase.
func (sh *shard) firstTimer(kind protocol.TimerKind, every time.Duration) time.Duration {
	d := time.Duration(sh.rng.Int63n(int64(every)))
	if kind == protocol.TimerLease {
		d += every / 2
	}
	return d
}

// nodeIndexOf parses the virtual node index from a full destination
// address of the form <shardAddr>!n<idx>.
func (sh *shard) nodeIndexOf(to string) (int32, bool) {
	digits, ok := strings.CutPrefix(to, sh.prefix)
	idx, err := strconv.ParseUint(digits, 10, 31)
	if !ok || err != nil || int(idx) >= sh.s.cfg.N {
		return 0, false
	}
	return int32(idx), true
}

// welcomed records an admission and sizes the synthetic data plane from
// the session parameters.
func (sh *shard) welcomed(v *vnode, w *protocol.Welcome, now time.Time) {
	lat := float64(now.Sub(v.helloAt).Nanoseconds())
	sh.latMu.Lock()
	sh.lats = append(sh.lats, lat)
	sh.latMu.Unlock()
	if v.wasCrash {
		v.wasCrash = false
		sh.s.c.rejoins.Add(1)
	}
	v.genSize, v.gens = 1, 1
	if p, err := w.Session.Params(); err == nil && w.Session.ContentLen > 0 {
		v.genSize, v.gens = p.GenSize, p.Generations(w.Session.ContentLen)
	}
	v.maxRank = v.gens * v.genSize
	v.rank = 0
}

// advanceProgress moves the synthetic decode forward and reports it: the
// believable stats stream that keeps the tracker's telemetry plane
// (freshness, progress census, straggler detection) exercised at scale.
func (sh *shard) advanceProgress(ctx context.Context, v *vnode) {
	if v.rank < v.maxRank {
		v.rank = min(v.rank+v.rate, v.maxRank)
		// Roughly 2% of received coded packets arrive redundant — enough
		// to keep the overhead fields non-trivial.
		if v.rank%50 == 0 {
			v.redundant++
		}
	}
	if cap(v.genScratch) < v.gens {
		v.genScratch = make([]int, v.gens)
	}
	genRanks := v.genScratch[:v.gens]
	rest := v.rank
	done := 0
	for g := range genRanks {
		r := min(rest, v.genSize)
		genRanks[g] = r
		rest -= r
		if r == v.genSize {
			done++
		}
	}
	complete := v.rank >= v.maxRank
	r := protocol.StatsReport{
		ID:            v.m.ID(),
		Rank:          v.rank,
		MaxRank:       v.maxRank,
		GenRanks:      genRanks,
		GensDone:      done,
		TotalGens:     v.gens,
		Complete:      complete,
		Received:      uint64(v.rank) + v.redundant,
		Innovative:    uint64(v.rank),
		Redundant:     v.redundant,
		LeaseRenewals: v.renewals,
	}
	sh.sendControl(ctx, v, protocol.MsgStatsReport, r)
	if complete && !v.completeSent {
		v.completeSent = true
		sh.s.c.completes.Add(1)
		sh.sendControl(ctx, v, protocol.MsgComplete, protocol.Complete{ID: v.m.ID()})
	}
}
