package protocol

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"ncast/internal/gf"
	"ncast/internal/obs"
	"ncast/internal/rlnc"
	"ncast/internal/transport"
)

// Behavior selects how a node participates in the data plane. The
// non-honest behaviors implement the §5/§7 attack models.
type Behavior int

const (
	// Honest nodes re-mix and forward fresh random combinations.
	Honest Behavior = iota
	// EntropyAttacker implements the §7 "entropy destruction attack":
	// the node decodes for itself but forwards only trivial combinations
	// (it replays one fixed packet per generation), passing
	// bandwidth-shaped but information-free traffic. The paper notes this
	// is worse than a failure attack in the long run because the victim's
	// threads look alive — keepalives flow and complaints never fire.
	EntropyAttacker
	// Freeloader receives and decodes but forwards no data at all while
	// keeping its control plane alive — an intentional §5 failure attack
	// that does not even cost the attacker its power supply.
	Freeloader
)

// NodeConfig parameterises a client node.
type NodeConfig struct {
	// TrackerAddr is the tracker's transport address.
	TrackerAddr string
	// Degree requests a non-default d (heterogeneous bandwidth, §5).
	Degree int
	// ComplaintTimeout is how long a thread may stay silent before the
	// node complains to the tracker (the §3 "eventually the children of
	// the failed node complain"). Zero disables complaints.
	ComplaintTimeout time.Duration
	// Behavior selects honest or adversarial forwarding.
	Behavior Behavior
	// Seed drives recoding randomness.
	Seed int64
	// DecodeWorkers is ignored: the node always absorbs data packets
	// inline on its receive loop.
	//
	// Deprecated: kept so existing callers compile; it selects nothing.
	DecodeWorkers int
	// LinkSeq turns on link telemetry's wire stamping: outbound data
	// frames carry per-(sender, thread) sequence numbers and keepalives
	// become RTT echo probes. Off (the default), data frames carry no
	// sequence number and heartbeat keepalives no timestamps; inbound
	// accounting is always on, so a node still scores peers that stamp.
	LinkSeq bool
	// Obs carries optional instrumentation; nil leaves the node (and its
	// codecs) uninstrumented at zero cost.
	Obs *obs.NodeMetrics
	// GenSink, when non-nil, receives every generation-lifecycle
	// transition (first packet, rank quartiles, decode) — the feed behind
	// ncast-sim's -timeline and any live observer. Called from the
	// node's receive loop; a sink shared between nodes must be safe for
	// concurrent use.
	GenSink obs.GenSink
}

// Node is an overlay client: it joins via the hello protocol, receives
// unit streams from its parents, re-mixes them with RLNC, forwards along
// its threads, decodes the content, and participates in repair by
// complaining about silent parents.
type Node struct {
	ep  transport.Endpoint
	cfg NodeConfig
	rng *rand.Rand

	mu sync.Mutex
	// member is the membership lifecycle. timers holds the driver's
	// deadlines, one slot per kind: the Member's, then the complaint and
	// heartbeat cadences; wake tells the driver a deadline moved.
	member     Member
	timers     [numNodeTimers]MemberTimer
	wake       chan struct{}
	started    time.Time // when Run began: the phase of firstReport
	field      gf.Field
	params     rlnc.Params
	totalGens  int
	contentLen int
	layerSizes []int    // non-empty in layered mode
	genIDs     []uint32 // every valid (possibly namespaced) generation id
	genSet     map[uint32]bool
	threads    []int
	recoders   map[uint32]*rlnc.Recoder
	gensDone   int
	childOf    map[int]string
	parentOf   map[int]string
	lastRecv   map[int]time.Time
	complete   bool
	innovative int
	received   int
	hbGen      int
	// seqOf is the next outbound sequence number per thread (LinkSeq
	// only); links scores every inbound peer — loss from sequence gaps,
	// RTT from keepalive echoes, innovation per parent.
	seqOf map[int]uint32
	links *obs.LinkTracker
	// traceOf holds, per generation, the dissemination-trace context this
	// node first received for a sampled generation: the trace ID and the
	// node's own hop depth (max over received frames of the same trace,
	// per the merge rule — under recoding a node may hear a traced
	// generation at several depths). Empty unless the source samples.
	traceOf map[uint32]traceState
	// hoplog buffers hop spans between stats reports; created lazily on
	// the first traced receive so untraced sessions allocate nothing.
	hoplog *obs.HopLog
	// lifecycle records per-generation spans (first packet, rank
	// quartiles, decode completion, end-to-end delay); created on the
	// first welcome, and kept across re-joins since decoded state
	// survives expulsion.
	lifecycle *obs.GenTracker
	// complaintsSent and leaseSent count control messages this node has
	// issued, for the periodic stats report.
	complaintsSent uint64
	leaseSent      uint64
	// replay holds, per generation, the fixed packet an EntropyAttacker
	// replays instead of re-mixing.
	replay map[uint32]*rlnc.Packet

	joinedCh   chan error
	completeCh chan struct{}
	leftCh     chan struct{}
}

// The node's own timer kinds, after the Member's.
const (
	timerComplain = numTimerKinds + iota
	timerBeat
	numNodeTimers
)

// traceState is the per-generation trace merge state: the trace ID the
// node adopted (first seen wins) and the node's hop depth under that
// trace (max over received frames).
type traceState struct {
	id    uint64
	depth uint8
}

// hopLogCap bounds the per-node hop-span buffer between stats reports;
// maxTraceHopsPerReport bounds the compacted cells shipped per report so
// a traced burst cannot bloat the control plane.
const (
	hopLogCap             = 4096
	maxTraceHopsPerReport = 256
	// maxLinksPerReport bounds the link scorecards shipped per stats
	// report; degree is small, so the cap only matters for a node that
	// heard from many transient peers.
	maxLinksPerReport = 64
)

// NewNode creates a node bound to ep.
func NewNode(ep transport.Endpoint, cfg NodeConfig) *Node {
	return &Node{
		ep:         ep,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		recoders:   make(map[uint32]*rlnc.Recoder),
		traceOf:    make(map[uint32]traceState),
		replay:     make(map[uint32]*rlnc.Packet),
		childOf:    make(map[int]string),
		parentOf:   make(map[int]string),
		lastRecv:   make(map[int]time.Time),
		seqOf:      make(map[int]uint32),
		links:      obs.NewLinkTracker(0),
		wake:       make(chan struct{}, 1),
		joinedCh:   make(chan error, 1),
		completeCh: make(chan struct{}),
		leftCh:     make(chan struct{}),
	}
}

// ID returns the node's overlay id (0 before the welcome arrives).
func (n *Node) ID() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.member.ID()
}

// Joined resolves once the tracker accepts or rejects the hello.
func (n *Node) Joined() <-chan error { return n.joinedCh }

// Completed closes once the content is fully decoded.
func (n *Node) Completed() <-chan struct{} { return n.completeCh }

// Left closes once a graceful leave is acknowledged.
func (n *Node) Left() <-chan struct{} { return n.leftCh }

// Progress returns the fraction of total rank gathered in [0,1].
func (n *Node) Progress() float64 { return n.Health().Progress }

// Stats returns (received, innovative) packet counts.
func (n *Node) Stats() (received, innovative int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.received, n.innovative
}

// Health summarises the node's download state for obs snapshots.
func (n *Node) Health() obs.NodeHealth {
	n.mu.Lock()
	defer n.mu.Unlock()
	rank := 0
	for _, rc := range n.recoders {
		rank += rc.Rank()
	}
	h := obs.NodeHealth{
		ID:         n.member.ID(),
		Joined:     n.member.State().Admitted(),
		Degree:     len(n.threads),
		Rank:       rank,
		MaxRank:    n.totalGens * n.params.GenSize,
		GensDone:   n.gensDone,
		TotalGens:  n.totalGens,
		Received:   n.received,
		Innovative: n.innovative,
		Complete:   n.complete,
	}
	if h.MaxRank > 0 {
		h.Progress = float64(rank) / float64(h.MaxRank)
	}
	return h
}

// Content reassembles the decoded blob; it errors until completion.
func (n *Node) Content() ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.complete {
		return nil, rlnc.ErrIncomplete
	}
	if len(n.layerSizes) > 0 {
		out := make([]byte, 0, n.contentLen)
		for l := range n.layerSizes {
			slab, err := n.layerBytesLocked(l)
			if err != nil {
				return nil, err
			}
			out = append(out, slab...)
		}
		return out, nil
	}
	out := make([]byte, 0, n.contentLen)
	for _, g := range n.genIDs {
		rc := n.recoders[g]
		src, err := rc.Decode()
		if err != nil {
			return nil, err
		}
		for _, pkt := range src {
			out = append(out, pkt...)
		}
	}
	return out[:n.contentLen], nil
}

// CompletedLayers returns, for layered sessions, how many consecutive
// priority layers (from the base) are fully decoded — the "resolution"
// currently playable. Flat sessions report 1 when complete, else 0.
func (n *Node) CompletedLayers() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.layerSizes) == 0 {
		if n.complete {
			return 1
		}
		return 0
	}
	done := 0
	for l := range n.layerSizes {
		if !n.layerCompleteLocked(l) {
			break
		}
		done++
	}
	return done
}

// Layer returns the decoded bytes of priority layer l once it completes.
func (n *Node) Layer(l int) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l < 0 || l >= len(n.layerSizes) {
		return nil, fmt.Errorf("protocol: layer %d out of range [0,%d)", l, len(n.layerSizes))
	}
	if !n.layerCompleteLocked(l) {
		return nil, rlnc.ErrIncomplete
	}
	return n.layerBytesLocked(l)
}

// layerCompleteLocked reports whether every generation of layer l decoded.
func (n *Node) layerCompleteLocked(l int) bool {
	gens := n.params.Generations(n.layerSizes[l])
	for g := 0; g < gens; g++ {
		rc, ok := n.recoders[rlnc.LayerGen(l, g)]
		if !ok || !rc.Complete() {
			return false
		}
	}
	return true
}

// layerBytesLocked reassembles layer l (callers ensure completeness).
func (n *Node) layerBytesLocked(l int) ([]byte, error) {
	size := n.layerSizes[l]
	gens := n.params.Generations(size)
	out := make([]byte, 0, size)
	for g := 0; g < gens; g++ {
		rc := n.recoders[rlnc.LayerGen(l, g)]
		src, err := rc.Decode()
		if err != nil {
			return nil, err
		}
		for _, pkt := range src {
			out = append(out, pkt...)
		}
	}
	return out[:size], nil
}

// Run joins the session and processes messages until the context is
// cancelled or the node leaves gracefully. It always sends the hello
// itself; callers watch Joined / Completed / Left. Every clock — hello and
// goodbye retries, lease renewals, stats reports, complaints, heartbeats
// and probes — runs on one driver goroutine that exits before Run returns.
func (n *Node) Run(ctx context.Context) error {
	// Scope the driver to Run's lifetime: after a graceful leave Run
	// returns, and a departed node must stop proving liveness to its
	// former children and stop re-sending its goodbye.
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()

	now := time.Now()
	n.mu.Lock()
	n.started = now
	hello := n.member.Join(now)
	n.armLocked(hello)
	if ct := n.cfg.ComplaintTimeout; ct > 0 {
		n.timers[timerComplain].Due = now.Add(ct / 2)
		n.timers[timerBeat].Due = now.Add(ct / 4)
	}
	n.mu.Unlock()
	if err := n.sendTracker(ctx, hello.Send, 0); err != nil {
		return fmt.Errorf("protocol: hello: %w", err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		n.drive(ctx)
	}()

	for {
		from, frame, err := n.ep.Recv(ctx)
		if err != nil {
			return fmt.Errorf("protocol: node recv: %w", err)
		}
		if IsKeepalive(frame) {
			n.handleKeepalive(ctx, from, frame)
			continue
		}
		if IsData(frame) {
			n.handleData(ctx, from, frame)
			continue
		}
		typ, payload, err := DecodeControl(frame)
		if err != nil {
			continue
		}
		done, err := n.handleControl(ctx, typ, payload)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// drive is the node's one timer goroutine: it sleeps until the earliest
// deadline in n.timers, or until woken because one moved, then runs
// whatever is due.
func (n *Node) drive(ctx context.Context) {
	for {
		wait := time.Hour
		n.mu.Lock()
		for _, mt := range n.timers {
			if !mt.Due.IsZero() && time.Until(mt.Due) < wait {
				wait = time.Until(mt.Due)
			}
		}
		n.mu.Unlock()
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
		case <-n.wake:
		case <-t.C:
		}
		t.Stop()
		if ctx.Err() != nil {
			return
		}
		n.fire(ctx, time.Now())
	}
}

// fire runs every deadline due at now.
func (n *Node) fire(ctx context.Context, now time.Time) {
	for k := range numNodeTimers {
		n.mu.Lock()
		t := n.timers[k]
		if t.Due.IsZero() || t.Due.After(now) {
			n.mu.Unlock()
			continue
		}
		switch k {
		case timerComplain:
			n.timers[k].Due = now.Add(n.cfg.ComplaintTimeout / 2)
			n.mu.Unlock()
			n.complain(ctx, now)
		case timerBeat:
			n.timers[k].Due = now.Add(n.cfg.ComplaintTimeout / 4)
			n.mu.Unlock()
			n.beat(ctx)
		default:
			n.timers[k] = MemberTimer{} // fired; a live one is re-armed below
			out := n.member.Fire(now, t)
			n.armLocked(out)
			if out.Send == MsgLease {
				n.leaseSent++
			}
			id := n.member.ID()
			n.mu.Unlock()
			_ = n.sendTracker(ctx, out.Send, id) //nolint:errcheck // the timer re-sends
		}
	}
}

// armLocked files a Member output's timers in the driver's deadline set,
// replacing any earlier timer of the same kind, and wakes the driver.
// Callers hold n.mu.
func (n *Node) armLocked(out MemberOutput) {
	for _, t := range out.Timers[:out.NTimers] {
		n.timers[t.Kind] = t
	}
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// sendTracker sends the tracker a control message of type typ (none when
// zero), building its payload; id is the member's id when the message was
// decided on.
func (n *Node) sendTracker(ctx context.Context, typ MsgType, id uint64) error {
	var msg []byte
	var err error
	switch typ {
	case 0:
		return nil
	case MsgHello:
		msg, err = EncodeControl(typ, Hello{Addr: n.ep.Addr(), Degree: n.cfg.Degree})
	case MsgLease:
		msg, err = EncodeControl(typ, Lease{ID: id})
	case MsgGoodbye:
		msg, err = EncodeControl(typ, Goodbye{ID: id})
	case MsgCongested:
		msg, err = EncodeControl(typ, Congested{ID: id})
	case MsgUncongested:
		msg, err = EncodeControl(typ, Uncongested{ID: id})
	case MsgStatsReport:
		msg, err = EncodeControl(typ, n.buildStatsReport())
	}
	if err != nil {
		return err
	}
	return n.ep.Send(ctx, n.cfg.TrackerAddr, msg)
}

// firstReport is the Node's welcome jitter: the first lease and stats
// report land on the 250 ms grid from Run's start, as they always have —
// not at the welcome itself, while the tracker is still admitting the
// joiners behind this one — and never later than one interval.
func (n *Node) firstReport(_ TimerKind, every time.Duration) time.Duration {
	const grid = 250 * time.Millisecond
	return min(every, grid-time.Since(n.started)%grid)
}

func (n *Node) handleControl(ctx context.Context, typ MsgType, payload json.RawMessage) (done bool, err error) {
	n.mu.Lock()
	out, ok := n.member.Control(time.Now(), typ, payload, n.firstReport)
	if ok {
		return n.membership(ctx, out)
	}
	n.mu.Unlock()
	switch typ {
	case MsgRedirect:
		var r Redirect
		if err := json.Unmarshal(payload, &r); err != nil {
			return false, nil
		}
		n.applyRedirect(ctx, r)
	case MsgThreadDropped:
		var td ThreadDropped
		if err := json.Unmarshal(payload, &td); err != nil {
			return false, nil
		}
		n.mu.Lock()
		if i := slices.Index(n.threads, td.Thread); i >= 0 {
			n.threads = slices.Delete(n.threads, i, i+1)
		}
		delete(n.childOf, td.Thread)
		delete(n.lastRecv, td.Thread)
		delete(n.parentOf, td.Thread)
		n.mu.Unlock()
	case MsgThreadAdded:
		var ta ThreadAdded
		if err := json.Unmarshal(payload, &ta); err != nil {
			return false, nil
		}
		n.mu.Lock()
		if !slices.Contains(n.threads, ta.Thread) {
			n.threads = append(n.threads, ta.Thread)
		}
		n.lastRecv[ta.Thread] = time.Now()
		if ta.ChildAddr != "" {
			n.childOf[ta.Thread] = ta.ChildAddr
		}
		n.mu.Unlock()
		if ta.ChildAddr != "" {
			// Serve the displaced child immediately with a catch-up burst.
			n.applyRedirect(ctx, Redirect{Thread: ta.Thread, ChildAddr: ta.ChildAddr})
		}
	}
	return false, nil
}

// membership acts on a Member output produced under n.mu, which it
// releases: it applies an accepted welcome, resets the overlay position
// on expulsion, and reports whether Run is done.
func (n *Node) membership(ctx context.Context, out MemberOutput) (done bool, err error) {
	switch out.Event {
	case EventJoined:
		err = n.applyWelcomeLocked(out.Welcome)
	case EventExpelled:
		// A child's complaint got this node repaired away while it was
		// alive (slow link, lost redirect); the Member re-hellos. Decoded
		// generations survive, only the overlay position resets.
		n.threads = nil
		n.childOf = make(map[int]string)
		n.parentOf = make(map[int]string)
		n.lastRecv = make(map[int]time.Time)
	}
	if err == nil {
		n.armLocked(out)
	}
	n.mu.Unlock()
	switch out.Event {
	case EventLeft:
		close(n.leftCh)
		return true, nil
	case EventRejected:
		err = fmt.Errorf("protocol: join rejected: %s", out.Reason)
		fallthrough
	case EventJoined:
		select {
		case n.joinedCh <- err:
		default: // an earlier welcome fills the slot; nobody is waiting
		}
		return err != nil, err
	}
	_ = n.sendTracker(ctx, out.Send, 0) //nolint:errcheck // the hello timer re-sends
	return false, nil
}

// applyWelcomeLocked installs the session an accepted welcome announces.
// Callers hold n.mu.
func (n *Node) applyWelcomeLocked(w *Welcome) error {
	params, err := w.Session.Params()
	if err != nil {
		return err
	}
	if w.Session.ContentLen <= 0 {
		return errors.New("protocol: welcome without content length")
	}
	genIDs, err := sessionGenIDs(w.Session, params)
	if err != nil {
		return err
	}
	n.field = params.Field
	n.params = params
	n.contentLen = w.Session.ContentLen
	n.layerSizes = append([]int(nil), w.Session.LayerSizes...)
	n.genIDs = genIDs
	n.genSet = make(map[uint32]bool, len(genIDs))
	for _, g := range genIDs {
		n.genSet[g] = true
	}
	n.totalGens = len(genIDs)
	if n.lifecycle == nil {
		n.lifecycle = obs.NewGenTracker(n.ep.Addr(), params.GenSize, n.cfg.Obs, n.cfg.GenSink)
	}
	n.threads = append([]int(nil), w.Threads...)
	now := time.Now()
	for _, th := range w.Threads {
		n.lastRecv[th] = now
	}
	return nil
}

// sessionGenIDs enumerates every generation id a session uses: a flat
// session numbers them 0..G-1; a layered one namespaces per layer.
func sessionGenIDs(sp SessionParams, params rlnc.Params) ([]uint32, error) {
	if !sp.Layered() {
		g := params.Generations(sp.ContentLen)
		ids := make([]uint32, 0, g)
		for i := 0; i < g; i++ {
			ids = append(ids, uint32(i))
		}
		return ids, nil
	}
	total := 0
	var ids []uint32
	for l, size := range sp.LayerSizes {
		if size <= 0 {
			return nil, fmt.Errorf("protocol: layer %d size %d", l, size)
		}
		total += size
		for g := 0; g < params.Generations(size); g++ {
			ids = append(ids, rlnc.LayerGen(l, g))
		}
	}
	if total != sp.ContentLen {
		return nil, fmt.Errorf("protocol: layer sizes sum %d, content %d", total, sp.ContentLen)
	}
	return ids, nil
}

func (n *Node) applyRedirect(ctx context.Context, r Redirect) {
	n.mu.Lock()
	if r.ChildAddr == "" {
		delete(n.childOf, r.Thread)
		n.mu.Unlock()
		return
	}
	n.childOf[r.Thread] = r.ChildAddr
	// Catch-up burst: one fresh combination per generation we already
	// hold, so a late joiner is not starved until the round-robin source
	// cycles back.
	var bursts []outFrame
	for _, g := range n.genIDs {
		rc, ok := n.recoders[g]
		if !ok || rc.Rank() == 0 {
			continue
		}
		if p := n.emitPacketLocked(g, rc); p != nil {
			bursts = append(bursts, n.dataFrameLocked(r.ChildAddr, r.Thread, p, 0))
		}
	}
	n.mu.Unlock()
	for _, b := range bursts {
		n.sendData(ctx, b)
	}
}

func (n *Node) handleData(ctx context.Context, from string, frame []byte) {
	n.mu.Lock()
	if !n.member.State().Admitted() {
		n.mu.Unlock()
		return
	}
	th, seq, emit, tc, p, err := DecodeDataSeq(n.field, frame)
	if err != nil {
		n.mu.Unlock()
		return
	}
	now := time.Now()
	// Score the link before any protocol-level gating: loss estimation is
	// about what the wire delivered, and a frame for a foreign generation
	// still proves the link carried it.
	n.links.ObserveFrame(from, th, seq, len(frame), now.UnixNano())
	if !n.genSet[p.Gen] {
		n.mu.Unlock()
		p.Release()
		return
	}
	m := n.cfg.Obs
	n.received++
	if m != nil {
		m.Received.Inc()
	}
	n.lastRecv[th] = now
	n.parentOf[th] = from
	rc, ok := n.recoders[p.Gen]
	if !ok {
		rc, err = rlnc.NewRecoder(n.field, p.Gen, n.params.GenSize, n.params.PacketSize)
		if err != nil {
			n.mu.Unlock()
			p.Release()
			return
		}
		if m != nil {
			rc.Instrument(m.Codec)
		}
		n.recoders[p.Gen] = rc
	}
	n.mu.Unlock()
	n.absorb(ctx, th, from, emit, tc, rc, p)
}

// absorb performs the Gaussian elimination for one received packet —
// outside n.mu, so stats, content and control handlers never wait on
// it — then re-locks for node bookkeeping and forwards one packet of
// the same generation down the node's own thread, preserving unit flow
// per thread. It consumes p (released back to the packet pool).
func (n *Node) absorb(ctx context.Context, th int, from string, emit int64, tc TraceContext, rc *rlnc.Recoder, p *rlnc.Packet) {
	m := n.cfg.Obs
	// Stamp the arrival before the Gaussian elimination so the hop span
	// measures propagation, not local decode work. Untraced frames (the
	// overwhelming majority at realistic sampling rates) skip the clock.
	var arrival int64
	if tc.Traced() {
		arrival = time.Now().UnixNano()
	}
	wasComplete := rc.Complete()
	innovative, err := rc.Add(p)
	if err != nil {
		p.Release()
		return
	}
	// Record the lifecycle transition(s) this packet caused: first-seen,
	// rank quartiles, decode completion with end-to-end delay against the
	// frame's source-emission stamp. The tracker is created with the
	// welcome, so a pre-join packet (impossible: handleData gates on
	// joined) never races the nil check.
	n.mu.Lock()
	lc := n.lifecycle
	n.mu.Unlock()
	lc.Observe(p.Gen, emit, rc.Rank())
	n.links.ObservePacket(from, innovative)
	n.mu.Lock()
	if innovative {
		n.innovative++
		if m != nil {
			m.Innovative.Inc()
			m.Rank.Add(1)
		}
	} else if m != nil {
		m.Redundant.Inc()
	}
	justCompleted := false
	if !wasComplete && rc.Complete() {
		n.gensDone++
		if m != nil {
			m.GensDone.Set(int64(n.gensDone))
		}
		if n.gensDone == n.totalGens && !n.complete {
			n.complete = true
			justCompleted = true
		}
	}
	// Remember a replay packet for the entropy attack before any mixing
	// decisions.
	if n.cfg.Behavior == EntropyAttacker {
		if _, ok := n.replay[p.Gen]; !ok {
			n.replay[p.Gen] = p.Clone()
		}
	}
	// What the forwarded packet contains depends on the node's behavior.
	var out *rlnc.Packet
	child, ok := n.childOf[th]
	if ok {
		out = n.emitPacketLocked(p.Gen, rc)
	}
	// Merge the trace context and record the hop span. First trace ID
	// wins for a generation; the node's depth is the max hop seen under
	// that trace (recoding can deliver the same traced generation along
	// paths of different length — max is the honest depth of the mix).
	if tc.Traced() {
		ts, ok := n.traceOf[p.Gen]
		if !ok {
			ts = traceState{id: tc.ID, depth: tc.Hop}
		} else if ts.id == tc.ID && tc.Hop > ts.depth {
			ts.depth = tc.Hop
		}
		n.traceOf[p.Gen] = ts
		if n.hoplog == nil {
			n.hoplog = obs.NewHopLog(hopLogCap)
		}
		fanout := 0
		if out != nil {
			fanout = 1
		}
		n.hoplog.Record(obs.HopRecord{
			TraceID:      tc.ID,
			Gen:          p.Gen,
			Hop:          int(tc.Hop),
			Innovative:   innovative,
			Forwarded:    fanout,
			ArrivalNanos: arrival,
			EmitNanos:    emit,
		})
	}
	var fwd outFrame
	if out != nil {
		// Propagate the generation's source-emission stamp downstream
		// (earliest seen wins inside the tracker), so decode delay stays
		// end-to-end however many overlay hops the data crosses.
		fwd = n.dataFrameLocked(child, th, out, emit)
	}
	id := n.member.ID()
	n.mu.Unlock()
	p.Release()

	if justCompleted {
		if msg, err := EncodeControl(MsgComplete, Complete{ID: id}); err == nil {
			_ = n.ep.Send(ctx, n.cfg.TrackerAddr, msg) //nolint:errcheck // best-effort
		}
		close(n.completeCh)
	}
	if fwd.buf != nil {
		n.sendData(ctx, fwd)
	}
}

// outFrame is a data-plane frame and its destination. buf is the pooled
// buffer holding a data frame; keepalives, which are not pooled, leave it
// nil.
type outFrame struct {
	to    string
	frame []byte
	buf   *[]byte
}

// dataFrameLocked encodes the frame that carries p on thread th to child
// into a pooled buffer and releases p. It fills every per-send header
// field: the thread's next sequence number, the generation's
// source-emission stamp (stamp when this node has recorded none) and the
// forwarding trace context. Callers hold n.mu.
func (n *Node) dataFrameLocked(child string, th int, p *rlnc.Packet, stamp int64) outFrame {
	if s := n.lifecycle.EmitStamp(p.Gen); s > 0 {
		stamp = s
	}
	buf := rlnc.GetFrameBuf()
	*buf = AppendDataSeq(*buf, n.field, th, n.nextSeqLocked(th), stamp, n.forwardTraceLocked(p.Gen), p)
	p.Release()
	return outFrame{to: child, frame: *buf, buf: buf}
}

// forwardTraceLocked returns the trace context this node stamps on
// packets it forwards for gen: its adopted trace ID with the hop count
// advanced by one (saturating), or the zero context when the generation
// is untraced. Callers hold n.mu.
func (n *Node) forwardTraceLocked(gen uint32) TraceContext {
	ts, ok := n.traceOf[gen]
	if !ok {
		return TraceContext{}
	}
	hop := ts.depth
	if hop < 255 {
		hop++
	}
	return TraceContext{ID: ts.id, Hop: hop}
}

// nextSeqLocked returns the next outbound sequence number for thread th,
// advancing the per-thread counter (wrapping in 24-bit space), or -1
// when LinkSeq stamping is off, so the frame carries no sequence number.
// Callers hold n.mu.
func (n *Node) nextSeqLocked(th int) int32 {
	if !n.cfg.LinkSeq {
		return -1
	}
	s := n.seqOf[th]
	n.seqOf[th] = (s + 1) % SeqMod
	return int32(s)
}

// emitPacketLocked produces the packet this node forwards for generation
// gen, honoring its behavior: honest nodes re-mix, entropy attackers
// replay a fixed packet (zero new information), freeloaders emit nothing.
// Callers hold n.mu.
func (n *Node) emitPacketLocked(gen uint32, rc *rlnc.Recoder) *rlnc.Packet {
	switch n.cfg.Behavior {
	case Freeloader:
		return nil
	case EntropyAttacker:
		if p := n.replay[gen]; p != nil {
			return p.Clone()
		}
		return nil
	default:
		if p, ok := rc.Packet(n.rng); ok {
			return p
		}
		return nil
	}
}

// sendData sends a data-plane frame with a bounded wait, then returns its
// pooled buffer (both transports copy the frame during Send). When the
// child's queue is full the frame is dropped, exactly as a congested link
// would drop a datagram; RLNC makes drops harmless — no specific packet
// is ever required, only enough innovative ones — so a failed send is
// only counted.
func (n *Node) sendData(ctx context.Context, f outFrame) {
	m := n.cfg.Obs
	if m != nil && IsData(f.frame) {
		m.Emitted.Inc()
	}
	sendCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	err := n.ep.Send(sendCtx, f.to, f.frame)
	cancel()
	rlnc.PutFrameBuf(f.buf)
	if err != nil && m != nil {
		m.SendErrors.Inc()
	}
}

// handleKeepalive refreshes the liveness clock of the sending parent and
// runs the RTT echo exchange: probes are answered with an echo of their
// transmit stamp, echoes close the loop into the peer's RTT EWMA.
func (n *Node) handleKeepalive(ctx context.Context, from string, frame []byte) {
	ki, err := DecodeKeepalive(frame)
	if err != nil {
		return
	}
	th := ki.Thread
	now := time.Now()
	n.mu.Lock()
	if !n.member.State().Admitted() {
		n.mu.Unlock()
		return
	}
	// A probe can also arrive from this node's own child (children probe
	// the parents they measure); only a frame from upstream may refresh
	// the thread's liveness clock, or a probing child would mask its
	// parent's death from the complaint protocol.
	if n.childOf[th] != from {
		n.lastRecv[th] = now
		n.parentOf[th] = from
	}
	if ki.IsEcho() {
		if rtt := now.UnixNano() - ki.EchoNanos - ki.HoldNanos; rtt > 0 {
			n.links.ObserveRTT(from, rtt)
		}
	}
	n.mu.Unlock()
	if ki.IsProbe() {
		// Answer immediately, so HoldNanos (the receiver's processing
		// delay) is negligible and reported as zero.
		n.sendData(ctx, outFrame{to: from, frame: EncodeKeepalive(th, 0, ki.TxNanos, 0)})
	}
}

// beat runs the heartbeat cadence. With LinkSeq it first sends an echo
// probe to each current parent, measuring RTT on the plane coded frames
// ride; the parent's echo closes the loop in handleKeepalive. All
// behaviors probe — a probe reveals nothing about the prober's output
// threads, and even an attacker's scorecards keep the fleet matrix honest
// about link quality. Then it proves this node's liveness to its children
// on threads where it has nothing to forward, so that upstream starvation
// is never mistaken for this node's death.
func (n *Node) beat(ctx context.Context) {
	var beats []outFrame
	n.mu.Lock()
	if n.cfg.LinkSeq && n.member.State().Admitted() {
		for th, parent := range n.parentOf {
			if parent != "" {
				beats = append(beats, outFrame{to: parent, frame: EncodeKeepalive(th, time.Now().UnixNano(), 0, 0)})
			}
		}
	}
	children := n.childOf
	if n.cfg.Behavior == Freeloader {
		// The §5 failure attacker goes silent on its output threads: no
		// data, no liveness. Children detect it by timeout and the repair
		// protocol splices it out — exactly the attack the paper proves
		// the overlay absorbs.
		children = nil
	}
	for th, child := range children {
		// Prefer a useful heartbeat: a fresh combination of a rotating
		// generation we hold rank in. This keeps a quiet subtree
		// progressing even when the node's own inflow is idle (e.g. it
		// decoded everything and upstream went quiet).
		if len(n.genIDs) > 0 {
			g := n.genIDs[(n.hbGen+th)%len(n.genIDs)]
			if rc, ok := n.recoders[g]; ok && rc.Rank() > 0 {
				if p := n.emitPacketLocked(g, rc); p != nil {
					beats = append(beats, n.dataFrameLocked(child, th, p, 0))
					continue
				}
			}
		}
		var tx int64
		if n.cfg.LinkSeq {
			tx = time.Now().UnixNano() // double as an RTT probe down the same path
		}
		beats = append(beats, outFrame{to: child, frame: EncodeKeepalive(th, tx, 0, 0)})
	}
	n.hbGen++
	n.mu.Unlock()
	for _, b := range beats {
		n.sendData(ctx, b)
	}
}

// buildStatsReport snapshots the node's telemetry under n.mu. Delay
// quantiles and overheads come from the lifecycle tracker (its own lock;
// n.mu → tracker.mu is the only order used anywhere, so no inversion).
func (n *Node) buildStatsReport() StatsReport {
	n.mu.Lock()
	r := StatsReport{
		ID:            n.member.ID(),
		MaxRank:       n.totalGens * n.params.GenSize,
		GensDone:      n.gensDone,
		TotalGens:     n.totalGens,
		Complete:      n.complete,
		Received:      uint64(n.received),
		Innovative:    uint64(n.innovative),
		Complaints:    n.complaintsSent,
		LeaseRenewals: n.leaseSent,
	}
	r.Redundant = r.Received - r.Innovative
	r.GenRanks = make([]int, len(n.genIDs))
	for i, g := range n.genIDs {
		if rc, ok := n.recoders[g]; ok {
			r.GenRanks[i] = rc.Rank()
			r.Rank += rc.Rank()
		}
	}
	lc := n.lifecycle
	hl := n.hoplog
	n.mu.Unlock()
	// Drain the hop spans accumulated since the previous report; Compact
	// aggregates them per (trace, generation, hop) cell so the report
	// stays bounded however many traced frames arrived.
	r.TraceHops = hl.Compact(maxTraceHopsPerReport)
	r.Links = n.links.Compact(maxLinksPerReport)
	if lc != nil {
		if d := lc.Delays(); len(d) > 0 {
			r.DelayP50Nanos = int64(obs.Quantile(d, 0.50))
			r.DelayP90Nanos = int64(obs.Quantile(d, 0.90))
			r.DelayP99Nanos = int64(obs.Quantile(d, 0.99))
		}
		if ov := lc.Overheads(); len(ov) > 0 {
			sum := 0
			for _, o := range ov {
				sum += o
			}
			r.OverheadPermille = sum / len(ov)
		}
	}
	return r
}

// complain reports the parents of threads silent for longer than the
// complaint timeout.
func (n *Node) complain(ctx context.Context, now time.Time) {
	n.mu.Lock()
	// Completed nodes keep complaining: they are still relays, and a dead
	// ancestor silently starves their whole subtree otherwise.
	if !n.member.State().Admitted() {
		n.mu.Unlock()
		return
	}
	var complaints [][]byte
	for _, th := range n.threads {
		if now.Sub(n.lastRecv[th]) > n.cfg.ComplaintTimeout {
			c := Complaint{ID: n.member.ID(), Thread: th, ParentAddr: n.parentOf[th]}
			if msg, err := EncodeControl(MsgComplaint, c); err == nil {
				complaints = append(complaints, msg)
			}
			n.lastRecv[th] = now // rate-limit: one complaint per timeout
		}
	}
	n.complaintsSent += uint64(len(complaints))
	n.mu.Unlock()
	for _, msg := range complaints {
		if m := n.cfg.Obs; m != nil {
			m.Complaints.Inc()
		}
		_ = n.ep.Send(ctx, n.cfg.TrackerAddr, msg) //nolint:errcheck // best-effort
	}
}

// Congest asks the tracker for §5 congestion relief: one of the node's
// threads is dropped, its parent and child joined directly. The change
// lands asynchronously via MsgThreadDropped.
func (n *Node) Congest(ctx context.Context) error {
	return n.askJoined(ctx, MsgCongested, "congest")
}

// Uncongest asks the tracker to regrow one thread (§5 recovery). The
// change lands asynchronously via MsgThreadAdded.
func (n *Node) Uncongest(ctx context.Context) error {
	return n.askJoined(ctx, MsgUncongested, "uncongest")
}

// askJoined sends the tracker a request only a joined node may make.
func (n *Node) askJoined(ctx context.Context, typ MsgType, what string) error {
	n.mu.Lock()
	id, joined := n.member.ID(), n.member.State().Admitted()
	n.mu.Unlock()
	if !joined {
		return fmt.Errorf("protocol: %s before join", what)
	}
	return n.sendTracker(ctx, typ, id)
}

// Degree returns the node's current thread count.
func (n *Node) Degree() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.threads)
}

// Leave performs the good-bye protocol; Run returns once the ack arrives.
// Run's driver re-sends the good-bye until it is acknowledged (the ack can
// be dropped under congestion; the tracker's handling is idempotent) and
// stops when Run returns. Leaving again while a good-bye is pending adds
// nothing.
func (n *Node) Leave(ctx context.Context) error {
	n.mu.Lock()
	st := n.member.State()
	out := n.member.Leave(time.Now())
	n.armLocked(out)
	id := n.member.ID()
	n.mu.Unlock()
	if !st.Admitted() && st != MemberLeft {
		return errors.New("protocol: leave before join")
	}
	return n.sendTracker(ctx, out.Send, id)
}
