package protocol

import (
	"encoding/json"
	"time"
)

// MemberState is a client's position in the §3 membership lifecycle.
type MemberState int32

// Membership states. Values are stable: the swarm harness exports them.
const (
	MemberIdle MemberState = iota
	MemberJoining
	MemberJoined
	MemberLeaving
	MemberLeft
	MemberCrashed
	MemberRejected
)

// Admitted reports whether the tracker holds a row for a member in state
// s: welcomed and not yet acknowledged out. A leaving member still relays.
func (s MemberState) Admitted() bool { return s == MemberJoined || s == MemberLeaving }

// TimerKind names one of a Member's clocks.
type TimerKind uint8

// Timer kinds.
const (
	TimerHello   TimerKind = iota // retry an unanswered hello
	TimerLease                    // renew the liveness lease
	TimerStats                    // send a telemetry report
	TimerGoodbye                  // retry an unacknowledged goodbye
	numTimerKinds
)

// timerState and timerMsg give, per timer kind, the only state in which
// the timer acts and the message it sends then.
var (
	timerState = [numTimerKinds]MemberState{MemberJoining, MemberJoined, MemberJoined, MemberLeaving}
	timerMsg   = [numTimerKinds]MsgType{MsgHello, MsgLease, MsgStatsReport, MsgGoodbye}
)

// retryEvery is how long an unanswered hello (unless Member.HelloRetry
// says otherwise) or an unacknowledged goodbye waits before it is re-sent.
const retryEvery = 500 * time.Millisecond

// MemberTimer asks the host to call Member.Fire with it at Due. A timer
// whose Epoch is no longer the member's is stale and fires as a no-op, so
// hosts never cancel timers; at most one timer per kind is live.
type MemberTimer struct {
	Due   time.Time
	Kind  TimerKind
	Epoch uint32
}

// MemberEvent is a lifecycle transition the host acts on.
type MemberEvent uint8

// Member events.
const (
	EventNone       MemberEvent = iota
	EventJoining                // Join started a join attempt
	EventJoined                 // a welcome was accepted; Welcome holds it
	EventDupWelcome             // a welcome arrived while joined; ignored
	EventExpelled               // the row was removed while joined; re-joining
	EventLeft                   // the goodbye was acknowledged
	EventRejected               // the join was refused; Reason says why
	EventCrashed                // Crash silenced the member
)

// MemberOutput is everything one input asks of the host: at most one
// control message for the tracker, timers to arm, and a transition.
type MemberOutput struct {
	// Send is the control message for the tracker, or zero. The host builds
	// its payload (goodbye and lease carry Member.ID).
	Send    MsgType
	Event   MemberEvent
	Timers  [2]MemberTimer
	NTimers int
	Welcome *Welcome
	Reason  string
}

// Jitter returns the delay from the welcome to the first timer of kind,
// which then repeats every `every`.
type Jitter func(kind TimerKind, every time.Duration) time.Duration

// Member is one client's membership lifecycle as a sans-IO state machine:
// hello until welcomed, renew the lease and report stats while joined,
// goodbye until acknowledged, hello again when expelled. It reads no
// clock, starts no goroutine, takes no lock and draws no randomness:
// every input carries now, and each returns what to send and which timers
// to arm. The zero value is an idle member.
type Member struct {
	// HelloRetry is how long an unanswered hello waits before it is sent
	// again; zero means 500 ms.
	HelloRetry time.Duration

	state MemberState
	// epoch invalidates armed timers: every transition bumps it.
	epoch      uint32
	id         uint64
	leaseEvery time.Duration
	statsEvery time.Duration
}

// State returns the member's lifecycle state.
func (m *Member) State() MemberState { return m.state }

// ID returns the tracker-assigned id (0 while not welcomed).
func (m *Member) ID() uint64 { return m.id }

func (m *Member) period(k TimerKind) time.Duration {
	switch {
	case k == TimerLease:
		return m.leaseEvery
	case k == TimerStats:
		return m.statsEvery
	case k == TimerHello && m.HelloRetry > 0:
		return m.HelloRetry
	}
	return retryEvery
}

// enter moves to state s, cancelling every armed timer, and reports ev.
func (m *Member) enter(s MemberState, ev MemberEvent) MemberOutput {
	m.state = s
	m.epoch++
	return MemberOutput{Event: ev}
}

// send asks for kind's message now and arms kind to repeat it.
func (m *Member) send(now time.Time, out *MemberOutput, k TimerKind) {
	out.Send = timerMsg[k]
	m.arm(out, k, now.Add(m.period(k)))
}

func (m *Member) arm(out *MemberOutput, k TimerKind, due time.Time) {
	out.Timers[out.NTimers] = MemberTimer{Due: due, Kind: k, Epoch: m.epoch}
	out.NTimers++
}

// Join starts a join attempt unless one is under way or the member is
// admitted; a left, rejected or crashed member joins afresh.
func (m *Member) Join(now time.Time) (out MemberOutput) {
	if m.state != MemberJoining && !m.state.Admitted() {
		out = m.hello(now, EventJoining)
	}
	return out
}

func (m *Member) hello(now time.Time, ev MemberEvent) MemberOutput {
	out := m.enter(MemberJoining, ev)
	m.id = 0
	m.send(now, &out, TimerHello)
	return out
}

// Leave says goodbye, re-sent until acknowledged; only a joined member
// leaves.
func (m *Member) Leave(now time.Time) (out MemberOutput) {
	if m.state == MemberJoined {
		out = m.enter(MemberLeaving, EventNone)
		m.send(now, &out, TimerGoodbye)
	}
	return out
}

// Crash silences a joining or admitted member: no goodbye, every timer
// cancelled, every message ignored until the next Join.
func (m *Member) Crash(now time.Time) (out MemberOutput) {
	if m.state == MemberJoining || m.state.Admitted() {
		out = m.enter(MemberCrashed, EventCrashed)
	}
	return out
}

// Control feeds one decoded control message to the member: a welcome
// admits a joining member and arms its lease and stats clocks at the
// announced intervals, the first of each after jitter (a duplicate while
// joined is reported and otherwise ignored); a goodbye ack completes a
// leave; an expulsion re-joins a joined member; an error rejects a
// joining one. A message in any other state, or malformed, is ignored.
// Control reports false for message types outside the membership
// lifecycle, which the host handles itself.
func (m *Member) Control(now time.Time, typ MsgType, payload json.RawMessage, jitter Jitter) (MemberOutput, bool) {
	switch typ {
	case MsgWelcome:
		if m.state == MemberJoined {
			return MemberOutput{Event: EventDupWelcome}, true
		}
		w := new(Welcome)
		if m.state != MemberJoining || json.Unmarshal(payload, w) != nil {
			break
		}
		out := m.enter(MemberJoined, EventJoined)
		out.Welcome = w
		m.id = w.ID
		m.leaseEvery = time.Duration(w.LeaseMillis) * time.Millisecond
		m.statsEvery = time.Duration(w.StatsMillis) * time.Millisecond
		for _, k := range [...]TimerKind{TimerLease, TimerStats} {
			if every := m.period(k); every > 0 {
				m.arm(&out, k, now.Add(jitter(k, every)))
			}
		}
		return out, true
	case MsgGoodbyeAck:
		if m.state == MemberLeaving {
			return m.enter(MemberLeft, EventLeft), true
		}
	case MsgExpelled:
		if m.state == MemberJoined {
			return m.hello(now, EventExpelled), true
		}
	case MsgError:
		var e ErrorMsg
		if m.state == MemberJoining && json.Unmarshal(payload, &e) == nil {
			out := m.enter(MemberRejected, EventRejected)
			out.Reason = e.Reason
			return out, true
		}
	default:
		return MemberOutput{}, false
	}
	return MemberOutput{}, true
}

// Fire runs a timer the member armed; a stale one does nothing.
func (m *Member) Fire(now time.Time, t MemberTimer) MemberOutput {
	var out MemberOutput
	if t.Epoch == m.epoch && t.Kind < numTimerKinds && m.state == timerState[t.Kind] {
		m.send(now, &out, t.Kind)
	}
	return out
}
