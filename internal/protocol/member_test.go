package protocol

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// memberInput is one input the tests can feed a Member.
type memberInput int

const (
	inJoin memberInput = iota
	inLeave
	inCrash
	inWelcome
	inGoodbyeAck
	inExpelled
	inError
	inFireHello
	inFireLease
	inFireStats
	inFireGoodbye
	inFireStale
	numMemberInputs
)

var memberInputNames = [...]string{"join", "leave", "crash", "welcome", "goodbye-ack",
	"expelled", "error", "fire-hello", "fire-lease", "fire-stats", "fire-goodbye", "fire-stale"}

var memberStateNames = [...]string{"idle", "joining", "joined", "leaving", "left", "crashed", "rejected"}

const (
	testLeaseEvery  = 200 * time.Millisecond
	testStatsEvery  = 300 * time.Millisecond
	testLeaseJitter = 7 * time.Millisecond
	testStatsJitter = 3 * time.Millisecond
)

// testJitter returns a fixed first delay per kind, so tests can check the
// Member passes the host's jitter through.
func testJitter(kind TimerKind, every time.Duration) time.Duration {
	if kind == TimerLease {
		return testLeaseJitter
	}
	return testStatsJitter
}

func controlPayload(t testing.TB, v interface{}) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// feed applies one input at now; fire inputs use a timer of the named
// kind at the member's current epoch (fire-stale: the previous epoch).
func feed(t testing.TB, m *Member, in memberInput, now time.Time, id uint64) MemberOutput {
	t.Helper()
	fire := func(k TimerKind, epoch uint32) MemberOutput {
		return m.Fire(now, MemberTimer{Due: now, Kind: k, Epoch: epoch})
	}
	control := func(typ MsgType, v interface{}) MemberOutput {
		out, ok := m.Control(now, typ, controlPayload(t, v), testJitter)
		if !ok {
			t.Fatalf("Control(%v) not handled", typ)
		}
		return out
	}
	switch in {
	case inJoin:
		return m.Join(now)
	case inLeave:
		return m.Leave(now)
	case inCrash:
		return m.Crash(now)
	case inWelcome:
		return control(MsgWelcome, Welcome{ID: id, LeaseMillis: testLeaseEvery.Milliseconds(),
			StatsMillis: testStatsEvery.Milliseconds()})
	case inGoodbyeAck:
		return control(MsgGoodbyeAck, GoodbyeAck{})
	case inExpelled:
		return control(MsgExpelled, Expelled{ID: m.ID()})
	case inError:
		return control(MsgError, ErrorMsg{Reason: "refused"})
	case inFireHello:
		return fire(TimerHello, m.epoch)
	case inFireLease:
		return fire(TimerLease, m.epoch)
	case inFireStats:
		return fire(TimerStats, m.epoch)
	case inFireGoodbye:
		return fire(TimerGoodbye, m.epoch)
	case inFireStale:
		return fire(timerKindOf(m.State()), m.epoch-1)
	}
	t.Fatalf("unknown input %d", in)
	return MemberOutput{}
}

// timerKindOf names a timer that acts in state s (hello otherwise).
func timerKindOf(s MemberState) TimerKind {
	switch s {
	case MemberJoined:
		return TimerLease
	case MemberLeaving:
		return TimerGoodbye
	}
	return TimerHello
}

// memberIn drives a fresh Member into state s through its inputs.
func memberIn(t *testing.T, s MemberState, now time.Time) *Member {
	t.Helper()
	paths := map[MemberState][]memberInput{
		MemberIdle:     nil,
		MemberJoining:  {inJoin},
		MemberJoined:   {inJoin, inWelcome},
		MemberLeaving:  {inJoin, inWelcome, inLeave},
		MemberLeft:     {inJoin, inWelcome, inLeave, inGoodbyeAck},
		MemberCrashed:  {inJoin, inCrash},
		MemberRejected: {inJoin, inError},
	}
	m := new(Member)
	for _, in := range paths[s] {
		feed(t, m, in, now, 9)
	}
	if m.State() != s {
		t.Fatalf("driving to %s reached %s", memberStateNames[s], memberStateNames[m.State()])
	}
	return m
}

// TestMemberTransitions checks every (state, input) pair with a synthetic
// clock: the next state, the message sent, the event reported, and the
// timers armed (kind, due time, epoch). Pairs not listed change nothing
// and return nothing.
func TestMemberTransitions(t *testing.T) {
	type want struct {
		state MemberState
		send  MsgType
		event MemberEvent
		arms  []TimerKind
	}
	hello := want{MemberJoining, MsgHello, EventJoining, []TimerKind{TimerHello}}
	table := map[[2]int]want{
		{int(MemberIdle), int(inJoin)}:           hello,
		{int(MemberLeft), int(inJoin)}:           hello,
		{int(MemberCrashed), int(inJoin)}:        hello,
		{int(MemberRejected), int(inJoin)}:       hello,
		{int(MemberJoining), int(inWelcome)}:     {MemberJoined, 0, EventJoined, []TimerKind{TimerLease, TimerStats}},
		{int(MemberJoining), int(inError)}:       {MemberRejected, 0, EventRejected, nil},
		{int(MemberJoining), int(inCrash)}:       {MemberCrashed, 0, EventCrashed, nil},
		{int(MemberJoining), int(inFireHello)}:   {MemberJoining, MsgHello, EventNone, []TimerKind{TimerHello}},
		{int(MemberJoined), int(inLeave)}:        {MemberLeaving, MsgGoodbye, EventNone, []TimerKind{TimerGoodbye}},
		{int(MemberJoined), int(inCrash)}:        {MemberCrashed, 0, EventCrashed, nil},
		{int(MemberJoined), int(inWelcome)}:      {MemberJoined, 0, EventDupWelcome, nil},
		{int(MemberJoined), int(inExpelled)}:     {MemberJoining, MsgHello, EventExpelled, []TimerKind{TimerHello}},
		{int(MemberJoined), int(inFireLease)}:    {MemberJoined, MsgLease, EventNone, []TimerKind{TimerLease}},
		{int(MemberJoined), int(inFireStats)}:    {MemberJoined, MsgStatsReport, EventNone, []TimerKind{TimerStats}},
		{int(MemberLeaving), int(inGoodbyeAck)}:  {MemberLeft, 0, EventLeft, nil},
		{int(MemberLeaving), int(inCrash)}:       {MemberCrashed, 0, EventCrashed, nil},
		{int(MemberLeaving), int(inFireGoodbye)}: {MemberLeaving, MsgGoodbye, EventNone, []TimerKind{TimerGoodbye}},
	}
	now := time.Unix(1_000_000, 0)
	for s := MemberIdle; s <= MemberRejected; s++ {
		for in := memberInput(0); in < numMemberInputs; in++ {
			name := memberStateNames[s] + "/" + memberInputNames[in]
			m := memberIn(t, s, now.Add(-time.Hour))
			epoch, id := m.epoch, m.ID()
			w, listed := table[[2]int{int(s), int(in)}]
			if !listed {
				w = want{state: s}
			}
			out := feed(t, m, in, now, 42)
			if m.State() != w.state || out.Send != w.send || out.Event != w.event || out.NTimers != len(w.arms) {
				t.Errorf("%s: state %s send %v event %v timers %d, want %s %v %v %d", name,
					memberStateNames[m.State()], out.Send, out.Event, out.NTimers,
					memberStateNames[w.state], w.send, w.event, len(w.arms))
				continue
			}
			// Exactly the transitions that change state move the epoch.
			if bumped := m.epoch != epoch; bumped != (w.state != s) || m.epoch < epoch || m.epoch > epoch+1 {
				t.Errorf("%s: epoch %d -> %d", name, epoch, m.epoch)
			}
			for i, k := range w.arms {
				tm := out.Timers[i]
				due := now.Add(map[TimerKind]time.Duration{TimerHello: retryEvery, TimerGoodbye: retryEvery,
					TimerLease: testLeaseEvery, TimerStats: testStatsEvery}[k])
				if out.Event == EventJoined { // first lease and stats after the host's jitter
					due = now.Add(testJitter(k, 0))
				}
				if tm.Kind != k || !tm.Due.Equal(due) || tm.Epoch != m.epoch {
					t.Errorf("%s: timer %d = %+v, want kind %d due %v epoch %d", name, i, tm, k, due, m.epoch)
				}
			}
			switch {
			case out.Event == EventJoined && (out.Welcome == nil || m.ID() != 42):
				t.Errorf("%s: welcome %+v, id %d", name, out.Welcome, m.ID())
			case out.Event == EventRejected && out.Reason != "refused":
				t.Errorf("%s: reason %q", name, out.Reason)
			case w.state == MemberJoining && m.ID() != 0:
				t.Errorf("%s: joining with id %d", name, m.ID())
			case !listed && m.ID() != id:
				t.Errorf("%s: ignored input changed id %d -> %d", name, id, m.ID())
			}
		}
	}
}

// TestMemberHelloRetry: a host-set HelloRetry times the hello retries; the
// zero value means 500 ms.
func TestMemberHelloRetry(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	for _, c := range []struct{ set, want time.Duration }{{0, retryEvery}, {2 * time.Second, 2 * time.Second}} {
		m := Member{HelloRetry: c.set}
		out := m.Join(now)
		if out.Timers[0].Due != now.Add(c.want) {
			t.Errorf("HelloRetry %v: join retry due %v, want %v", c.set, out.Timers[0].Due.Sub(now), c.want)
		}
		out = m.Fire(now, out.Timers[0])
		if out.Send != MsgHello || out.Timers[0].Due != now.Add(c.want) {
			t.Errorf("HelloRetry %v: retry %+v", c.set, out)
		}
	}
}

// TestMemberControlDispatch: only the four membership messages reach the
// Member; a malformed one is consumed and ignored; a welcome without
// lease or stats intervals arms nothing (and needs no jitter).
func TestMemberControlDispatch(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	var m Member
	m.Join(now)
	for _, typ := range []MsgType{MsgRedirect, MsgThreadAdded, MsgThreadDropped, MsgHello, MsgLease} {
		if _, ok := m.Control(now, typ, json.RawMessage(`{}`), nil); ok {
			t.Errorf("Control handled %v", typ)
		}
	}
	for _, typ := range []MsgType{MsgWelcome, MsgError} {
		if out, ok := m.Control(now, typ, json.RawMessage(`{"id":`), nil); !ok || out != (MemberOutput{}) {
			t.Errorf("malformed %v: %+v handled=%v", typ, out, ok)
		}
	}
	if m.State() != MemberJoining {
		t.Fatalf("malformed input moved the member to %s", memberStateNames[m.State()])
	}
	out, _ := m.Control(now, MsgWelcome, controlPayload(t, Welcome{ID: 3}), nil)
	if out.Event != EventJoined || out.NTimers != 0 {
		t.Errorf("welcome without intervals: %+v", out)
	}
}

// TestMemberExplorer applies seeded random schedules — join, leave and
// crash; welcome, goodbye ack, expulsion and error arriving in any state,
// duplicated or never; stale and current timers firing in any order — and
// checks the machine's invariants after every step. A failure names its
// seed: exploreMember(t, seed, steps) replays it.
func TestMemberExplorer(t *testing.T) {
	seeds, steps := int64(400), 400
	if testing.Short() {
		seeds = 100
	}
	for seed := int64(1); seed <= seeds; seed++ {
		exploreMember(t, seed, steps)
	}
}

func exploreMember(t *testing.T, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var m Member
	now := time.Unix(1_000_000, 0)
	var armed []MemberTimer // every timer armed and not yet fired
	var trace []string
	fail := func(format string, args ...interface{}) {
		t.Helper()
		t.Fatalf("explorer seed %d step %d: %s\ntrace: %s", seed, len(trace),
			fmt.Sprintf(format, args...), strings.Join(trace, " "))
	}
	for step := 0; step < steps; step++ {
		now = now.Add(time.Duration(rng.Int63n(int64(time.Second))))
		in := memberInput(rng.Intn(int(inFireHello) + 1)) // inFireHello: fire any armed timer
		repeat := 1
		if in >= inWelcome && in <= inError && rng.Intn(4) == 0 {
			repeat = 2 // a duplicated tracker message
		}
		for r := 0; r < repeat; r++ {
			before, epoch := m.State(), m.epoch
			var out MemberOutput
			name := memberInputNames[in]
			if in == inFireHello {
				if len(armed) == 0 {
					break
				}
				i := rng.Intn(len(armed))
				tm := armed[i]
				armed = append(armed[:i], armed[i+1:]...)
				name = fmt.Sprintf("fire(kind=%d,stale=%v)", tm.Kind, tm.Epoch != m.epoch)
				out = m.Fire(now, tm)
			} else {
				out = feed(t, &m, in, now, uint64(1+rng.Intn(5)))
			}
			armed = append(armed, out.Timers[:out.NTimers]...)
			trace = append(trace, name)
			checkStep(fail, before, epoch, in, &m, out, armed)
		}
	}
}

// checkStep asserts the Member's invariants after one input.
func checkStep(fail func(string, ...interface{}), before MemberState, epoch uint32, in memberInput,
	m *Member, out MemberOutput, armed []MemberTimer) {
	after := m.State()
	switch out.Send {
	case MsgLease, MsgStatsReport:
		if before != MemberJoined || after != MemberJoined {
			fail("%v sent in %s -> %s", out.Send, memberStateNames[before], memberStateNames[after])
		}
	case MsgGoodbye:
		if after != MemberLeaving {
			fail("goodbye sent in %s", memberStateNames[after])
		}
	case MsgHello:
		if after != MemberJoining {
			fail("hello sent in %s", memberStateNames[after])
		}
	}
	switch before {
	case MemberLeft, MemberRejected, MemberCrashed:
		if in != inJoin && (out.Send != 0 || out.NTimers != 0) {
			fail("%s member sent %v, armed %d", memberStateNames[before], out.Send, out.NTimers)
		}
	}
	if m.epoch < epoch {
		fail("epoch fell %d -> %d", epoch, m.epoch)
	}
	var live [numTimerKinds]int
	for _, tm := range armed {
		if tm.Epoch != m.epoch {
			continue
		}
		if live[tm.Kind]++; live[tm.Kind] > 1 {
			fail("two live %d timers", tm.Kind)
		}
		if timerState[tm.Kind] != after {
			fail("live %d timer in %s", tm.Kind, memberStateNames[after])
		}
	}
}
