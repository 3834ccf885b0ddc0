package swarm

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"ncast/internal/protocol"
	"ncast/internal/transport"
)

// scriptedTracker is a tracker endpoint the test answers by hand.
type scriptedTracker struct {
	t  *testing.T
	ep transport.Endpoint
}

func newScriptedTracker(t *testing.T, net *transport.Network) *scriptedTracker {
	t.Helper()
	ep, err := net.Endpoint("tracker")
	if err != nil {
		t.Fatal(err)
	}
	return &scriptedTracker{t: t, ep: ep}
}

// trackerMsg is one control message the scripted tracker received.
type trackerMsg struct {
	from string
	typ  protocol.MsgType
	id   uint64 // the payload's id field, when it has one
	at   time.Time
}

func (s *scriptedTracker) recv() trackerMsg {
	s.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		from, frame, err := s.ep.Recv(ctx)
		if err != nil {
			s.t.Fatalf("scripted tracker: %v", err)
		}
		typ, payload, err := protocol.DecodeControl(frame)
		if err != nil {
			continue
		}
		var body struct {
			ID uint64 `json:"id"`
		}
		_ = json.Unmarshal(payload, &body) //nolint:errcheck // hello has no id
		return trackerMsg{from: from, typ: typ, id: body.ID, at: time.Now()}
	}
}

func (s *scriptedTracker) send(to string, typ protocol.MsgType, payload interface{}) {
	s.t.Helper()
	frame, err := protocol.EncodeControl(typ, payload)
	if err != nil {
		s.t.Fatal(err)
	}
	if err := s.ep.Send(context.Background(), to, frame); err != nil {
		s.t.Fatal(err)
	}
}

// scriptedWelcome announces a session large enough (1024 generations)
// that a vnode's synthetic decode never completes during a test.
func scriptedWelcome(id uint64, leaseMillis, statsMillis int64) protocol.Welcome {
	return protocol.Welcome{ID: id, K: 4, Degree: 1, Threads: []int{0},
		LeaseMillis: leaseMillis, StatsMillis: statsMillis,
		Session: protocol.SessionParams{FieldBits: 8, GenSize: 4, PacketSize: 16, ContentLen: 64 << 10}}
}

// memberHost is one host of protocol.Member under the script: a Node or
// a swarm vnode.
type memberHost struct {
	leave    func()
	joinedAs func(id uint64) bool
	left     func() bool
}

// runMembershipScript plays one tracker exchange against a host that has
// started joining: hello (dropped) → retry → welcome → lease → stats →
// expelled → hello → welcome → goodbye (ack dropped) → retry → ack. It
// returns the control-message types it received, in order. Lease and
// stats renewals repeat on their own cadence and are skipped unless the
// script waits for one; any other message the script does not expect is
// recorded too, so it shows in the sequence.
func runMembershipScript(t *testing.T, tr *scriptedTracker, h memberHost) []protocol.MsgType {
	t.Helper()
	var got []protocol.MsgType
	next := func(want protocol.MsgType) trackerMsg {
		t.Helper()
		for {
			m := tr.recv()
			renewal := m.typ == protocol.MsgLease || m.typ == protocol.MsgStatsReport
			if m.typ != want && renewal {
				continue
			}
			got = append(got, m.typ)
			if m.typ != want {
				t.Fatalf("got message type %d while waiting for %d (sequence %v)", m.typ, want, got)
			}
			return m
		}
	}
	await := func(what string, cond func() bool) {
		t.Helper()
		if !waitUntil(5*time.Second, cond) {
			t.Fatalf("host never %s", what)
		}
	}
	first := next(protocol.MsgHello) // dropped
	retry := next(protocol.MsgHello)
	if gap := retry.at.Sub(first.at); gap < 400*time.Millisecond {
		t.Errorf("hello retried after %v, want ~500ms from the last send", gap)
	}
	tr.send(retry.from, protocol.MsgWelcome, scriptedWelcome(1, 100, 100))
	if m := next(protocol.MsgLease); m.id != 1 {
		t.Errorf("lease carries id %d, want 1", m.id)
	}
	next(protocol.MsgStatsReport)
	tr.send(retry.from, protocol.MsgExpelled, protocol.Expelled{ID: 1})
	rehello := next(protocol.MsgHello)
	tr.send(rehello.from, protocol.MsgWelcome, scriptedWelcome(2, 100, 100))
	await("re-joined", func() bool { return h.joinedAs(2) })
	h.leave()
	bye := next(protocol.MsgGoodbye) // ack dropped
	byeRetry := next(protocol.MsgGoodbye)
	if bye.id != 2 || byeRetry.id != 2 {
		t.Errorf("goodbyes carry ids %d, %d, want 2", bye.id, byeRetry.id)
	}
	if gap := byeRetry.at.Sub(bye.at); gap < 400*time.Millisecond {
		t.Errorf("goodbye retried after %v, want ~500ms from the last send", gap)
	}
	tr.send(byeRetry.from, protocol.MsgGoodbyeAck, protocol.GoodbyeAck{})
	await("left", h.left)
	return got
}

// TestMemberConformanceNodeAndVnode drives a protocol.Node and a swarm
// vnode — both hosts of protocol.Member — through the same scripted
// tracker exchange; both must emit the same control-message sequence.
func TestMemberConformanceNodeAndVnode(t *testing.T) {
	want := []protocol.MsgType{protocol.MsgHello, protocol.MsgHello, protocol.MsgLease,
		protocol.MsgStatsReport, protocol.MsgHello, protocol.MsgGoodbye, protocol.MsgGoodbye}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	nodeNet := transport.NewNetwork()
	defer nodeNet.Close()
	tr := newScriptedTracker(t, nodeNet)
	ep, err := nodeNet.Endpoint("node")
	if err != nil {
		t.Fatal(err)
	}
	node := protocol.NewNode(ep, protocol.NodeConfig{TrackerAddr: "tracker"})
	go node.Run(ctx) //nolint:errcheck // returns once the leave is acknowledged
	nodeSeq := runMembershipScript(t, tr, memberHost{
		leave: func() {
			if err := node.Leave(ctx); err != nil {
				t.Error(err)
			}
		},
		joinedAs: func(id uint64) bool { return node.ID() == id },
		left: func() bool {
			select {
			case <-node.Left():
				return true
			default:
				return false
			}
		},
	})

	swarmNet := transport.NewNetwork()
	defer swarmNet.Close()
	tr = newScriptedTracker(t, swarmNet)
	sw, err := New(Config{N: 1, Shards: 1, Network: swarmNet, TrackerAddr: "tracker", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sw.Start(ctx)
	defer sw.Close()
	sw.Join(0)
	vnodeSeq := runMembershipScript(t, tr, memberHost{
		leave:    func() { sw.Leave(0) },
		joinedAs: func(id uint64) bool { return sw.State(0) == StateJoined && sw.NodeID(0) == id },
		left:     func() bool { return sw.State(0) == StateLeft },
	})

	for _, seq := range []struct {
		host string
		got  []protocol.MsgType
	}{{"node", nodeSeq}, {"vnode", vnodeSeq}} {
		if len(seq.got) != len(want) {
			t.Fatalf("%s sent %v, want %v", seq.host, seq.got, want)
		}
		for i := range want {
			if seq.got[i] != want[i] {
				t.Fatalf("%s sent %v, want %v", seq.host, seq.got, want)
			}
		}
	}
}
