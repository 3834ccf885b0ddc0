package protocol

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"ncast/internal/transport"
)

// scriptedTracker is a tracker endpoint the test answers by hand, for
// driving one Node through an exact membership exchange.
type scriptedTracker struct {
	t  *testing.T
	ep transport.Endpoint
}

// startScripted builds a fabric with a scripted tracker and one node.
func startScripted(t *testing.T, cfg NodeConfig) (*scriptedTracker, *Node) {
	t.Helper()
	net := transport.NewNetwork()
	t.Cleanup(func() { net.Close() })
	tep, err := net.Endpoint("tracker")
	if err != nil {
		t.Fatal(err)
	}
	nep, err := net.Endpoint("node")
	if err != nil {
		t.Fatal(err)
	}
	cfg.TrackerAddr = "tracker"
	return &scriptedTracker{t: t, ep: tep}, NewNode(nep, cfg)
}

// scriptedWelcome is a valid welcome for a one-thread session.
func scriptedWelcome(id uint64) Welcome {
	return Welcome{ID: id, K: 4, Degree: 1, Threads: []int{0},
		Session: SessionParams{FieldBits: 8, GenSize: 4, PacketSize: 16, ContentLen: 64}}
}

// recv returns the next control message within timeout (ok false when
// none arrived).
func (s *scriptedTracker) recv(timeout time.Duration) (from string, typ MsgType, ok bool) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		from, frame, err := s.ep.Recv(ctx)
		if err != nil {
			return "", 0, false
		}
		if typ, _, err := DecodeControl(frame); err == nil {
			return from, typ, true
		}
	}
}

// expect waits for a control message of type want, skipping others.
func (s *scriptedTracker) expect(want MsgType) string {
	s.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		from, typ, ok := s.recv(time.Until(deadline))
		if !ok {
			s.t.Fatalf("no message of type %d within 5s", want)
		}
		if typ == want {
			return from
		}
	}
}

// count counts messages of type typ arriving within d.
func (s *scriptedTracker) count(typ MsgType, d time.Duration) int {
	n := 0
	deadline := time.Now().Add(d)
	for {
		_, got, ok := s.recv(time.Until(deadline))
		if !ok {
			return n
		}
		if got == typ {
			n++
		}
	}
}

func (s *scriptedTracker) send(to string, typ MsgType, payload interface{}) {
	s.t.Helper()
	frame, err := EncodeControl(typ, payload)
	if err != nil {
		s.t.Fatal(err)
	}
	if err := s.ep.Send(context.Background(), to, frame); err != nil {
		s.t.Fatal(err)
	}
}

// TestRejectionAfterExpulsionEndsRun: a node that was welcomed, expelled
// and then refused on its re-hello must return the rejection from Run
// even though nobody reads Joined(): the first welcome already fills that
// channel, so delivering the rejection must not block on it.
func TestRejectionAfterExpulsionEndsRun(t *testing.T) {
	t.Parallel()
	tr, node := startScripted(t, NodeConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- node.Run(ctx) }()

	from := tr.expect(MsgHello)
	tr.send(from, MsgWelcome, scriptedWelcome(7))
	tr.send(from, MsgExpelled, Expelled{ID: 7})
	tr.expect(MsgHello) // the re-join hello: the expulsion was processed
	tr.send(from, MsgError, ErrorMsg{Reason: "overlay full"})
	select {
	case err := <-runErr:
		if err == nil || !strings.Contains(err.Error(), "overlay full") {
			t.Fatalf("Run returned %v, want the rejection", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Run did not return the rejection within 1s")
	}
}

// TestGoodbyeRetriesStopWithRun: good-bye retries belong to Run, not to
// Leave's context — ncast-node calls Leave(context.Background()) — so they
// stop when Run returns, and a second Leave adds no second retry stream.
func TestGoodbyeRetriesStopWithRun(t *testing.T) {
	t.Parallel()
	tr, node := startScripted(t, NodeConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- node.Run(ctx) }()

	from := tr.expect(MsgHello)
	tr.send(from, MsgWelcome, scriptedWelcome(7))
	if err := <-node.Joined(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // two Leave calls at once, racing the driver
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := node.Leave(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// The ack never comes. One stream sends the good-bye at once and again
	// every 500 ms: three in 1.2 s (two streams would send six).
	if n := tr.count(MsgGoodbye, 1200*time.Millisecond); n < 2 || n > 3 {
		t.Fatalf("%d good-byes in 1.2s, want 2-3 from one retry stream", n)
	}
	cancel()
	if err := <-runErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v", err)
	}
	tr.count(MsgGoodbye, 50*time.Millisecond) // drain what was sent before Run returned
	if n := tr.count(MsgGoodbye, 1200*time.Millisecond); n != 0 {
		t.Fatalf("%d good-byes after Run returned", n)
	}
}

// TestFirstReportsOnPollGrid: the first lease and stats report follow the
// welcome on the 250 ms grid from Run's start, however long the announced
// intervals are.
func TestFirstReportsOnPollGrid(t *testing.T) {
	t.Parallel()
	tr, node := startScripted(t, NodeConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go node.Run(ctx) //nolint:errcheck // cancelled at the end

	from := tr.expect(MsgHello)
	w := scriptedWelcome(7)
	w.LeaseMillis, w.StatsMillis = 60_000, 60_000
	tr.send(from, MsgWelcome, w)
	welcomed := time.Now()
	tr.expect(MsgLease)
	tr.expect(MsgStatsReport)
	if d := time.Since(welcomed); d > 400*time.Millisecond {
		t.Fatalf("first lease and stats report %v after the welcome, want within the 250ms grid", d)
	}
}
