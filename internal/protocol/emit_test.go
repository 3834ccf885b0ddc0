package protocol

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ncast/internal/gf"
	"ncast/internal/obs"
	"ncast/internal/rlnc"
	"ncast/internal/transport"
)

// countingEndpoint is a transport stub that accepts every frame and
// cancels the run it feeds once limit frames were sent. Only Source.Run
// calls Send, from one goroutine.
type countingEndpoint struct {
	sent, limit int
	cancel      context.CancelFunc
}

func (e *countingEndpoint) Addr() string { return "source" }
func (e *countingEndpoint) Close() error { return nil }

func (e *countingEndpoint) Send(context.Context, string, []byte) error {
	if e.sent++; e.sent == e.limit {
		e.cancel()
	}
	return nil
}

func (e *countingEndpoint) Recv(ctx context.Context) (string, []byte, error) {
	<-ctx.Done()
	return "", nil, ctx.Err()
}

// TestSourceEmitAllocs is the source's allocation guard: Source.Run
// encodes every frame into a pooled buffer and returns each packet to the
// packet pool, so the bytes allocated per emitted frame stay far below
// one packet's payload. What remains is the per-send timeout context and
// the per-round copy of the routing table. Without the pooled frame and
// the packet release a frame costs ~2.5 KiB.
func TestSourceEmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	const threads, frames = 4, 20000
	params := rlnc.Params{Field: gf.F256, GenSize: 16, PacketSize: 1024}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ep := &countingEndpoint{limit: frames, cancel: cancel}
	src, err := NewSource(ep, threads, params, randContent(8*16*1024), 1)
	if err != nil {
		t.Fatal(err)
	}
	src.Systematic = true // the first 128 frames are systematic, the rest coded
	src.LinkSeq = true
	for th := 0; th < threads; th++ {
		src.SetChild(th, fmt.Sprintf("child-%d", th))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := src.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	runtime.ReadMemStats(&after)
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / float64(ep.sent)
	t.Logf("%d frames, %.0f B and %.2f objects allocated per frame", ep.sent, perFrame,
		float64(after.Mallocs-before.Mallocs)/float64(ep.sent))
	if perFrame >= 1024 {
		t.Fatalf("source allocates %.0f B per emitted frame, want < 1024", perFrame)
	}
}

// TestSendErrorsCounted checks that the data-plane sends whose errors are
// otherwise swallowed are counted: the source pumping a thread routed to
// a peer the fabric does not know, and a node sending to one.
func TestSendErrorsCounted(t *testing.T) {
	t.Parallel()
	net := transport.NewNetwork()
	defer net.Close()
	reg := obs.NewRegistry()

	srcEP, err := net.Endpoint("source")
	if err != nil {
		t.Fatal(err)
	}
	params := rlnc.Params{Field: gf.F256, GenSize: 4, PacketSize: 64}
	src, err := NewSource(srcEP, 1, params, randContent(256), 1)
	if err != nil {
		t.Fatal(err)
	}
	src.Obs = obs.NewSourceMetrics(reg)
	src.RoundInterval = time.Millisecond
	src.SetChild(0, "ghost")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- src.Run(ctx) }()
	waitFor(t, 5*time.Second, "source send errors", func() bool { return src.Obs.SendErrors.Value() >= 3 })
	cancel()
	<-done
	if n := src.Obs.Packets.Value(); n != 0 {
		t.Fatalf("source counted %d packets sent to an unknown peer", n)
	}

	nodeEP, err := net.Endpoint("node")
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewNodeMetrics(reg, "node")
	n := NewNode(nodeEP, NodeConfig{TrackerAddr: "tracker", Obs: m})
	n.sendData(context.Background(), outFrame{to: "ghost", frame: EncodeKeepalive(0, 0, 0, 0)})
	n.sendData(context.Background(), outFrame{to: "source", frame: EncodeKeepalive(0, 0, 0, 0)})
	if got := m.SendErrors.Value(); got != 1 {
		t.Fatalf("node send errors = %d after one failed and one delivered send, want 1", got)
	}
}
