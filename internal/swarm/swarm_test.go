package swarm

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"ncast/internal/protocol"
	"ncast/internal/transport"
)

// drillN is the scaled-down drill population for `make swarm` (the full
// 100k run lives in cmd/ncast-scale). Short mode shrinks it further so
// plain `go test ./...` stays quick.
func drillN(t *testing.T) int {
	t.Helper()
	if testing.Short() {
		return 200
	}
	return 1000
}

func testDrillConfig(n int) DrillConfig {
	return DrillConfig{
		N:             n,
		Shards:        4,
		Seed:          7,
		K:             16,
		D:             2,
		LeaseTimeout:  1200 * time.Millisecond,
		StatsInterval: 250 * time.Millisecond,
		Timeout:       90 * time.Second,
	}
}

func checkDrill(t *testing.T, r DrillResult, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("drill error: %v", err)
	}
	for _, g := range r.Gates {
		if g.Pass {
			t.Logf("gate %s: ok (%s)", g.Name, g.Detail)
		} else {
			t.Errorf("gate %s FAILED: %s", g.Name, g.Detail)
		}
	}
	if !r.Passed {
		t.Errorf("drill %s failed (metrics: %v)", r.Name, r.Metrics)
	}
}

func TestSwarmDrillFlashCrowd(t *testing.T) {
	r, err := RunFlashCrowd(testDrillConfig(drillN(t)))
	checkDrill(t, r, err)
}

func TestSwarmDrillChurnRejoin(t *testing.T) {
	r, err := RunChurnRejoin(testDrillConfig(drillN(t)))
	checkDrill(t, r, err)
}

func TestSwarmDrillHeterogeneous(t *testing.T) {
	r, err := RunHeterogeneous(testDrillConfig(drillN(t)))
	checkDrill(t, r, err)
}

func TestSwarmDrillAdversarialBatch(t *testing.T) {
	r, err := RunAdversarialBatch(testDrillConfig(drillN(t)))
	checkDrill(t, r, err)
}

// TestSwarmLifecycle walks one population through join, graceful leave,
// silent crash, and rejoin, checking the tracker's census at each step.
func TestSwarmLifecycle(t *testing.T) {
	cfg := DrillConfig{
		N:            100,
		Shards:       2,
		Seed:         11,
		K:            8,
		D:            2,
		LeaseTimeout: 600 * time.Millisecond,
	}.withDefaults()
	env, err := startEnv(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.stop()

	env.swarm.JoinRange(0, 100)
	if !waitUntil(30*time.Second, func() bool { return env.swarm.JoinedCount() == 100 }) {
		t.Fatalf("join wave: %d/100 joined", env.swarm.JoinedCount())
	}

	// Graceful leaves shrink the census via goodbye/ack.
	for i := 0; i < 10; i++ {
		env.swarm.Leave(i)
	}
	if !waitUntil(30*time.Second, func() bool { return env.tracker.NumNodes() == 90 }) {
		t.Fatalf("after leaves: tracker has %d rows, want 90", env.tracker.NumNodes())
	}
	if c := env.swarm.Counts(); c.Leaves != 10 {
		t.Fatalf("acked leaves = %d, want 10", c.Leaves)
	}

	// Silent crashes need the lease sweep.
	for i := 10; i < 20; i++ {
		env.swarm.Crash(i)
	}
	if !waitUntil(30*time.Second, func() bool { return env.tracker.NumNodes() == 80 }) {
		t.Fatalf("after crashes: tracker has %d rows, want 80", env.tracker.NumNodes())
	}

	// Crashed nodes rejoin as fresh rows.
	for i := 10; i < 20; i++ {
		env.swarm.Join(i)
	}
	if !waitUntil(30*time.Second, func() bool { return env.tracker.NumNodes() == 90 }) {
		t.Fatalf("after rejoins: tracker has %d rows, want 90", env.tracker.NumNodes())
	}
	if c := env.swarm.Counts(); c.Rejoins != 10 {
		t.Fatalf("rejoins = %d, want 10", c.Rejoins)
	}
	if err := env.tracker.CheckInvariants(); err != nil {
		t.Fatalf("invariants after lifecycle: %v", err)
	}
}

func TestWheelFiresInDueOrderAcrossRotations(t *testing.T) {
	w := newWheel(time.Millisecond, 8) // tiny wheel: entries must survive rotations
	base := time.Now()
	var fired []int32
	// Schedule out of order, including one beyond a full rotation (8ms).
	for _, e := range []struct {
		node int32
		ms   int
	}{{3, 30}, {1, 2}, {2, 12}, {0, 1}} {
		w.add(timerEntry{due: base.Add(time.Duration(e.ms) * time.Millisecond), node: e.node})
	}
	for step := 0; step <= 40; step++ {
		w.advance(base.Add(time.Duration(step)*time.Millisecond), func(e timerEntry) {
			fired = append(fired, e.node)
		})
	}
	if len(fired) != 4 {
		t.Fatalf("fired %d entries, want 4 (%v)", len(fired), fired)
	}
	for i, want := range []int32{0, 1, 2, 3} {
		if fired[i] != want {
			t.Fatalf("fire order = %v, want [0 1 2 3]", fired)
		}
	}
	if w.pending() {
		t.Fatal("wheel still pending after all entries fired")
	}
}

func TestWheelLazyCancellation(t *testing.T) {
	w := newWheel(time.Millisecond, 16)
	base := time.Now()
	w.add(timerEntry{due: base.Add(2 * time.Millisecond), node: 1, epoch: 1})
	// The node "crashed": its epoch moved on; the shard-level fire filter
	// is what drops the entry, so the wheel still surfaces it.
	fired := 0
	current := uint32(2)
	w.advance(base.Add(5*time.Millisecond), func(e timerEntry) {
		if e.epoch == current {
			fired++
		}
	})
	if fired != 0 {
		t.Fatalf("stale entry acted on %d times, want 0", fired)
	}
	if w.pending() {
		t.Fatal("stale entry retained")
	}
}

// TestSwarmGoroutineFootprint pins the core scaling property directly:
// an 8x larger population must not change the swarm's goroutine count.
func TestSwarmGoroutineFootprint(t *testing.T) {
	for _, n := range []int{100, 800} {
		cfg := DrillConfig{N: n, Shards: 4, Seed: 3, K: 8, D: 2}.withDefaults()
		env, err := startEnv(cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		env.swarm.JoinRange(0, n)
		if !waitUntil(30*time.Second, func() bool { return env.swarm.JoinedCount() == n }) {
			env.stop()
			t.Fatalf("N=%d: only %d joined", n, env.swarm.JoinedCount())
		}
		// 2 goroutines per shard + tracker Run/recv + its outbox workers
		// (one per shard peer key) + test overhead.
		if g := runtime.NumGoroutine(); g > 40 {
			env.stop()
			t.Fatalf("N=%d: %d goroutines, want O(shards)", n, g)
		}
		env.stop()
	}
}

// TestNodeGoroutineFootprint pins the same property for protocol.Node:
// with complaints, heartbeats and link probes all on, a running Node adds
// exactly one goroutine beyond Run — the driver behind every one of its
// clocks — and none once Run returns.
func TestNodeGoroutineFootprint(t *testing.T) {
	net := transport.NewNetwork()
	defer net.Close()
	tr := newScriptedTracker(t, net)
	ep, err := net.Endpoint("node")
	if err != nil {
		t.Fatal(err)
	}
	node := protocol.NewNode(ep, protocol.NodeConfig{
		TrackerAddr: "tracker", ComplaintTimeout: 200 * time.Millisecond, LinkSeq: true,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- node.Run(ctx) }()
	hello := tr.recv()
	tr.send(hello.from, protocol.MsgWelcome, scriptedWelcome(1, 50, 50))
	if err := <-node.Joined(); err != nil {
		t.Fatal(err)
	}
	// Let every clock fire at least once: leases, stats, complaints about
	// the silent thread, heartbeats.
	for seen := map[protocol.MsgType]bool{}; !seen[protocol.MsgLease] || !seen[protocol.MsgStatsReport] ||
		!seen[protocol.MsgComplaint]; {
		seen[tr.recv().typ] = true
	}
	if g := nodeGoroutines(); g != 2 {
		t.Fatalf("running node has %d goroutines, want 2 (Run and its driver)", g)
	}
	cancel()
	<-runErr
	if g := nodeGoroutines(); g != 0 {
		t.Fatalf("%d node goroutines outlive Run", g)
	}
}

// nodeGoroutines counts the goroutines running protocol.Node code.
func nodeGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "protocol.(*Node)") {
			count++
		}
	}
	return count
}
