# Developer checks. `make check` is the gate every change should pass.

GO ?= go
RACE_PKGS := ./internal/core ./internal/obs ./internal/protocol ./internal/rlnc ./internal/swarm ./internal/transport
# Packages with build-tag-gated accelerated kernels; purego forces the
# scalar reference implementations so both dispatch arms stay tested.
PUREGO_PKGS := ./internal/gf/... ./internal/rlnc/...

.PHONY: check build crossbuild vet fmt lint test purego race churn lossy fuzz allocguard bench-gate swarm scale bench bench-e2e

check: vet fmt lint build crossbuild test purego race churn lossy fuzz allocguard bench-gate swarm

build:
	$(GO) build ./...

# The arm64 NEON kernels have no execution leg in CI; cross-compiling
# keeps the assembly and its dispatch glue at least building on every
# change.
crossbuild:
	GOARCH=arm64 $(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Metric naming contract: every exported series matches ^ncast_[a-z0-9_]+$.
lint:
	$(GO) test -run 'TestMetricNameLint|TestSessionMetricNames' .

test:
	$(GO) test ./...

purego:
	$(GO) test -tags purego $(PUREGO_PKGS)

# Race-check the concurrency-heavy packages (atomics in obs, the tracker
# and node state machines, the codecs shared between a node's receive
# loop and its forwarders, the swarm engine, both transports).
race:
	$(GO) test -race $(RACE_PKGS)

# Control-plane fault-tolerance suite under the race detector: lease
# sweep of crashed leaves, outbox behavior behind stalled peers, churn
# over the fault-injection transport, the send-deadline regression, and
# the membership state machine (its transition table and seeded schedule
# explorer).
churn:
	$(GO) test -race -run 'Churn|Lease|Stalled|Faulty|Goodbye|SendDeadline|LeafCrash|Telemetry|Timeline|ClusterSnapshot|TraceLive|Member' ./internal/protocol ./internal/transport .

# Datagram-plane suite under the race detector: the UDP endpoint and its
# batched I/O, same-port dual-plane binding, the end-to-end broadcasts
# that run at 5% injected datagram loss (the loss-as-normal regime), and
# the link-telemetry drill that must localize a 10%-lossy peer to ±3pp.
lossy:
	$(GO) test -race -run 'UDP|SamePort|Dual|Datagram|SplitSender|Lossy|Link' ./internal/transport ./internal/protocol ./internal/obs .

# Short deterministic fuzz budgets over the wire decoders, the stream
# framing and the GF kernels (every compiled kernel set against the
# scalar reference); go's fuzzer accepts one -fuzz pattern per
# invocation, so each target runs alone.
fuzz:
	$(GO) test ./internal/protocol -run xxx -fuzz FuzzDecodeControl -fuzztime 10s
	$(GO) test ./internal/protocol -run xxx -fuzz FuzzDecodeData -fuzztime 10s
	$(GO) test ./internal/protocol -run xxx -fuzz FuzzDecodeKeepalive -fuzztime 5s
	$(GO) test ./internal/transport -run xxx -fuzz FuzzSplitSender -fuzztime 5s
	$(GO) test ./internal/gf -run xxx -fuzz 'FuzzAddMulRows256$$' -fuzztime 10s
	$(GO) test ./internal/gf -run xxx -fuzz 'FuzzAddMulSlice256$$' -fuzztime 5s
	$(GO) test ./internal/gf -run xxx -fuzz 'FuzzAddMulSlice65536$$' -fuzztime 5s

# Allocation guards: with sampling off, the traced emit/receive hot path
# must allocate nothing beyond the untraced baseline, the source must
# emit from pooled frames and packets (under 1 KiB allocated per frame),
# and the decode steady state (redundant packets, systematic installs,
# recoder re-mix, the innovative packet that closes rank) must be
# zero-alloc.
allocguard:
	$(GO) test ./internal/protocol -run TestTracedHotPathAllocs -count=1
	$(GO) test ./internal/protocol -run TestLinkHotPathAllocs -count=1
	$(GO) test ./internal/protocol -run TestSourceEmitAllocs -count=1
	$(GO) test ./internal/rlnc -run TestDecodeHotPathAllocs -count=1

# Perf regression gate: emit paths stay zero-alloc, and coded FileDecoder
# throughput divided by the same run's AddMulSlice(GF256) throughput
# stays above the floor committed in BENCH_rlnc.json (gate.floor =
# baseline x (1 - tolerance)), so host speed cancels out of the check.
# The ratio depends on the kernel set (gate.accel, printed beside this
# host's); re-base with `make bench` when dispatch changes.
bench-gate:
	$(GO) run ./cmd/ncast-perf -gate

# Swarm harness drill matrix under the race detector: 1000 virtual
# nodes walk all four hostile-world scenarios (flash crowd, churn with
# rejoin, heterogeneous fleet, adversarial batch failure) against a live
# tracker, plus the lifecycle/determinism/goroutine-footprint suite.
# The 100k-node version of the same drills is the bench path:
#   $(GO) run ./cmd/ncast-scale -o BENCH_control.json
swarm:
	$(GO) test -race -count=1 ./internal/swarm

# Control-plane capacity trajectory (quick shape: small populations).
# The committed BENCH_control.json comes from the full run:
#   $(GO) run ./cmd/ncast-scale -o BENCH_control.json
scale:
	$(GO) run ./cmd/ncast-scale -quick -o /dev/null

# Data-plane fast-path trajectory: host, kernel throughput, emit-path
# allocs, coded and systematic file decode, and the bench-gate floor,
# recorded in BENCH_rlnc.json.
bench:
	$(GO) run ./cmd/ncast-perf -o BENCH_rlnc.json
	$(GO) test . -run NONE -bench . -benchmem

# The end-to-end benchmark (BENCHMARK.json): each workload runs for 20 s
# and prints its metrics; the last line of each run is its JSON result.
# Not part of check: a run takes minutes and mem-relay-lossy peaks near
# 1.3 GB resident. See ncbench/README.md.
bench-e2e:
	bash ncbench/run.sh --workload mem-relay-lossy --seed 1 --seconds 20 --trace 0
	bash ncbench/run.sh --workload udp-loopback --seed 1 --seconds 20 --trace 0
	bash ncbench/run.sh --workload ctrl-churn --seed 1 --seconds 20 --trace 0
