GO ?= go

.PHONY: all build test verify race short large bench bench-smoke perfbench-test fmt vet lint ci alloc-gates build-determinism traffic traffic-large cluster obs churn churn-cluster docs fuzz-smoke sizes

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 verification (ROADMAP.md) + wire-decoder fuzz smoke.
verify: build test fuzz-smoke

# Short coverage-guided runs of the wire decoder fuzzers (arbitrary
# bytes must error cleanly, never panic or over-allocate) and of the
# sealed-table compiler (every table must answer like a Go map).
fuzz-smoke:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshalScheme -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshalHeader -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshalFrame -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshalFlightFrame -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshalChurnFrame -fuzztime 5s
	$(GO) test ./internal/sealed -run '^$$' -fuzz FuzzSealedCompile -fuzztime 5s

# E14 space certification: per-node encoded bytes across n=256..4096
# (also: rtroute -sizes).
sizes:
	RTROUTE_LARGE=1 $(GO) test -run TestEncodedSpaceCert -v -timeout 3600s ./internal/eval

race:
	$(GO) test -race ./...

# The zero-allocation gates skip under -race, so they get their own
# non-race run, at 1, 2 and 4 Ps: schedules with more than one P shrink
# the injector's bursts, which is where amortized-zero used to break.
ALLOC_GATES = TestDijkstraScratchZeroAllocs|TestFlyZeroAllocsPerHop|TestRoundtripFlightAllocs|TestClusterZeroAllocsPerRoundtrip|TestClusterZeroAllocsWithSink
alloc-gates:
	for p in 1 2 4; do \
		GOMAXPROCS=$$p $(GO) test -count=1 -run '^($(ALLOC_GATES))$$' ./internal/graph ./internal/sim ./internal/traffic ./internal/cluster || exit 1; \
	done

# The parallel build must not depend on its worker count: LocalStates
# at BuildWorkers 1, 2 and 4 (fresh, maintained, deployed), the rtz
# substrate, Init prefixes against full orders and ForEach's
# stop-on-error, under the race detector at 1, 2 and 4 Ps.
BUILD_DETERMINISM = TestParallelBuildDeterminism|TestNeighborhoodEqualsInitPrefix|TestNeighborhoodAfterInvalidate|TestForEach.*
build-determinism:
	for p in 1 2 4; do \
		GOMAXPROCS=$$p $(GO) test -race -count=1 -run '^($(BUILD_DETERMINISM))$$' ./internal/core ./internal/rtz ./internal/rtmetric ./internal/parallel || exit 1; \
	done

short:
	$(GO) test -short ./...

# 5,000-node lazy-oracle acceptance run (see oracle_equiv_test.go).
large:
	RTROUTE_LARGE=1 $(GO) test -run TestLazyStretchSixLargeScale -v -timeout 3600s .

# Smoke-sized concurrent serving run under the race detector: exercises
# the compiled-plane hot path end-to-end on every CI push (E12).
traffic:
	$(GO) run -race ./cmd/rtbench -exp traffic -n 96 -packets 20000 -workers 4 -workload zipf -seed 1
	$(GO) run -race ./cmd/rtbench -exp traffic -n 96 -packets 10000 -workers 4 -workload hotspot -scheme rtz -seed 1

# Million-packet serving acceptance: 1,000-node StretchSix over the lazy
# oracle, GOMAXPROCS workers, stretch certified against sequential
# replays (see traffic_test.go).
traffic-large:
	RTROUTE_LARGE=1 $(GO) test -run TestTrafficLargeScale -v -timeout 3600s .

# Smoke-sized sharded cluster serving under the race detector: 8 shards
# over the channel bus via rtbench, then the loopback-TCP daemon round
# (E15); both wire-encode every boundary-crossing packet.
cluster:
	$(GO) run -race ./cmd/rtbench -exp cluster -n 96 -packets 20000 -shards 8 -placement rtz -seed 1
	$(GO) test -race -run 'TestClusterMatchesSequentialRun|TestClusterSurvivesReorderingAdversary|TestPipelinedTCPMatchesSequential|TestTCPLoopback|TestTCPFlappingPeer' ./internal/cluster

# Observability smoke (E16): the telemetry plane end-to-end under the
# race detector — sink-attached cluster run with the machine-produced
# stage-timing table, then the live-plane tests (snapshot-during-run,
# /metrics == Stats() exactness over loopback TCP, window occupancy,
# link-health counters) and the telemetry package units.
obs:
	$(GO) run -race ./cmd/rtbench -exp traffic -n 96 -packets 20000 -workers 4 -workload zipf -seed 1 -timing
	$(GO) run -race ./cmd/rtbench -exp cluster -n 96 -packets 20000 -shards 8 -placement rtz -seed 1 -timing
	$(GO) test -race -run 'TestClusterLiveSnapshot|TestTCPMetricsEndpoint|TestWindow|TestTCPFlappingPeer' ./internal/cluster
	$(GO) test -race ./internal/telemetry

# Dynamic-topology smoke (E17/E18) under the race detector: the
# one-shard churn loop — seeded events, repair under fire with typed
# drops, per-batch certification against a from-scratch build — then
# the maintenance property/fuzz tests and the TCP peer-flap units
# (monitor detection, mid-batch kill).
churn:
	$(GO) run -race ./cmd/rtbench -exp churncluster -shards 1 -workers 4 -n 128 -packets 6000 -epochs 3 -events 2 -seed 1
	$(GO) test -race -run 'TestRunChurnSmoke|TestIncrementalMatchesFreshUnderEventFuzz|TestRebuildAllMatchesFreshBuild|TestModelReplayDeterminism|TestAffectedSetIsSound' .
	$(GO) test -race -run 'TestTCPPeerDeathDetectedByMonitor|TestTCPPeerFlapMidBatch' ./internal/cluster

# Cluster-churn smoke (E19) under the race detector: churn events ride
# the fabric as wire frames, every shard repairs its owned slice behind
# its epoch fence while serving, each batch certified bit-identical to a
# from-scratch build — plus the reordering adversary, the bounded
# affected-set soundness property, the churn-frame golden/codec units,
# and the mid-repair peer-death / poisoned-repair TCP tests.
churn-cluster:
	$(GO) run -race ./cmd/rtbench -exp churncluster -n 96 -shards 8 -epochs 3 -events 3 -packets 9000 -seed 1
	$(GO) test -race -run 'TestClusterChurnMatchesSequential|TestClusterChurnUnderReorderingAdversary|TestChurnGaugesMatchResult' .
	$(GO) test -race -run 'TestBoundedAffectedSetSupersetOfExact' ./internal/churn
	$(GO) test -race -run 'TestTCPPeerDeathMidRepair|TestRepairFailurePoisonsShard' ./internal/cluster
	$(GO) test -race -run 'TestChurnEventFrameGolden' ./internal/wire

# Docs gate: README/DESIGN Go fences must parse (gofmt-clean when
# written as complete files) and relative links must resolve.
docs:
	$(GO) run ./internal/docscheck README.md DESIGN.md

bench:
	$(GO) test -run XXX -bench . -benchmem ./...

# One iteration of every benchmark: catches bit-rotted benchmark code on
# every CI push without paying for real measurements.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

# The repository benchmark (perfbench/, see BENCHMARK.json) is its own
# module, so root ./... never compiles it: vet and test it separately
# so a public-API change cannot break it unnoticed. Before/after
# comparisons: bash perfbench/run.sh compare old.txt new.txt.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

lint: fmt vet

ci: lint build race alloc-gates build-determinism traffic cluster obs churn churn-cluster docs bench-smoke perfbench-test fuzz-smoke
