# Convenience targets for the rossf reproduction.

GO ?= go

.PHONY: all build test race bench bench-ipc bench-egress bench-fanout bench-netfield bench-ingress bench-failover mutex-smoke chaos chaos-master chaos-failover fuzz generate experiments examples stats-smoke clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/ ./internal/ros/ ./internal/shm/ ./internal/bench/

# Fault-injection matrix (see TESTING.md) under the race detector,
# plus a fuzz smoke over the wire framing and IDL parsers.
chaos: fuzz
	$(GO) test -race ./internal/chaostest/... ./internal/netsim/

# Graph-plane resilience (DESIGN §3.9): master kill/restart under live
# traffic and a node<->master netsim partition, plus the masternet
# replay/liveness unit tier — all under the race detector.
chaos-master:
	$(GO) test -race -count=1 -run 'TestMaster' ./internal/chaostest/
	$(GO) test -race -count=1 -run 'TestRemoteMaster|TestMasterServer|TestDialMaster' ./internal/ros/

# Warm-standby failover (DESIGN §3.14): SIGKILL the primary under live
# registration + data traffic, standby promotes within the lease, zero
# registrations and zero messages lost, stale-epoch zombie fenced —
# plus the replication/promotion unit tier — all under the race
# detector.
chaos-failover:
	$(GO) test -race -count=1 -run 'TestMasterFailover' ./internal/chaostest/
	$(GO) test -race -count=1 -run 'TestStandby|TestStaleEpoch|TestPromoted|TestClientSkips|TestReplayConvergenceAcrossPromotion|TestMultiAddressDialShape|TestUnadopted' ./internal/ros/

# Short fuzz passes: long enough to catch regressions in the frame
# scanner and parser, short enough for CI.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzReadFrame -fuzztime=10s ./internal/wire/
	$(GO) test -run=NONE -fuzz=FuzzParse$$ -fuzztime=10s ./internal/msg/
	$(GO) test -run=NONE -fuzz=FuzzParseSrv -fuzztime=10s ./internal/msg/
	$(GO) test -run=NONE -fuzz=FuzzSparseDecoder -fuzztime=10s ./internal/fieldwire/
	$(GO) test -run=NONE -fuzz=FuzzIngressEquivalence -fuzztime=10s ./internal/wire/

bench:
	$(GO) test -bench=. -benchmem ./...

# Intra-machine transport matrix (inproc / shm / tcp) -> BENCH_ipc.json.
# The shm rows need a mappable backing directory (normally /dev/shm);
# the runner skips them gracefully where the platform lacks one.
bench-ipc:
	$(GO) run ./cmd/rossf-bench ipc -out BENCH_ipc.json

# Streaming TCP fan-out throughput, batched egress vs the legacy
# per-frame path (the baseline is measured in the same binary via
# ros.SetLegacyEgress and recorded in the JSON) -> BENCH_egress.json.
bench-egress:
	$(GO) run ./cmd/rossf-bench egress -out BENCH_egress.json

# Sharded fan-out matrix (1..10000 subscribers x 4KiB/64KiB), sharded
# egress vs the classic per-connection write loops -> BENCH_fanout.json.
# The 10000-subscriber cells hold ~20k connection ends; the runner
# raises RLIMIT_NOFILE when it can, pushes the drain readers into
# worker subprocesses (`rossf-bench fanout-drain`) when one process
# cannot hold both ends, and records any still-unrunnable cell as
# skipped in the JSON.
bench-fanout:
	$(GO) run ./cmd/rossf-bench fanout -out BENCH_fanout.json

# Receive-side matrix: the receive pump's batched drain (ros.DrainFrames:
# one Read wakeup draining many frames) vs the frozen two-syscalls-per-
# frame reference reader in internal/bench/ingress.go, measured in the
# same binary, plus the sharded-registry
# contention cells (64 goroutines x 10k topics; scan-stall bound vs the
# single-mutex layout) -> BENCH_ingress.json.
bench-ingress:
	$(GO) run ./cmd/rossf-bench ingress -out BENCH_ingress.json

# Mutex-contention smoke: with mutex profiling at fraction 1, hammer
# per-topic instrument lookups (64 goroutines x 10k topics), then read
# the node's own /debug/pprof/mutex endpoint and assert the obs
# registry no longer dominates the recorded contention (exit 1 if it
# does).
mutex-smoke:
	$(GO) run ./cmd/rossf-bench mutexsmoke

# Warm-standby failover at scale: a 100k-registration graph loaded
# through a replicated master pair, then the primary is killed —
# promotion latency, full-graph recovery time, and a completeness audit
# -> BENCH_failover.json.
bench-failover:
	$(GO) run ./cmd/rossf-bench failover -out BENCH_failover.json

# Field-wire partial transmission over netsim 10 GbE: bytes on the wire
# and latency for a header-only sensor_msgs/Image consumer, masked
# subscription vs the full-frame baseline -> BENCH_netfield.json.
bench-netfield:
	$(GO) run ./cmd/rossf-bench netfield -out BENCH_netfield.json

# Regenerate msgs/ from the IDL tree (run after editing msgs/idl).
generate:
	$(GO) run ./cmd/sfmgen -idl msgs/idl -out msgs -capacities msgs/idl/capacities.txt
	$(GO) build ./...

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/rossf-bench all

# End-to-end observability check: rosmaster + rospub -metrics +
# rostopic stats, then curl the /metrics endpoint and validate the JSON
# schema (see scripts/stats_smoke.sh).
stats-smoke:
	sh scripts/stats_smoke.sh

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/imagepipeline
	$(GO) run ./examples/servicedemo
	$(GO) run ./examples/pingpong -messages 15
	$(GO) run ./examples/slamdemo -frames 15

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
