GO ?= go

.PHONY: verify build vet test race race-stress flake crash crash-full fuzz-smoke fault-soak shard-soak obs-smoke server-smoke reqtrace-soak bench-record verify-bench clean

# verify is the CI entry point: static checks, the full test suite, race
# detection on the concurrency-heavy packages, a short-budget crash-point
# enumeration (an evenly spaced sample of injected crashes; run crash-full
# for every point), the repeated crash and race-stress runs of flake, the
# live observability-endpoint smoke, and the network service-layer smoke.
verify: vet build test race crash flake obs-smoke server-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the suite under the race detector, including the propagation
# stress tests (committers racing Propagate cycles), the sharded
# stitch-tearing test, a dedicated pass over the WAL group-commit
# leader/follower protocol (concurrent committers sharing batches, racing
# rotation and injected failures), one over the cross-shard commit paths
# (read-only participants, one writer, two-phase), and repeated propagation
# stress (committers and an analyst racing propagation cycles on every
# replica kind: the replica lock must cover every kernel read). Crash
# enumeration runs with the -short budget here; its full sweeps have their
# own target (crash-full).
race: race-stress
	$(GO) test -race -short ./internal/crashtest
	$(GO) test -race $$($(GO) list ./... | grep -v internal/crashtest)

# race-stress repeats the concurrency stress tests under the race detector.
race-stress:
	$(GO) test -race -run 'TestGroupCommit' -count 4 ./internal/wal
	$(GO) test -race -run 'TestCrossShard' -count 4 ./internal/shard
	$(GO) test -race -run 'TestEnginePropagateRaceStress' -count 4 ./internal/htap

# flake repeats the -short crash enumerations (concurrent group commits
# included) twenty times, plus the race stresses, to catch intermittent
# failures.
flake: race-stress
	$(GO) test -count 20 -short ./internal/crashtest

# bench-record stores the propagation benchmark series (Fig 10 kernels plus
# the parallel-merge ablation and the shard-scaling series), the durable
# group-commit scaling series, and the commit allocs/op reading for
# comparison across changes.
bench-record:
	$(GO) test . -run '^$$' -bench 'BenchmarkFig10|BenchmarkAblationParallelMerge|BenchmarkShardScaling' -benchtime 3x | tee bench_record.txt
	$(GO) test . -run '^$$' -bench 'BenchmarkDurableCommitScaling|BenchmarkCommitAllocs' -benchtime 100x | tee -a bench_record.txt

# verify-bench fails if the 8-worker scan+merge pipeline is slower than the
# serial path beyond noise, if the sharded single-participant commit fast
# path regresses toward 2PC cost, if WAL group commit stops scaling durable
# commits (≥3× over the serialized baseline at 8 committers), or if the
# commit hot path allocates past its budget (see benchguard_test.go and
# walbench_test.go for thresholds).
verify-bench:
	H2TAP_VERIFY_BENCH=1 $(GO) test . -run 'TestVerifyBench' -v

crash:
	$(GO) test -short ./internal/crashtest

crash-full:
	$(GO) test ./internal/crashtest

# fuzz-smoke runs each fuzz target for a short budget — enough to catch
# regressions in the parsers, the grouping logic and the stitched composite
# build without a dedicated fuzz farm.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeCommit -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzCombineReplay -fuzztime $(FUZZTIME) ./internal/delta
	$(GO) test -run '^$$' -fuzz FuzzMerge -fuzztime $(FUZZTIME) ./internal/csr
	$(GO) test -run '^$$' -fuzz FuzzSegmentedMerge -fuzztime $(FUZZTIME) ./internal/csr
	$(GO) test -run '^$$' -fuzz FuzzApplyBatch -fuzztime $(FUZZTIME) ./internal/dyngraph
	$(GO) test -run '^$$' -fuzz FuzzScanGrouping -fuzztime $(FUZZTIME) ./internal/deltastore
	$(GO) test -run '^$$' -fuzz FuzzStitchComposite -fuzztime $(FUZZTIME) ./internal/shard

# obs-smoke boots the bench with the -obs HTTP listener and curls /metrics,
# /healthz, /debug/trace and /debug/pprof mid-run, asserting the key metric
# families are live (see scripts/obs-smoke.sh).
obs-smoke:
	./scripts/obs-smoke.sh

# server-smoke boots h2tap-server on an ephemeral port, drives faulted
# client load through h2tap-loadgen -client, SIGTERMs it and asserts a
# clean graceful drain with the committed state durable across a restart
# (see scripts/server-smoke.sh).
server-smoke:
	./scripts/server-smoke.sh

# reqtrace-soak races the request tracer for real: a -race build of
# h2tap-server with tracing at full sampling serves concurrent loadgen
# traffic while /debug/requests and /debug/trace readers hammer the
# retention rings (see scripts/reqtrace-soak.sh).
reqtrace-soak:
	./scripts/reqtrace-soak.sh

# fault-soak hammers propagation with randomized GPU faults through the
# bench CLI (see internal/crashtest gpufaults for the invariants checked).
SOAK_ROUNDS ?= 500
fault-soak:
	$(GO) run ./cmd/h2tap-bench -faults $(SOAK_ROUNDS)

# shard-soak runs the randomized shard-fault storm long-form: SHARD_SOAK_SECS
# seconds per seed of concurrent traffic with online shard/coordinator
# failure and recovery, asserting the ledger, 2PC atomicity and durable
# restart convergence (see internal/crashtest soak.go for the invariants).
SHARD_SOAK_SECS ?= 60
shard-soak:
	H2TAP_SOAK_SECS=$(SHARD_SOAK_SECS) $(GO) run ./cmd/h2tap-bench -exp shardfaults

clean:
	$(GO) clean ./...
