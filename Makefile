GO ?= go

.PHONY: tier1 build vet test race perfbench-check bench bench-smoke bench-baseline benchgate mutate-smoke cover fuzz loadtest loadtest-smoke slogate slo-baseline dist-smoke

# tier1 is the gate every change must pass: clean build, vet, and the full
# test suite. The race detector runs as its own CI job (`make race`) so a
# race failure is attributable at a glance instead of being buried in the
# main gate's log.
tier1: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Tests run shuffled so inter-test order dependence cannot hide. On failure
# the testing package prints the `-test.shuffle <seed>` line with the
# package's output; reproduce that exact order with
# `go test -shuffle=<seed> <pkg>`.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# perfbench-check builds, vets and tests the benchmark harness. perfbench/
# is its own module (importing chgraph/internal/...), so `go build ./...`
# at the root does not see it; this keeps an internal API change from
# silently breaking the benchmark.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench runs the host-parallelism benchmarks (Prepare and engine.Run with
# Workers=1 vs all CPUs; speedup requires a multi-core host), the timing
# simulator's hot-loop benchmark (BenchmarkRunPhase, which fails if a warm
# phase allocates), its replay of real engine phases (BenchmarkReplayPhases:
# six engines x PR/BFS/CC on WEB, host ns per simulated op; fails if a
# replayed phase's duration differs from the recorded one) and the OAG
# build and chain generator host paths (BenchmarkOAGBuild,
# BenchmarkChainGeneration; time and allocations), and one full dist worker
# session on a warm in-process worker (BenchmarkWorkerSession: prepare,
# step, commit, finish; host time and allocations per session).
# BENCHTIME=1x gives the quick smoke pass CI uses.
BENCHTIME ?= 3x
bench:
	$(GO) test ./internal/engine/ ./internal/sim/system/ -run xxx -bench 'Workers|RunPhase|ReplayPhases' -benchtime $(BENCHTIME)
	$(GO) test . -run xxx -bench '^Benchmark(OAGBuild|ChainGeneration)$$' -benchtime $(BENCHTIME)
	$(GO) test ./internal/dist/ -run xxx -bench '^BenchmarkWorkerSession$$' -benchtime $(BENCHTIME)

# bench-smoke is the CI perf trace: one quick benchmark pass plus a scaled-
# down bench session whose per-run timelines land in bench-metrics.json
# (uploaded as a workflow artifact so every PR has a perf trace to diff).
# The summary's bytes_per_edge measures the packed CSR every graph holds,
# for the memory wall.
bench-smoke:
	$(MAKE) bench BENCHTIME=1x
	$(GO) run ./cmd/chgraph-bench -fig fig2,shards -scale 0.05 -metrics-out bench-metrics.json

# benchgate compares the fresh bench-metrics.json against the committed
# BENCH_baseline.json and fails on regression (>5% simulated cycles, >10%
# host wall time; see scripts/benchgate.sh for overrides). bench-baseline
# refreshes the committed baseline after an intentional perf change.
benchgate:
	sh scripts/benchgate.sh

bench-baseline:
	$(MAKE) bench-smoke
	cp bench-metrics.json BENCH_baseline.json

# mutate-smoke measures the dynamic-hypergraph path: incremental artifact
# update (engine.UpdatePrep) vs full rebuild on WEB with a ~1% batch. The
# incremental OAGs are verified equal to a rebuild, the speedup is merged
# into bench-metrics.json ("mutate_smoke"), and the run fails if the
# incremental path is not faster.
mutate-smoke:
	$(GO) run ./cmd/chgraph-bench -mutate-smoke -scale 0.05 -metrics-out bench-metrics.json

# loadtest drives thousands of concurrent /run requests across mixed
# tenants against a self-hosted server and writes slo-report.json
# (latency percentiles, error/429 rates, goodput, cross-checked response
# checksums). loadtest-smoke is the scaled-down CI pass; slogate fails it
# on errors, checksum mismatches, 429s at nominal load, or a p99
# regression against the committed SLO_baseline.json (see
# scripts/slogate.sh for tolerances). slo-baseline refreshes the
# committed baseline after an intentional serving-latency change.
loadtest:
	$(GO) run ./cmd/chgraph-load -n 5000 -c 128 -out slo-report.json

loadtest-smoke:
	$(GO) run ./cmd/chgraph-load -n 600 -c 32 -scale 0.02 -out slo-report.json

slogate:
	sh scripts/slogate.sh

slo-baseline:
	$(MAKE) loadtest-smoke
	cp slo-report.json SLO_baseline.json

# dist-smoke is the cross-process determinism gate: four real chgraph-worker
# processes behind a coordinator must produce BFS/CC state checksums
# bit-identical to the in-process sharded run and the unsharded engine
# (see scripts/distsmoke.sh and DESIGN.md §16).
dist-smoke:
	sh scripts/distsmoke.sh

# cover enforces per-package statement-coverage floors (engine, obs,
# hypergraph); see scripts/cover.sh for the thresholds.
cover:
	sh scripts/cover.sh

# fuzz gives each fuzz target a short budget on top of the committed seed
# corpus (testdata/fuzz). Raise FUZZTIME for a deeper run.
FUZZTIME ?= 10s
fuzz:
	for t in FuzzBuild FuzzBuildDirected FuzzFromGraphEdges FuzzReadText FuzzReadBinary FuzzCompressedCodec; do \
		$(GO) test ./internal/hypergraph/ -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	$(GO) test ./internal/shard/ -run '^$$' -fuzz '^FuzzPartition$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oag/ -run '^$$' -fuzz '^FuzzMutationSequence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim/cache/ -run '^$$' -fuzz '^FuzzCacheOps$$' -fuzztime $(FUZZTIME)
	for t in FuzzPrepareDecode FuzzStepDecode FuzzCommitDecode FuzzMarksDecode FuzzSourcesDecode FuzzResolutionsDecode; do \
		$(GO) test ./internal/dist/ -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
