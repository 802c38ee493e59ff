GO ?= go
# PR number stamped into the benchmark snapshot file name; bump (or
# override: `make bench-snapshot PR=5`) each PR so trajectories of all
# PRs stay side by side.
PR ?= 15

# Pipelines (bench-snapshot) must fail when any stage fails, not just
# the last one, or a broken benchmark run would silently overwrite the
# snapshot with a partial one.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all build vet test test-race soak chaos bot-smoke crash-matrix bench bench-smoke bench-worldfile bench-snapshot bench-compare examples-smoke

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrency-heavy packages (the sharded
# pipeline, parallel substrate build and artefact fan-out all have
# dedicated concurrent tests).
test-race:
	$(GO) test -race ./...

# Churn soak: 1000 randomized join/leave/re-join deltas through one
# persistent engine under the race detector, with the incremental
# report checked byte-for-byte against a cold rebuild every 100
# deltas. Env-gated so the tier-1 suite stays fast.
soak:
	RPEER_SOAK=1 $(GO) test -race -run 'TestChurnSoak' ./pkg/rpi -count=1 -v

# Fault mode of the load generator: the bot's readers, appliers and
# streamers plus a stalled consumer and a deadline storm against a
# one-tenant HTTP host while engine panics and WAL append failures are
# injected mid-apply; asserts the liveness SLOs (no protocol violation,
# every 503 with Retry-After, recovery within bound, recovered state
# byte-identical to a cold rebuild, sequence continuity). Runs under
# the race detector, 2 fault cycles; `rpi-bot -faults 8` is the long
# soak.
chaos:
	$(GO) run -race ./cmd/rpi-bot -faults 2 -tenants 1 -readers 2 -appliers 2 -streamers 1

# Fleet load generator smoke: an in-process 4-tenant host driven by
# mixed readers/appliers/streamers for a few seconds under the race
# detector, then the per-tenant byte-identity check (host bytes ==
# a cold engine's report over the same inputs). Fails on any protocol
# violation (a status outside the allowed set) or identity mismatch.
bot-smoke:
	$(GO) run -race ./cmd/rpi-bot -tenants 4 -duration 3s

# The fault-injection matrix: kill the simulated machine at every
# filesystem operation across an engine lifetime and prove recovery
# lands on the acknowledged prefix with byte-identical reports, plus
# the torn-tail / interior-corruption / replay suites around it.
crash-matrix:
	$(GO) test -run 'TestCrashRecovery|TestTornTail|TestInteriorCorruption|TestOpenCloseReopen|TestOpenBaseMismatch|TestReplayToAnyIndex|TestBrokenPersistence|TestCheckpointRotates' ./pkg/rpi ./internal/wal ./internal/snapshot -count=1

# Full benchmark sweep (slow).
bench:
	$(GO) test -run '^$$' -bench . -benchmem

# One-iteration smoke of the headline benchmarks (CI): the pipeline,
# the substrate build, the engine apply path, the HTTP front end and
# the 1x scaling rung all execute once, so a benchmark that rots (or
# an API drift that only benchmarks exercise) fails the build instead
# of surfacing at the next snapshot. The heavy scaling rungs (4x+)
# stay out — they build multi-gigabyte worlds.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFullPipeline$$|BenchmarkContextBuild|BenchmarkEngineApply/1x|BenchmarkServeHTTP|BenchmarkServeOverload|BenchmarkHostServe|BenchmarkScaleWorld/1x|BenchmarkRecovery/1x' -benchmem -benchtime=1x

# Compare a fresh run of the fast headline benchmarks against a
# committed baseline snapshot and fail on >20% ns/op regression
# (override: THRESHOLD=0.5; CI uses a loose threshold because runner
# hardware differs from the snapshot machine). The fresh run covers
# the same cheap set as bench-smoke, at 3 iterations to damp noise.
BASE ?= BENCH_PR$(PR).json
THRESHOLD ?= 0.20
bench-compare:
	tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/rpi-benchsnap \
		-bench 'BenchmarkFullPipeline$$|BenchmarkContextBuild$$|BenchmarkEngineApply/1x|BenchmarkServeHTTP|BenchmarkScaleWorld/1x$$|BenchmarkScaleWorld/16x-worldfile' \
		-benchtime 3x -o $$tmp; \
	$(GO) run ./cmd/rpi-benchdiff -base $(BASE) -new $$tmp -threshold $(THRESHOLD)

# The world-interchange rungs at the 16x scale: binary world-file load,
# cold-to-serving from the file, and the pipeline over the loaded
# world. The 16x .rpw is generated once into .benchcache (or
# $$RPI_WORLD_CACHE) and reused across runs — CI restores it from the
# actions cache so the rungs measure loading, not generation.
bench-worldfile:
	$(GO) test -run '^$$' -timeout 30m -bench 'BenchmarkScaleWorld/16x-worldfile' -benchmem -benchtime=1x

# Build and run every example binary once (the public-API canaries;
# CI runs this alongside the test jobs).
examples-smoke:
	$(GO) build ./examples/...
	set -e; for d in examples/*/; do echo "== $$d"; $(GO) run "./$$d" > /dev/null; done

# Snapshot the perf-critical benchmarks to BENCH_PR$(PR).json so
# future PRs have a trajectory to compare against. The scaling suite
# runs at one iteration (the 16x world alone costs tens of seconds).
# All go-test stages land in a temp file first and the snapshot is
# written only if every stage succeeded — a mid-run failure must not
# leave a plausible-looking partial snapshot behind (the -e shell
# aborts on the failing stage; the EXIT trap cleans the temp file up).
# The fleet SLO rows (per-tenant p50/p99/shed% from the rpi-bot load
# run) merge into the same file last.
bench-snapshot:
	tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -run '^$$' -timeout 30m -bench 'BenchmarkFullPipeline$$|BenchmarkFullPipelineCold|BenchmarkContextBuild|BenchmarkAblation|BenchmarkAllArtefacts|BenchmarkParallelPingCampaign|BenchmarkEngineApply|BenchmarkServeHTTP|BenchmarkServeOverload|BenchmarkHostServe' \
		-benchmem -benchtime=3x > $$tmp; \
	$(GO) test -run '^$$' -timeout 120m -bench 'BenchmarkScaleWorld|BenchmarkRecovery' -benchmem -benchtime=1x >> $$tmp; \
	$(GO) run ./cmd/rpi-benchsnap -o BENCH_PR$(PR).json < $$tmp; \
	$(GO) run ./cmd/rpi-bot -tenants 4 -duration 5s -o BENCH_PR$(PR).json -merge
