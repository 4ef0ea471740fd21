# Development targets for the basrpt reproduction.

GO ?= go

.PHONY: all build test race vet bench bench-smoke bench-sched bench-obs bench-alloc bench-shard trace-smoke ops-smoke soak cover experiments stability fuzz scenarios doccheck clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	GOMAXPROCS=4 $(GO) test -race -run 'TestRunShardDecomposed|TestRunShardBatch|TestRunShardWorkerPool|TestEngineGoldenDigests' ./internal/fabricsim/

vet:
	gofmt -l . && $(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Quick regression check of the multi-seed worker pool: a small Table I
# aggregate plus a serial rerun, emitting runs/sec and speedup to
# BENCH_runner.json (uploaded as a CI artifact).
bench-smoke:
	$(GO) run ./cmd/basrptbench -exp table1 -scale small -duration 0.5 \
		-seeds 4 -parallel 4 -benchjson BENCH_runner.json

# Scheduling-core regression check: the BenchmarkSchedule* old-vs-new
# microbenchmarks (N=144 ports, high-load candidate population), then the
# fabric-level pairs on the paper's 144-host topology at 0.8 load —
# incremental candidate index versus forced from-scratch on byte-identical
# runs — emitting decisions/sec and speedup to BENCH_sched.json (uploaded
# as a CI artifact alongside BENCH_runner.json).
bench-sched:
	$(GO) test -run NONE -bench 'BenchmarkSchedule' -benchmem ./internal/sched/
	$(GO) run ./cmd/basrptbench -schedbench BENCH_sched.json \
		-racks 12 -hosts 12 -duration $(SCHEDBENCH_DURATION)

# Simulated horizon of the bench-sched fabric pairs. 20 ms of simulated
# time at 144 hosts is ~38k scheduling decisions per arm.
SCHEDBENCH_DURATION ?= 0.02

# Observability regression check: the internal/obs disabled/enabled
# microbenchmarks, then the paired disabled-vs-enabled fabric runs — which
# assert byte-identical work, measure the disabled-path probe cost against
# the per-decision scheduling cost (budget: 2%), and verify trace
# byte-determinism — emitting the report to BENCH_obs.json (uploaded as a
# CI artifact alongside BENCH_sched.json). The run must stay within the
# checked-in bench_obs_budget.json, or the target fails.
bench-obs:
	$(GO) test -run NONE -bench 'BenchmarkObs' -benchmem ./internal/obs/
	$(GO) run ./cmd/basrptbench -obsbench BENCH_obs.json \
		-obsbudget bench_obs_budget.json \
		-racks 4 -hosts 6 -duration $(OBSBENCH_DURATION)

# Simulated horizon of the bench-obs fabric pairs (four runs total).
OBSBENCH_DURATION ?= 0.1

# GC-pressure regression gate: pooled-vs-baseline fabric runs on the
# paper's 144-host topology at 0.8 load, asserting byte-identical Results
# and measuring allocations and GC cycles per scheduling decision via
# runtime.ReadMemStats deltas around the event loop. The report goes to
# BENCH_alloc.json (uploaded as a CI artifact) and the pooled arm must stay
# within the checked-in bench_alloc_budget.json, or the target fails.
bench-alloc:
	$(GO) run ./cmd/basrptbench -allocbench BENCH_alloc.json \
		-allocbudget bench_alloc_budget.json \
		-racks 12 -hosts 12 -duration $(ALLOCBENCH_DURATION)

# Simulated horizon of the bench-alloc fabric pairs (four runs total).
ALLOCBENCH_DURATION ?= 0.02

# Shard-scaling regression gate: the centralized 1-shard engine versus
# rack-decomposed arms at 2 and 4 shards on a 4128-host (344x12) fabric
# at 0.5 load. Every decomposed arm must report one deterministic digest
# (grouping invariance at scale); the widest arm must beat the
# checked-in bench_shard_budget.json floor over the centralized arm and
# (on >= 4-CPU machines) must not fall behind the 2-shard arm
# (min_parallel_speedup), or the target fails. The report — including
# per-arm windows-per-barrier and the worker/cell imbalance table — goes
# to BENCH_shard.json (uploaded as a CI artifact).
bench-shard:
	$(GO) run ./cmd/basrptbench -shardbench BENCH_shard.json \
		-shardbudget bench_shard_budget.json \
		-racks 344 -hosts 12 -duration $(SHARDBENCH_DURATION) \
		-centralized-duration $(SHARDBENCH_CENTRALIZED_DURATION)

# Simulated horizon of the bench-shard arms. 2 ms at 4128 hosts is ~62k
# scheduling decisions on the centralized arm, whose O(hosts^2)
# fabric-global matching dominates the wall time (~21 s for the full
# horizon vs ~0.3 s per decomposed arm) — so the centralized arm runs a
# quarter-horizon cap by default: decisions/sec converges well within it
# and the decomposed arms still run (and digest-check) the full horizon.
SHARDBENCH_DURATION ?= 0.002
SHARDBENCH_CENTRALIZED_DURATION ?= 0.0005

# Trace-export smoke check: two fixed-seed traced runs must produce
# byte-identical JSONL (the determinism contract CI also enforces).
trace-smoke:
	$(GO) run ./cmd/basrptsim -racks 2 -hosts 3 -duration 0.3 -load 0.6 \
		-seed 42 -trace trace_smoke_a.jsonl
	$(GO) run ./cmd/basrptsim -racks 2 -hosts 3 -duration 0.3 -load 0.6 \
		-seed 42 -trace trace_smoke_b.jsonl
	cmp trace_smoke_a.jsonl trace_smoke_b.jsonl
	@echo "trace determinism OK: $$(wc -c < trace_smoke_a.jsonl) bytes, byte-identical across runs"

# Live-ops smoke: start a sharded run with -ops, poll /metrics and
# /progress mid-flight and assert they are well-formed, then validate the
# -timeline Chrome trace_event export. Artifacts land in ops_smoke_out/
# (kept on failure for the CI upload).
ops-smoke:
	bash scripts/ops_smoke.sh

# Checkpoint/restore soak: halt runs at a mid-run checkpoint, resume in a
# fresh process, and require byte-identical summaries and traces versus
# the uninterrupted runs — per seed, with and without fault injection.
# Artifacts land in soak_out/ (kept on failure for the CI upload).
soak:
	bash scripts/soak.sh

cover:
	$(GO) test -cover ./...

# Regenerate every paper table/figure at the default (medium) scale.
experiments:
	$(GO) run ./cmd/basrptbench -exp all -scale medium

# The long-horizon stability showcase (several minutes of wall time).
stability:
	$(GO) run ./cmd/basrptbench -exp stability -racks 2 -hosts 6 -duration 120 -csvdir results

# Scenario-library regression gate: rerun every spec under scenarios/ and
# byte-compare the regenerated findings.json + FINDINGS.md against the
# committed files (they are byte-deterministic at any -parallel value).
# On mismatch the regenerated artifacts land under scenario_out/ for the
# CI upload.
scenarios:
	$(GO) run ./cmd/basrptexp -check -dir scenarios -out scenario_out

# Documentation lint: package comments everywhere, command comments on
# every cmd, and doc comments on every exported symbol of
# internal/scenario, internal/obs, internal/ops and internal/fabricsim.
doccheck:
	bash scripts/doccheck.sh

# Short fuzzing passes over the parsing-adjacent substrates.
fuzz:
	$(GO) test -fuzz FuzzGreedyMaximal -fuzztime 15s ./internal/matching/
	$(GO) test -fuzz FuzzHungarianFeasible -fuzztime 15s ./internal/matching/
	$(GO) test -fuzz FuzzEmpiricalCDFRoundTrip -fuzztime 15s ./internal/stats/
	$(GO) test -fuzz FuzzPercentile -fuzztime 15s ./internal/stats/
	$(GO) test -fuzz FuzzFaultSchedule -fuzztime 15s ./internal/faults/
	$(GO) test -fuzz FuzzReadTrace -fuzztime 15s ./internal/trace/
	$(GO) test -fuzz FuzzCheckpointLoad -fuzztime 15s ./internal/checkpoint/
	$(GO) test -fuzz FuzzParseSpec -fuzztime 15s ./internal/scenario/

clean:
	$(GO) clean ./...
	rm -rf internal/matching/testdata internal/stats/testdata internal/faults/testdata \
		internal/trace/testdata internal/checkpoint/testdata internal/scenario/testdata \
		soak_out scenario_out ops_smoke_out
	rm -f BENCH_runner.json BENCH_sched.json BENCH_obs.json BENCH_alloc.json BENCH_shard.json trace_smoke_a.jsonl trace_smoke_b.jsonl
