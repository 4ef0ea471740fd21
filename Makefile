# Development targets for the basrpt reproduction.

GO ?= go

.PHONY: all build test race vet bench bench-shard trace-smoke ops-smoke soak cover experiments experiments-check stability fuzz scenarios doccheck clean

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

# Shard-scaling gate: BenchmarkShardScaling (internal/fabricsim/gate_test.go)
# runs the centralized engine on a quarter horizon and the rack-decomposed
# engine at 2 and 4 shards on a 4128-host (344x12) fabric at 0.5 load. It
# fails when the 4-shard arm misses 2x the centralized decisions/sec, falls
# behind the 2-shard arm on a >= 4-CPU machine, or the decomposed arms stop
# sharing one deterministic digest. The allocation and disabled-probe
# gates are tier-1 tests beside it (TestAllocBudget,
# TestObsDisabledOverhead); the end-to-end benchmark is perfbench/.
bench-shard:
	$(GO) test -run NONE -bench ShardScaling -benchtime 1x ./internal/fabricsim/

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

# Experiment-layer golden gate: rerun every basrptbench experiment at
# small scale (~20 s) and byte-compare against results/bench_small.txt.
# Only wall-clock lines vary between runs, so both sides drop them: the
# "[<exp> took ...]" footers and the ablation's two "mean decision time"
# rows. Those rows also set the width of the ablation table, so trailing
# padding and the dash rules under table headers are normalized too. On
# mismatch the regenerated output stays in experiments_out/.
EXPERIMENTS_STRIP = sed -e '/^\[.* took .*\]$$/d' -e '/ mean decision time /d' \
	-e 's/ *$$//' -e 's/^--*$$/--/'

experiments-check:
	mkdir -p experiments_out
	$(GO) run ./cmd/basrptbench -exp all -scale small > experiments_out/raw.txt
	$(EXPERIMENTS_STRIP) experiments_out/raw.txt > experiments_out/bench_small.txt
	cmp results/bench_small.txt experiments_out/bench_small.txt
	@echo "experiments OK: output byte-identical to results/bench_small.txt"

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
# internal/scenario, internal/runner, internal/obs, internal/ops,
# internal/fabricsim and the root facade basrpt.go.
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
		soak_out scenario_out ops_smoke_out experiments_out
	rm -f trace_smoke_a.jsonl trace_smoke_b.jsonl
