GO ?= go

.PHONY: all build test race vet fmt-check lint lint-bench lint-fix-audit escape-audit escape-audit-check fuzz-smoke bench perfbench-smoke trace-smoke metrics-baseline metrics-compare ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fail when any Go file is not gofmt-clean; the listing names the files.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "fmt-check: not gofmt-clean:"; echo "$$out"; exit 1; fi

# Domain-specific crypto-invariant analyzers; see internal/lint and the
# "Static analysis & invariants" sections of README.md / DESIGN.md. The
# campaign worker pool's locking is guarded by `race`, not by an analyzer.
lint:
	$(GO) run ./cmd/secmemlint ./...

# Wall-time of a full-repository lint run (load + typecheck + call graph +
# interprocedural summary fixpoint + all nine analyzers); every iteration
# asserts the 5s budget, guarding against the suite becoming too slow to
# keep in the default CI path. It is not part of `ci`; run it after changing
# the loader, the call graph or the summary fixpoint.
lint-bench:
	$(GO) test -run='^$$' -bench=BenchmarkLintRepo -benchtime=3x ./internal/lint

# Every "//secmemlint:ignore" suppression with file:line, analyzers, and
# the mandatory reason — the reviewable allowlist of deliberate exceptions.
lint-fix-audit:
	$(GO) run ./cmd/secmemlint -suppressions ./...

# Hold the //secmemlint:hotpath closure to zero heap escapes with the
# compiler's escape analysis: regenerate ESCAPE.json from `go build
# -gcflags=-m` mapped onto the closure. Commit the diff after a deliberate
# hot-path change; escape-audit-check (CI) fails when the committed artifact
# is stale or an unsanctioned escape appears. The runtime half of the
# zero-allocation gate is each root package's AllocsPerRun test (make test).
escape-audit:
	$(GO) run ./cmd/escapeaudit

escape-audit-check:
	$(GO) run ./cmd/escapeaudit -check

# Short native-fuzz passes over the attack surfaces that parse free-form
# input (the lint annotation grammar and the counter-block images an
# attacker writes to memory, checked against a bit-serial reference decoder)
# and the differential crypto oracle (table-driven GF(2^128) multiply vs the
# bit-serial reference). One -fuzz target per `go test` invocation, as the
# tool requires.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzCollectIgnores -fuzztime=10s ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzSecretAnnotation -fuzztime=10s ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzHotpathAnnotation -fuzztime=10s ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzMulTable -fuzztime=10s ./internal/gf128
	$(GO) test -run='^$$' -fuzz=FuzzUnpackBlock -fuzztime=10s ./internal/counterstore

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Correctness smoke of the repository benchmark (perfbench, the one speed
# harness): a one-second untraced run of each workload must end with a
# result line reporting every check passed. It gates on no speed — shared
# CI runners are too noisy for that; compare speed with saved runs from one
# host via `python3 perfbench/run.py --compare old.out new.out`.
perfbench-smoke:
	@set -e; for w in stream-timing chase-functional writeback-reenc fig9-campaign; do \
		last=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		if ! echo "$$last" | grep -q '"correct":true' || ! echo "$$last" | grep -Eq '"failed":0[,}]'; then \
			echo "perfbench-smoke: $$w failed its checks: $$last"; exit 1; \
		fi; \
		echo "perfbench-smoke: $$w ok"; \
	done

# End-to-end observability smoke: run a tiny instrumented simulation with
# time-series sampling, check the metrics/trace/timeseries artifact shape
# with secmemobs -validate (including the sampled counter tracks the trace
# must carry: monotone timestamps, value args, the named tracks present),
# and confirm a repeated run is byte-identical (determinism is part of the
# contract).
SMOKE_DIR = /tmp/secmem-trace-smoke
WANT_TRACKS = bus.util,ctl.fills,ctrcache.hitrate,dram.util,merkle.fetches
trace-smoke:
	rm -rf $(SMOKE_DIR) && mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/secmemsim -bench swim -instr 200000 -sample 1000 \
		-metrics $(SMOKE_DIR)/m1.json -trace $(SMOKE_DIR)/t1.json \
		-timeseries $(SMOKE_DIR)/ts1.json -timeseriescsv $(SMOKE_DIR)/ts1.csv
	$(GO) run ./cmd/secmemobs -metrics $(SMOKE_DIR)/m1.json -trace $(SMOKE_DIR)/t1.json \
		-validate -wanttracks $(WANT_TRACKS)
	$(GO) run ./cmd/secmemsim -bench swim -instr 200000 -sample 1000 \
		-metrics $(SMOKE_DIR)/m2.json -trace $(SMOKE_DIR)/t2.json \
		-timeseries $(SMOKE_DIR)/ts2.json -timeseriescsv $(SMOKE_DIR)/ts2.csv >/dev/null
	cmp $(SMOKE_DIR)/m1.json $(SMOKE_DIR)/m2.json
	cmp $(SMOKE_DIR)/t1.json $(SMOKE_DIR)/t2.json
	cmp $(SMOKE_DIR)/ts1.json $(SMOKE_DIR)/ts2.json
	cmp $(SMOKE_DIR)/ts1.csv $(SMOKE_DIR)/ts2.csv
	@echo "trace-smoke: ok (valid shape, counter tracks present, deterministic output)"

# Metrics regression gate: BENCH_metrics.json is the committed observability
# baseline for the canonical smoke run (swim, 200k instructions, default
# scheme). metrics-compare reruns it and fails if any counter, gauge, or
# histogram drifted beyond METRICS_TOL — the observability analogue of the
# golden-output tests, catching silent instrumentation regressions.
# Regenerate the baseline with metrics-baseline after a deliberate model or
# instrumentation change, and say why in the commit message.
METRICS_TOL ?= 0.02
metrics-baseline:
	$(GO) run ./cmd/secmemsim -bench swim -instr 200000 -metrics BENCH_metrics.json >/dev/null
	@echo "metrics-baseline: wrote BENCH_metrics.json"

metrics-compare:
	$(GO) run ./cmd/secmemsim -bench swim -instr 200000 -metrics $(SMOKE_DIR)-fresh.json >/dev/null
	$(GO) run ./cmd/secmemobs -compare -tol $(METRICS_TOL) BENCH_metrics.json $(SMOKE_DIR)-fresh.json

ci: build vet fmt-check lint escape-audit-check test race fuzz-smoke trace-smoke metrics-compare perfbench-smoke
