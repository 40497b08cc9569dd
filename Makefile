# Tier-1 verification plus the race detector, the invariant analyzers, and a
# benchmark smoke run, in one command: `make ci`.

GO ?= go

# Pinned external tool versions. The tools are optional locally (the targets
# skip them when the binary is absent) but CI installs exactly these versions,
# so local and CI runs that do have them agree. Pinned here rather than as
# go.mod tool dependencies because the build must stay offline-capable.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: ci fmt-check vet lint lint-stats loc vuln build test test-race perfbench-check bench-smoke bench bench-json bench-trajectory trace-smoke cluster-smoke workload-smoke fuzz-smoke tools clean

ci: fmt-check vet lint build test test-race perfbench-check bench-smoke trace-smoke cluster-smoke workload-smoke fuzz-smoke vuln

# fmt-check fails, listing the files, when any tracked Go file is not
# gofmt-clean. Listing through git skips untracked build output such as
# perfbench's .bench_build/.
fmt-check:
	@files=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs the repository's own invariant analyzers (rtseed-vet) and, when
# installed, staticcheck. rtseed-vet findings fail the build, and so does any
# growth of the waiver population against the committed lint-budget.json —
# lowering a count regenerates the budget in place, so the waiver count only
# ever ratchets down. See DESIGN.md §5 for the invariants and escape hatches.
#
# The rtseed-vet wall time is printed after every run, and CI sets
# LINT_MAX_SECONDS (a deliberately coarse ceiling) so a summary-computation
# blow-up — the interprocedural tier is a whole-module fixpoint — fails the
# build instead of silently eating the lint budget.
lint:
	@start=$$(date +%s); \
	$(GO) run ./cmd/rtseed-vet -budget lint-budget.json ./... || exit $$?; \
	elapsed=$$(($$(date +%s) - start)); \
	echo "rtseed-vet: $${elapsed}s wall"; \
	if [ -n "$(LINT_MAX_SECONDS)" ] && [ "$$elapsed" -gt "$(LINT_MAX_SECONDS)" ]; then \
		echo "rtseed-vet: took $${elapsed}s, ceiling is $(LINT_MAX_SECONDS)s (summary tier blow-up?)"; \
		exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (make tools, or see .github/workflows/ci.yml)"; \
	fi

# lint-stats writes the waiver-directive census — how many of each escape
# hatch the tree carries — to results/VET_STATS.json; CI uploads it so the
# waiver trajectory across PRs is inspectable without checking out the tree.
lint-stats:
	@mkdir -p results
	$(GO) run ./cmd/rtseed-vet -stats ./... > results/VET_STATS.json
	@cat results/VET_STATS.json

# loc prints the count that every ROADMAP "Recent" entry quotes: lines of
# tracked non-test Go outside testdata/ and perfbench/.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v /testdata/ | grep -v '^perfbench/' | xargs cat | wc -l

# vuln scans dependencies for known vulnerabilities. Advisory only: the scan
# needs the network and the database moves independently of this repository,
# so findings are reported but never fail the build.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "govulncheck reported findings (non-fatal)"; \
	else \
		echo "govulncheck not installed; skipping (make tools, or see .github/workflows/ci.yml)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# perfbench-check runs the benchmark's own checks: perfbench is a nested
# module, so `go test ./...` at the root never reaches it. Its reference
# outcome digests, K-slice and worker-count checks are what show that a
# simulator-only speedup left the modelled outcome unchanged.
perfbench-check:
	cd perfbench && $(GO) test ./...

# One pass over every benchmark at a single iteration each: catches
# benchmark bit-rot without the cost of a full measurement run. The second
# line gives the continuation executor's scale case (16384 tasks, release
# mode) a real measured burst and reports its allocs/op; the benchmark does
# not fail on allocations. The steady-state zero-allocation bound is
# enforced by TestManyTaskKernelSteadyStateZeroAlloc, which `make test` runs.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) test -run=NONE -bench='BenchmarkManyTaskKernel/release/n=16384$$' -benchtime=100000x -benchmem .

# Full measurement run (slow): one bench per table/figure of the paper.
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# trace-smoke exercises the tracing pipeline end to end: record a quick
# traced simulation, run the analyzer over the file, and fail unless the
# analysis is non-empty (-check) — the fastest way to catch a broken emit
# path, codec, or analyzer.
trace-smoke:
	@mkdir -p results
	$(GO) run ./cmd/rtseed-repro -quick -o /dev/null -trace results/trace-smoke.rtt
	$(GO) run ./cmd/rtseed-trace -check -misses results/trace-smoke.rtt

# cluster-smoke is the executable form of the cluster layer's determinism
# contract: run the same quick fleet at one worker and at eight and fail on
# any byte of difference between the reports. The artifacts land under
# results/cluster-smoke-* (gitignored).
cluster-smoke:
	@mkdir -p results
	$(GO) run ./cmd/rtseed-cluster -quick -workers 1 -o results/cluster-smoke-w1.txt
	$(GO) run ./cmd/rtseed-cluster -quick -workers 8 -o results/cluster-smoke-w8.txt
	diff results/cluster-smoke-w1.txt results/cluster-smoke-w8.txt
	@echo "cluster-smoke: reports byte-identical across worker counts"

# workload-smoke is the executable form of the workload subsystem's
# determinism contract, end to end through the CLIs: generate the bursty
# flash-crash spec, record its population and ticks to a .rtk trace, run the
# cluster sweep from the spec at one worker and at eight (byte-identical
# reports required), then replay the recorded trace and require the replay
# report to be byte-identical to the generating run. Artifacts land under
# results/workload-smoke-* (gitignored).
workload-smoke:
	@mkdir -p results
	$(GO) run ./cmd/rtseed-workload spec -builtin flash-crash -o results/workload-smoke-spec.json
	$(GO) run ./cmd/rtseed-workload gen -spec results/workload-smoke-spec.json \
		-clients 2000 -seed 11 -horizon 200ms -ticks 2000 -o results/workload-smoke.rtk
	$(GO) run ./cmd/rtseed-workload validate results/workload-smoke.rtk
	$(GO) run ./cmd/rtseed-cluster -machines 4 -margin 0 -clients 2000 -seed 11 -horizon 200ms \
		-spec results/workload-smoke-spec.json -workers 1 -o results/workload-smoke-w1.txt
	$(GO) run ./cmd/rtseed-cluster -machines 4 -margin 0 -clients 2000 -seed 11 -horizon 200ms \
		-spec results/workload-smoke-spec.json -workers 8 -o results/workload-smoke-w8.txt
	diff results/workload-smoke-w1.txt results/workload-smoke-w8.txt
	$(GO) run ./cmd/rtseed-cluster -machines 4 -margin 0 \
		-replay results/workload-smoke.rtk -workers 8 -o results/workload-smoke-replay.txt
	diff results/workload-smoke-w1.txt results/workload-smoke-replay.txt
	@echo "workload-smoke: spec sweep identical across workers; replay reproduces the generating run"

# fuzz-smoke runs each fuzz target for a short, bounded burst: long enough to
# trip a regression in the engine-vs-oracle equivalence, the kernel's
# random-program invariants, the trace and workload codec round trips, the
# spec parsers and the task-set decoder, the incremental RMWP analysis
# against the full one, the partitioner against its rule, or the commands'
# flag validation, short enough for every CI run. `go test -fuzz` accepts a
# single target per invocation, so each gets its own line.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzEngineVsOracle -fuzztime=30s ./internal/engine
	$(GO) test -run=NONE -fuzz=FuzzTraceCodec -fuzztime=30s ./internal/trace
	$(GO) test -run=NONE -fuzz=FuzzKernelPrograms -fuzztime=30s ./internal/kernel
	$(GO) test -run=NONE -fuzz=FuzzCFGBuild -fuzztime=30s ./internal/lint/dataflow
	$(GO) test -run=NONE -fuzz=FuzzWorkloadCodec -fuzztime=30s ./internal/workload
	$(GO) test -run=NONE -fuzz=FuzzWorkloadSpec -fuzztime=30s ./internal/workload
	$(GO) test -run=NONE -fuzz=FuzzParseSpec -fuzztime=30s ./internal/task
	$(GO) test -run=NONE -fuzz=FuzzReadJSON -fuzztime=30s ./internal/task
	$(GO) test -run=NONE -fuzz=FuzzIncrementalRMWP -fuzztime=30s ./internal/analysis
	$(GO) test -run=NONE -fuzz=FuzzPartition -fuzztime=30s ./internal/partition
	$(GO) test -run=NONE -fuzz=FuzzParseFlags -fuzztime=10s ./cmd/rtseed-analyze
	$(GO) test -run=NONE -fuzz=FuzzParseFlags -fuzztime=10s ./cmd/rtseed-repro
	$(GO) test -run=NONE -fuzz=FuzzParseFlags -fuzztime=10s ./cmd/rtseed-overhead
	$(GO) test -run=NONE -fuzz=FuzzParseFlags -fuzztime=10s ./cmd/rtseed-sim
	$(GO) test -run=NONE -fuzz=FuzzParseFlags -fuzztime=10s ./cmd/rtseed-cluster
	$(GO) test -run=NONE -fuzz=FuzzParseFlags -fuzztime=10s ./cmd/rtseed-trace
	$(GO) test -run=NONE -fuzz=FuzzParseFlags -fuzztime=10s ./cmd/rtseed-trade
	$(GO) test -run=NONE -fuzz=FuzzParseFlags -fuzztime=10s ./cmd/rtseed-workload
	$(GO) test -run=NONE -fuzz=FuzzParseFlags -fuzztime=10s ./cmd/rtseed-benchjson

# bench-json runs the scheduling-core benchmarks (engine, kernel hot paths,
# many-task scaling, tracing overhead, cluster fan-out, workload
# generation/replay) and converts the stream into
# results/BENCH_PR$(BENCH_PR).json via rtseed-benchjson, the
# machine-readable perf-trajectory record CI uploads as an artifact. The
# second pass repeats the continuation-executor headline benchmarks 5× so
# the record carries medians, and the -baseline flag embeds the previous
# stack point's medians from results/BENCH_PR$(BENCH_BASE).json next to
# them. BENCH_BASE defaults to the newest committed results/BENCH_PR<N>.json
# (numeric order, the _BASELINE report excluded) and BENCH_PR to the next
# number, so a run records a new point instead of overwriting an old one.
# Override per stack point: `make bench-json BENCH_PR=10 BENCH_BASE=9`.
BENCH_BASE ?= $(shell git ls-files 'results/BENCH_PR*.json' | sed -n 's|^results/BENCH_PR\([0-9][0-9]*\)\.json$$|\1|p' | sort -n | tail -n 1)
BENCH_PR ?= $(shell expr $(BENCH_BASE) + 1)
bench-json:
	@mkdir -p results
	( $(GO) test -run=NONE \
		-bench='BenchmarkEngine|BenchmarkKernel|BenchmarkManyTaskKernel|BenchmarkTracingOverhead|BenchmarkTraceEmit|BenchmarkCluster|BenchmarkWorkload' \
		-benchmem ./... ; \
	  $(GO) test -run=NONE \
		-bench='BenchmarkKernelEventThroughput$$|BenchmarkManyTaskKernel/(release|compute)/n=1024$$' \
		-benchmem -count=5 . ) \
	| $(GO) run ./cmd/rtseed-benchjson -baseline results/BENCH_PR$(BENCH_BASE).json -o results/BENCH_PR$(BENCH_PR).json
	@echo "wrote results/BENCH_PR$(BENCH_PR).json"

# bench-trajectory folds every committed per-PR benchmark report into one
# longitudinal record, results/BENCH_TRAJECTORY.json: each benchmark's
# ns/op median across the PR stack, oldest point first (rtseed-benchjson
# orders the points by PR number, not by this lexical list). Pure file merge —
# no benchmarks run, so it is cheap enough for every CI pass. The
# _BASELINE report is excluded: it is PR 6's before-measurement, not a
# stack point of its own.
bench-trajectory:
	@mkdir -p results
	$(GO) run ./cmd/rtseed-benchjson -trajectory -o results/BENCH_TRAJECTORY.json \
		$(filter-out %_BASELINE.json,$(sort $(wildcard results/BENCH_PR*.json)))
	@echo "wrote results/BENCH_TRAJECTORY.json"

# tools installs the pinned external analyzers (network required).
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

clean:
	$(GO) clean ./...
