# Development entry points. CI (.github/workflows/ci.yml) runs the same
# targets; keep the two in sync.

GO ?= go

# Every bench target pins GOMAXPROCS via -cpu so numbers stay comparable
# across laptops and CI runners.
BENCH_CPU ?= 4
# Samples per benchmark and tree for bench-check; medians over
# BENCH_COUNT runs are what benchdiff compares (>= 3 for a useful median).
BENCH_COUNT ?= 5
# The git revision bench-check measures the working tree against.
BENCH_BASE ?= HEAD

.PHONY: all build test test-pooldebug vet race bench bench-check serve loadtest soak

all: build vet test

build:
	$(GO) build ./...

# Unit + integration tests; includes the analysis self-check gate
# (internal/analysis/selfcheck_test.go), which fails the build on any
# new cardopc-vet diagnostic.
test:
	$(GO) test ./...

# Pool-debug build: compiles the fft pool with the cardopc_pooldebug
# runtime guard, turning any double PutGrid / double Workspace.Release
# into a panic, and tracking outstanding checkouts so the server's
# cancellation tests can assert nothing leaked. The runtime complement
# of the static poolcheck analyzer; litho and core are the packages
# that draw the pooled scratch on the imaging hot path.
test-pooldebug:
	$(GO) test -tags cardopc_pooldebug ./internal/fft/ ./internal/server/ ./internal/litho/ ./internal/core/

# go vet over both modules (cmd/cardopc-bench is its own) plus the
# repo's own analyzer suite over every package — including the dataflow
# passes (poolcheck, noalloc, obsguard) and the interprocedural passes
# (ctxflow, nonblock, and summary-powered poolcheck). The whole module
# is type-checked every run.
vet:
	$(GO) vet ./...
	$(GO) -C cmd/cardopc-bench vet ./...
	$(GO) run ./cmd/cardopc-vet ./...

# Race-detector pass over the whole module. Slow (the parallel
# aerial/gradient reductions dominate); run before merging anything that
# touches goroutine fan-out in internal/litho, internal/fft or
# internal/bigopc.
race:
	$(GO) test -race ./...

# Every benchmark in the module at reduced settings: the paper-artefact
# harness at the root plus the per-package micro-benches (fft, litho,
# raster, rtree, spline, mrc). CARDOPC_FULL=1 for paper-fidelity runs.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -cpu $(BENCH_CPU) ./...

# Run the tracked hot-path set in the working tree and in BENCH_BASE's
# tree, alternating, and compare; non-zero exit on a regression beyond
# tolerance or a vanished benchmark. Same gate CI's bench job runs
# (there against HEAD~1).
bench-check:
	$(GO) run ./cmd/benchdiff check -base $(BENCH_BASE) -count $(BENCH_COUNT) -cpu $(BENCH_CPU)

# --- cardopcd service targets ---

# Daemon address for serve/loadtest/soak; override per invocation, e.g.
# `make serve SERVE_ADDR=127.0.0.1:0` for an ephemeral port.
SERVE_ADDR ?= 127.0.0.1:8347
LOADTEST_DURATION ?= 10s
LOADTEST_CONCURRENCY ?= 2

# Run the OPC daemon in the foreground with warm default kernels.
# Ctrl-C (or SIGTERM) drains: in-flight jobs finish, then it exits.
serve:
	$(GO) run ./cmd/cardopcd -addr $(SERVE_ADDR)

# Drive a running daemon closed-loop and print req/s + p50/p99 latency.
loadtest:
	$(GO) run ./cmd/cardopcd loadtest -addr http://$(SERVE_ADDR) \
		-d $(LOADTEST_DURATION) -c $(LOADTEST_CONCURRENCY)

# The CI soak, runnable locally: boot a daemon on an ephemeral port,
# load it for LOADTEST_DURATION while sampling a CPU profile, then
# SIGTERM and check the drain. Artifacts land in soak-out/.
soak:
	./scripts/soak.sh $(LOADTEST_DURATION) $(LOADTEST_CONCURRENCY)
