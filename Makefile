# MilBack-Go build/verify entry points.
#
# `make verify` is the PR gate: it vets, builds, runs the full test suite
# under the race detector (covering the parallel chirp/spectra pipeline,
# the shared FFT-plan cache, and the capture plane's pooled buffers), runs
# the determinism suite under -race on its own, enforces the capture-plane
# allocation gate, diffs every example's stdout and the quick and full
# experiment sweeps against their goldens, reruns the paper's verdict table against
# REPORT.md, fuzzes every Fuzz* target briefly, smoke-runs every benchmark
# once, vets and smoke-tests the served benchmark module (bench-check),
# checks that every committed mutant is caught by the test it names
# (mutation-gate), and times the working tree against HEAD and a pinned
# anchor commit (bench-ab).

GO ?= go

.PHONY: verify lint vet fmt-check build test race determinism fuzz-smoke alloc-gate bench bench-check bench-ab docs-check api-check examples-check experiments-check report-check serve-smoke mutation-gate

verify: lint docs-check api-check examples-check experiments-check report-check build race determinism fuzz-smoke alloc-gate serve-smoke bench bench-check mutation-gate bench-ab

# lint is the static gate: vet plus a gofmt cleanliness check.
lint: vet fmt-check

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Bit-exact reproducibility suite alone, under the race detector: catches a
# scheduler or pooling change that stays race-free but breaks determinism.
# Runs at GOMAXPROCS=1 and GOMAXPROCS=4 so both the degenerate-serial and
# genuinely concurrent shapes of the intra-capture fan-out are pinned (the
# tests that re-pin GOMAXPROCS internally are unaffected by the env value).
determinism:
	GOMAXPROCS=1 $(GO) test -run Determinis -race ./...
	GOMAXPROCS=4 $(GO) test -run Determinis -race ./...

# Fuzz smoke: `go test` alone replays only each target's seed corpus, so
# every Fuzz* target that `go test -list` finds also gets 2s of
# coverage-guided mutation. A crasher lands in the package's testdata/fuzz/
# and fails the run.
fuzz-smoke:
	@set -e; targets=$$($(GO) test -list '^Fuzz' ./... | \
		awk '/^Fuzz/ {n[++c] = $$1} /^ok/ {for (i = 1; i <= c; i++) print $$2 ":" n[i]; c = 0}'); \
	test -n "$$targets"; \
	for t in $$targets; do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "fuzz $$pkg $$name"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 2s $$pkg; \
	done

# Documentation gate: every exported identifier in the public facade, the
# internal packages, and the command packages must carry godoc (commands
# additionally need non-empty flag help strings), and the docs' relative
# links must resolve. (gofmt/vet cleanliness is covered by lint.)
docs-check:
	$(GO) run ./scripts/docscheck milback internal/obs internal/ap \
		internal/capture internal/core internal/proto internal/dsp \
		internal/fsa internal/motion internal/node internal/parallel \
		internal/rfsim internal/track internal/waveform \
		internal/ber internal/baseline internal/experiments \
		internal/serve internal/loadgen \
		cmd/milback-sim cmd/milback-report cmd/milback-serve cmd/milback-loadgen \
		cmd/milback-experiments
	./scripts/md_link_check.sh README.md DESIGN.md ROADMAP.md EXPERIMENTS.md \
		docs/OPERATIONS.md

# Public-API surface gate: the exported milback API (normalized `go doc
# -all` dump) must match the committed api/milback.txt golden; intentional
# changes regenerate it with `./scripts/api_check.sh -update`.
api-check:
	./scripts/api_check.sh

# Example-output gate: every examples/<name> program's stdout must match its
# committed testdata/stdout.golden byte for byte (the examples run fixed
# seeds); intentional changes regenerate with
# `./scripts/examples_check.sh -update`.
examples-check:
	./scripts/examples_check.sh

# Experiment-output gate: `milback-experiments -quick -seed 1` and the full
# `-seed 1` sweep must match the committed
# internal/experiments/testdata/{quick,full}_seed1.golden byte for byte;
# intentional changes regenerate them with `./scripts/experiments_check.sh -update`.
experiments-check:
	./scripts/experiments_check.sh

# Claims gate: the paper's verdict table (milback-report) must read MATCH on
# every claim at seeds 1, 2 and 3, and the seed-1 table must match the
# committed REPORT.md apart from its Generated line.
report-check:
	./scripts/report_check.sh

# The pooled steady-state localization must stay at or below 30 allocs/op
# at -cpu 1, and its GOMAXPROCS=2 row (BenchmarkCaptureSteadyStateProcs2)
# at or below 44, with instrumentation live; a 1,024-node discovery sweep (BenchmarkDiscoveryScan/nodes=1024,
# -cpu 1) at or below 1400. The caps are constants in the script.
alloc-gate:
	./scripts/alloc_gate.sh

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Serving-layer smoke: start milback-serve, drive a fixed 2 s, 10 ops/s
# loadgen burst, require zero failed operations, a clean SIGTERM drain
# (exit 0) and pidfile removal.
serve-smoke:
	./scripts/serve_smoke.sh

# Served-benchmark gate: benchmark/ is a nested module that ./... never
# reaches, so vet it and run its TestSmoke (every workload for 2 s,
# untraced and traced, failing on any failed operation); a facade change
# that breaks the benchmark fails here.
bench-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Mutation gate: scripts/mutation_gate.sh applies each scripts/mutants/*.patch
# (one planted bug, naming its package, test pattern and go test flags) to a
# temp copy of the working tree and fails when the named test still passes
# or the patch no longer applies. About 35 s on 2 cores.
mutation-gate:
	./scripts/mutation_gate.sh

# Live perf gate: scripts/bench_ab.sh times the working tree against a
# base commit on the steady-state capture, the 1,024-node discovery sweep,
# the packed transform and the moving-scene capture (10 interleaved pairs
# at -cpu 1 each). It fails on a row the change loses in >= 8 of 10 pairs
# by more than the base IQR, or on a moving scene above 1.5x the static
# steady state. The first run compares against HEAD (the uncommitted
# change); the second against the pinned anchor 92e0956, so slow creep
# across commits that each pass the first run still shows.
bench-ab:
	./scripts/bench_ab.sh
	./scripts/bench_ab.sh 92e0956
