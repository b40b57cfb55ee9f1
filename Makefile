# MilBack-Go build/verify entry points.
#
# `make verify` is the PR gate: it vets, builds, runs the full test suite
# under the race detector (covering the parallel chirp/spectra pipeline,
# the shared FFT-plan cache, and the capture plane's pooled buffers), runs
# the determinism suite under -race on its own, enforces the capture-plane
# allocation gate, diffs every example's stdout against its golden, reruns
# the paper's verdict table against REPORT.md, and smoke-runs every
# benchmark once.

GO ?= go

.PHONY: verify lint vet fmt-check build test race determinism alloc-gate bench bench-baseline bench-compare docs-check api-check examples-check report-check serve-smoke load-baseline

verify: lint docs-check api-check examples-check report-check build race determinism alloc-gate serve-smoke bench bench-compare

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

# Documentation gate: every exported identifier in the public facade, the
# internal packages, and the command packages must carry godoc (commands
# additionally need non-empty flag help strings), and the docs' relative
# links must resolve. (gofmt/vet cleanliness is covered by lint.)
docs-check:
	$(GO) run ./scripts/docscheck milback internal/obs internal/ap \
		internal/capture internal/core internal/proto internal/dsp \
		internal/fsa internal/motion internal/node internal/parallel \
		internal/rfsim internal/ring internal/track internal/waveform \
		internal/ber internal/baseline internal/experiments \
		internal/serve internal/loadgen \
		cmd/milback-sim cmd/milback-report cmd/milback-serve cmd/milback-loadgen
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

# Claims gate: the paper's verdict table (milback-report) must read MATCH on
# every claim at seeds 1, 2 and 3, and the seed-1 table must match the
# committed REPORT.md apart from its Generated line.
report-check:
	./scripts/report_check.sh

# The pooled, clutter-cached steady-state localization must stay at or
# below MAX_ALLOCS (default 30) allocs/op at -cpu 1, and its GOMAXPROCS=2
# row (BenchmarkCaptureSteadyStateProcs2) at or below MAX_ALLOCS_PROCS2
# (default 44), with instrumentation live.
alloc-gate:
	./scripts/alloc_gate.sh

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Regenerate the committed BENCH_seed.json baseline (longer benchtime).
bench-baseline:
	./scripts/bench_baseline.sh

# Serving-layer smoke: start milback-serve, drive a short loadgen burst,
# require zero errors, a clean SIGTERM drain (exit 0) and pidfile removal.
serve-smoke:
	./scripts/serve_smoke.sh

# Regenerate the committed serving baseline (benchmarks + offered-load
# sweep) — BENCH_pr9.json by default.
load-baseline:
	./scripts/load_baseline.sh

# Perf gates: the committed PR 10 snapshot's steady-state capture ns/op must
# not regress more than 10% against the PR 9 baseline; on >= 4-core machines
# the GOMAXPROCS=4 pins (both the 32-chirp capture and the steady-state
# localize pipeline) must show >= 2x speedup over their single-core rows,
# keyed on each row's recorded gomaxprocs (the checks self-skip on narrower
# machines, where the pinned workers just time-slice the same cores); the
# moving-scene capture must stay within 1.5x of the static steady state
# (incremental clutter invalidation); and the serving gates hold the "ref"
# offered-load row to <= 1% errors (p95/goodput comparison self-skips while
# the older snapshot carries no load rows).
bench-compare:
	./scripts/bench_compare.sh BENCH_pr9.json BENCH_pr10.json
