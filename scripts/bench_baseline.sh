#!/bin/sh
# Regenerates a committed benchmark baseline: ns/op and (with -benchmem)
# B/op + allocs/op for the hot pipelines — plan-cached FFT vs the seed
# per-call implementation, the serial vs parallel §5.1 capture pipeline,
# the pooled steady-state capture plane, the burst-synthesis
# microbenchmark, the mobility pair (moving-scene capture vs static,
# trajectory advancement),
# and the PR 10 GOMAXPROCS-pinned steady-state rows (Procs2/Procs4) whose
# per-row gomaxprocs field lets bench_compare.sh gate parallel scaling only
# on machines that actually have the cores.
# Run from the repository root:
#
#	./scripts/bench_baseline.sh [benchtime] [outfile]
#
# outfile defaults to BENCH_seed.json (the original seed baseline); pass
# BENCH_pr3.json to record a PR snapshot without disturbing the seed file.
# The JSON records the machine context needed to interpret the numbers
# (CPU count matters: on a single-core box the parallel capture degenerates
# to the serial path by design).
set -eu

BENCHTIME="${1:-300ms}"
OUT="${2:-BENCH_seed.json}"

go test -run '^$' \
	-bench 'FFT2048PlanCached|FFT2048Uncached|RFFT2048|FFTBluestein1125PlanCached|CaptureSerial$|CaptureParallel|CaptureSteadyState|SynthesizeChirpsMulti|CaptureMovingScene|TrajectoryAdvance' \
	-benchtime "$BENCHTIME" -benchmem . |
	awk -v benchtime="$BENCHTIME" '
	/^goos:/ { goos = $2 }
	/^goarch:/ { goarch = $2 }
	/^cpu:/ { sub(/^cpu: /, ""); cpu = $0 }
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		# Scan value/unit pairs rather than fixed columns: -benchmem and
		# ReportMetric both insert fields, so position is not stable.
		ns = ""; bytes = ""; allocs = ""
		for (i = 3; i < NF; i++) {
			if ($(i + 1) == "ns/op") ns = $i
			else if ($(i + 1) == "B/op") bytes = $i
			else if ($(i + 1) == "allocs/op") allocs = $i
		}
		# Per-row gomaxprocs: the pinned-core benchmarks override the runtime
		# value internally, so the machine figure would misdescribe them.
		rowprocs = maxprocs
		if (name == "BenchmarkCaptureSerial") rowprocs = 1
		else if (name == "BenchmarkCaptureParallel2") rowprocs = 2
		else if (name == "BenchmarkCaptureParallel4") rowprocs = 4
		else if (name == "BenchmarkCaptureSteadyStateProcs2") rowprocs = 2
		else if (name == "BenchmarkCaptureSteadyStateProcs4") rowprocs = 4
		line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"gomaxprocs\": %s", name, $2, ns, rowprocs)
		if (bytes != "") line = line sprintf(", \"bytes_per_op\": %s", bytes)
		if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
		vals[++n] = line "}"
	}
	END {
		printf "{\n"
		printf "  \"goos\": \"%s\",\n", goos
		printf "  \"goarch\": \"%s\",\n", goarch
		printf "  \"cpu\": \"%s\",\n", cpu
		printf "  \"gomaxprocs\": %s,\n", maxprocs
		printf "  \"benchtime\": \"%s\",\n", benchtime
		printf "  \"benchmarks\": [\n"
		for (i = 1; i <= n; i++) printf "%s%s\n", vals[i], (i < n ? "," : "")
		printf "  ]\n}\n"
	}' maxprocs="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo null)" >"$OUT"

cat "$OUT"
