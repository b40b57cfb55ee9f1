#!/bin/sh
# Allocation gate for the capture plane: the pooled steady-state
# localization pipeline, with the obs instrumentation live on that path,
# must stay at or below its allocs/op cap — so adding a counter or
# histogram that allocates per observation, or a buffer that bypasses the
# pool, fails the gate. Three rows are gated, each against its own cap:
#
#   - BenchmarkCaptureSteadyState at -cpu 1 (GOMAXPROCS=1, every fan-out
#     serial): 30.
#   - BenchmarkCaptureSteadyStateProcs2 (GOMAXPROCS pinned to 2, so the
#     intra-capture fan-outs run concurrently and pay their per-call
#     closures and job records): 44.
#   - BenchmarkDiscoveryScan/nodes=1024 at -cpu 1: a fixed cap of 1400
#     allocs per 1,024-node sweep (it reads about 1,220). Each node target
#     is one allocation per sweep, about 1,024 of them; a per-node closure
#     built per sweep (+1,024) or a per-target pool checkout in the capture
#     path (9 pointings x 1,024 targets) breaks it.
#
# Pinning the worker count makes the counts independent of the machine's
# core count. The 200 iterations of the capture rows are enough for one-time
# warm-up allocations (helper goroutines, pool growth) to amortize below one
# per op; the discovery row runs a fixed 5 sweeps of about 0.2 s each.
# Run from the repository root:
#
#	./scripts/alloc_gate.sh
set -eu

MAX_ALLOCS=30
MAX_ALLOCS_PROCS2=44
MAX_ALLOCS_DISCOVERY=1400

out="$(go test -run '^$' -bench 'CaptureSteadyState(Procs2)?$' -cpu 1 -benchtime 200x -benchmem .)"
out="$out
$(go test -run '^$' -bench 'DiscoveryScan/nodes=1024$' -cpu 1 -benchtime 5x -benchmem .)"
echo "$out"

echo "$out" | awk '
	function allocs(   i) {
		for (i = 3; i < NF; i++) if ($(i + 1) == "allocs/op") return $i
		print "alloc gate: no allocs/op for " $1
		failed = 1
		exit 1
	}
	$1 == "BenchmarkCaptureSteadyState" { serial = allocs() }
	$1 == "BenchmarkCaptureSteadyStateProcs2" { procs2 = allocs() }
	$1 == "BenchmarkDiscoveryScan/nodes=1024" { discovery = allocs() }
	function check(name, got, cap) {
		if (got == "") {
			printf "alloc gate: missing %s output\n", name
			return 1
		}
		printf "alloc gate: %s %d allocs/op (cap %d)\n", name, got, cap
		if (got + 0 > cap + 0) {
			printf "alloc gate FAILED: %s at %d allocs/op, cap is %d\n", name, got, cap
			return 1
		}
		return 0
	}
	END {
		if (failed) exit 1
		bad = check("BenchmarkCaptureSteadyState (-cpu 1)", serial, max)
		bad += check("BenchmarkCaptureSteadyStateProcs2", procs2, max2)
		bad += check("BenchmarkDiscoveryScan/nodes=1024 (-cpu 1)", discovery, maxd)
		if (bad) exit 1
		print "alloc gate OK"
	}' max="$MAX_ALLOCS" max2="$MAX_ALLOCS_PROCS2" maxd="$MAX_ALLOCS_DISCOVERY"
