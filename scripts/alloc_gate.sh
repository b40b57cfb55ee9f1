#!/bin/sh
# Allocation gate for the capture plane: the pooled + clutter-cached
# steady-state localization pipeline, with the obs instrumentation live on
# that path, must stay at or below MAX_ALLOCS allocs/op — so adding a
# counter or histogram that allocates per observation, or a buffer that
# bypasses the pool, fails the gate. Run from the repository root:
#
#	./scripts/alloc_gate.sh [benchtime]
set -eu

MAX_ALLOCS="${MAX_ALLOCS:-30}"

BENCHTIME="${1:-20x}"

# Anchor to exactly the default-procs steady state: the GOMAXPROCS-pinned
# Procs2/Procs4 variants share the prefix but pay worker-goroutine allocs by
# design.
out="$(go test -run '^$' -bench 'CaptureSteadyState$' -benchtime "$BENCHTIME" -benchmem .)"
echo "$out"

echo "$out" | awk '
	/^BenchmarkCaptureSteadyState/ {
		allocs = ""
		for (i = 3; i < NF; i++) if ($(i + 1) == "allocs/op") allocs = $i
		if (allocs == "") { print "alloc gate: no allocs/op for " $1; exit 1 }
		pooled = allocs
	}
	END {
		if (pooled == "") {
			print "alloc gate: missing BenchmarkCaptureSteadyState output"
			exit 1
		}
		printf "alloc gate: %d allocs/op (cap %d)\n", pooled, max
		if (pooled + 0 > max + 0) {
			printf "alloc gate FAILED: pooled path at %d allocs/op, cap is %d\n", pooled, max
			exit 1
		}
		print "alloc gate OK"
	}' max="$MAX_ALLOCS"
