#!/bin/sh
# experiments_check.sh — output gate for the experiment harness, run from the
# repository root (`make experiments-check`): builds cmd/milback-experiments,
# runs every experiment with `-quick -seed 1` and with `-seed 1` (the full
# sweep EXPERIMENTS.md quotes) and diffs each stdout against its golden,
# internal/experiments/testdata/quick_seed1.golden and full_seed1.golden.
# Both sweeps are byte-deterministic at any GOMAXPROCS, so any drift is a
# behaviour change. After an intentional change, regenerate the goldens with
#
#   ./scripts/experiments_check.sh -update
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

dir="internal/experiments/testdata"
go build -o "$TMP/milback-experiments" ./cmd/milback-experiments
status=0
for run in quick full; do
	golden="$dir/${run}_seed1.golden"
	if [ "$run" = quick ]; then
		"$TMP/milback-experiments" -quick -seed 1 > "$TMP/out"
	else
		"$TMP/milback-experiments" -seed 1 > "$TMP/out"
	fi
	if [ "${1:-}" = "-update" ]; then
		mkdir -p "$dir"
		cp "$TMP/out" "$golden"
		echo "experiments_check: regenerated $golden"
	elif diff -u "$golden" "$TMP/out"; then
		echo "experiments_check: output matches $golden"
	else
		echo "experiments_check: output drifted from $golden" >&2
		status=1
	fi
done
exit $status
