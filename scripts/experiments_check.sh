#!/bin/sh
# experiments_check.sh — output gate for the experiment harness, run from the
# repository root (`make experiments-check`): builds cmd/milback-experiments,
# runs every experiment with `-quick -seed 1` and diffs stdout against
# internal/experiments/testdata/quick_seed1.golden. The quick sweep is
# byte-deterministic at any GOMAXPROCS, so any drift is a behaviour change.
# After an intentional change, regenerate the golden with
#
#   ./scripts/experiments_check.sh -update
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

golden="internal/experiments/testdata/quick_seed1.golden"
go build -o "$TMP/milback-experiments" ./cmd/milback-experiments
"$TMP/milback-experiments" -quick -seed 1 > "$TMP/out"
if [ "${1:-}" = "-update" ]; then
	mkdir -p "$(dirname "$golden")"
	cp "$TMP/out" "$golden"
	echo "experiments_check: regenerated $golden"
elif diff -u "$golden" "$TMP/out"; then
	echo "experiments_check: output matches $golden"
else
	echo "experiments_check: output drifted from $golden" >&2
	exit 1
fi
