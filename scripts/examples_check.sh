#!/bin/sh
# examples_check.sh — output gate for the runnable examples, run from the
# repository root (`make examples-check`): builds every examples/<name>
# program and diffs its stdout against examples/<name>/testdata/stdout.golden.
# The examples run fixed seeds, so their output is byte-deterministic and
# any drift is a behaviour change. After an intentional change, regenerate
# the goldens with
#
#   ./scripts/examples_check.sh -update
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

status=0
for dir in examples/*/; do
	dir="${dir%/}"
	name="$(basename "$dir")"
	golden="$dir/testdata/stdout.golden"
	go build -o "$TMP/$name" "./$dir"
	"$TMP/$name" > "$TMP/$name.out"
	if [ "${1:-}" = "-update" ]; then
		mkdir -p "$dir/testdata"
		cp "$TMP/$name.out" "$golden"
		echo "examples_check: regenerated $golden"
	elif diff -u "$golden" "$TMP/$name.out"; then
		echo "examples_check: $name matches $golden"
	else
		echo "examples_check: $name stdout drifted from $golden" >&2
		status=1
	fi
done
exit $status
