#!/bin/sh
# Mutation gate: every patch under scripts/mutants/ plants one known bug,
# and the test it names must catch it. Run from the repository root:
#
#	./scripts/mutation_gate.sh
#
# The working tree (tracked and untracked files, not ignored ones) is copied
# into a temp dir, as scripts/bench_ab.sh extracts its base. Each patch is
# applied there in turn, its package is built, its named tests run, and the
# patch is reverted. A patch file starts with a free-text description, then
# three header lines, then the diff (git apply skips the text before it):
#
#	Package: ./milback
#	Run: ^TestOverlapMatchesOneByOne$
#	Flags: -race -count=10
#
# The gate fails when a patch no longer applies (the mutant went stale and
# must move with the code), when the mutated package does not build, when
# the Run pattern matches no test, or when the named tests still pass (the
# mutant survived: the test no longer guards what it names).
set -eu

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
trap 'exit 130' INT TERM
git ls-files -z --cached --others --exclude-standard |
	tar --null -T - --ignore-failed-read -cf - 2>/dev/null | tar -xf - -C "$TMP"

failed=0
for patch in scripts/mutants/*.patch; do
	name="$(basename "$patch" .patch)"
	abs="$(pwd)/$patch"
	pkg="$(sed -n 's/^Package: //p' "$patch")"
	run="$(sed -n 's/^Run: //p' "$patch")"
	flags="$(sed -n 's/^Flags: //p' "$patch")"
	if [ -z "$pkg" ] || [ -z "$run" ]; then
		echo "mutation gate: $name: no Package or Run header"
		failed=1
		continue
	fi
	if ! (cd "$TMP" && git apply "$abs"); then
		echo "mutation gate: $name: STALE, the patch no longer applies"
		failed=1
		continue
	fi
	# shellcheck disable=SC2086 # Flags holds several go test flags.
	if ! (cd "$TMP" && go test $flags -run '^$' "$pkg") >"$TMP/.out" 2>&1; then
		cat "$TMP/.out"
		echo "mutation gate: $name: the mutated package does not build"
		failed=1
	elif (cd "$TMP" && go test $flags -timeout 5m -run "$run" "$pkg") >"$TMP/.out" 2>&1; then
		if grep -q 'no tests to run' "$TMP/.out"; then
			echo "mutation gate: $name: STALE, $run matches no test in $pkg"
		else
			echo "mutation gate: $name: SURVIVED, $run $flags passed"
		fi
		failed=1
	else
		echo "mutation gate: $name: killed by $run"
	fi
	(cd "$TMP" && git apply -R "$abs")
done
exit $failed
