#!/bin/sh
# Live A/B perf gate: times the working tree against a base commit on four
# benchmark rows and fails on a regression that holds across repeated,
# interleaved samples. Run from the repository root:
#
#	./scripts/bench_ab.sh [BASE]
#
# BASE (default HEAD) is extracted with git archive into a temp dir; test
# binaries for . and ./internal/dsp are built from it and from the working
# tree. Each row then takes 10 pairs of single samples at -cpu 1, one
# sample per side per pair, and the side that runs first alternates between
# pairs. Per row the script prints both medians, their ratio, the pairs the
# change won (wins/N) and the base's interquartile range. It fails when
#
#   - the change is slower in at least 8 of the 10 pairs of a row AND its
#     median exceeds the base median by more than the base IQR, or
#   - the change's BenchmarkCaptureMovingScene median is more than 1.5x its
#     own BenchmarkCaptureSteadyState median (per-dependency clutter
#     invalidation must keep a moving scene near the static cost).
#
# A row the base does not have is printed and not gated; a row missing from
# the working tree fails.
set -eu

BASE="${1:-HEAD}"
PAIRS=10
MIN_LOSSES=8
MAX_MOVING_RATIO=1.5

# Gate rows: benchmark, package, fixed -benchtime.
ROWS='BenchmarkCaptureSteadyState . 200x
BenchmarkDiscoveryScan/nodes=1024 . 2x
BenchmarkForwardPacked ./internal/dsp 1000x
BenchmarkCaptureMovingScene . 200x'

base_id="$(git rev-parse --verify "$BASE^{commit}")"
tree_id="$(git rev-parse HEAD)"
[ -z "$(git status --porcelain)" ] || tree_id="$tree_id+changes"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
trap 'exit 130' INT TERM
mkdir "$TMP/base"
git archive "$base_id" | tar -x -C "$TMP/base"

# build SIDE DIR: one test binary per package of the gate rows.
build() {
	(cd "$2" &&
		go test -c -trimpath -o "$TMP/$1-root.test" . &&
		go test -c -trimpath -o "$TMP/$1-dsp.test" ./internal/dsp)
}
build base "$TMP/base"
build tree .

# sample SIDE ROW PKG BENCHTIME OUT: runs one sample of ROW and appends its
# ns/op (nothing when the side lacks the row) as one line to OUT.
sample() {
	dir=.; [ "$1" = tree ] || dir="$TMP/base"
	bin="$TMP/$1-root.test"; [ "$3" = . ] || bin="$TMP/$1-dsp.test"
	re="$(echo "$2" | sed 's#[^/]*#^&$#g')"
	if ! (cd "$dir/$3" && "$bin" -test.run '^$' -test.bench "$re" -test.cpu 1 -test.timeout 10m \
		-test.benchtime "$4") >"$TMP/out" 2>&1; then
		cat "$TMP/out" >&2
		echo "bench-ab: $2 failed on the $1 side" >&2
		exit 2
	fi
	[ -s "$TMP/cpu" ] || sed -n 's/^cpu: //p' "$TMP/out" >"$TMP/cpu"
	awk -v row="$2" '$1 == row { for (i = 3; i < NF; i++) if ($(i + 1) == "ns/op") print $i }' \
		"$TMP/out" >>"$5"
}

p=1
while [ $p -le $PAIRS ]; do
	order="base tree"; [ $((p % 2)) -eq 1 ] || order="tree base"
	r=0
	echo "$ROWS" | while read -r row pkg benchtime; do
		r=$((r + 1))
		for side in $order; do
			sample "$side" "$row" "$pkg" "$benchtime" "$TMP/$side.$r"
		done
	done
	p=$((p + 1))
done

echo "bench-ab: $(go version | cut -d' ' -f3) $(go env GOOS)/$(go env GOARCH)," \
	"cpu $(cat "$TMP/cpu"), nproc $(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
echo "bench-ab: base $base_id ($BASE), tree $tree_id; $PAIRS pairs per row, -cpu 1"

r=0
echo "$ROWS" | while read -r row pkg benchtime; do
	r=$((r + 1))
	echo "$row $benchtime $(tr '\n' ' ' <"$TMP/base.$r") | $(tr '\n' ' ' <"$TMP/tree.$r")"
done | awk -v pairs=$PAIRS -v minloss=$MIN_LOSSES -v maxmov=$MAX_MOVING_RATIO '
# quantile(v, n, q): linear interpolation between the order statistics
# of the n values v[1..n], sorted here in place.
function quantile(v, n, q,   i, j, t, h) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	h = 1 + (n - 1) * q
	return v[int(h)] + (h - int(h)) * (v[int(h) + 1] - v[int(h)])
}
BEGIN {
	printf "%-34s %6s %12s %12s %7s %6s %12s\n", "row", "time", "base ns/op", "tree ns/op", "ratio", "wins", "base IQR"
}
{
	row = $1; nb = 0; nt = 0; side = "b"
	for (i = 3; i <= NF; i++) {
		if ($i == "|") { side = "t"; continue }
		if (side == "b") b[++nb] = $i; else t[++nt] = $i
	}
	if (nt != pairs) {
		printf "FAIL: %s: %d of %d samples from the working tree\n", row, nt, pairs
		bad = 1; next
	}
	wins = 0; losses = 0
	for (i = 1; nb == pairs && i <= pairs; i++) { if (t[i] < b[i]) wins++; else if (t[i] > b[i]) losses++ }
	tmed = quantile(t, nt, 0.5)
	med[row] = tmed
	if (nb != pairs) {
		printf "%-34s %6s %12s %12.0f %7s %6s %12s  absent at base\n", row, $2, "-", tmed, "-", "-", "-"
		next
	}
	bmed = quantile(b, nb, 0.5)
	iqr = quantile(b, nb, 0.75) - quantile(b, nb, 0.25)
	printf "%-34s %6s %12.0f %12.0f %7.3f %3d/%-2d %12.0f\n", row, $2, bmed, tmed, tmed / bmed, wins, pairs, iqr
	if (losses >= minloss && tmed - bmed > iqr) {
		printf "FAIL: %s slower in %d/%d pairs, median +%.0f ns/op beyond the base IQR %.0f\n", \
			row, losses, pairs, tmed - bmed, iqr
		bad = 1
	}
}
END {
	mov = "BenchmarkCaptureMovingScene"; st = "BenchmarkCaptureSteadyState"
	if ((mov in med) && (st in med)) {
		ratio = med[mov] / med[st]
		printf "%s median is %.2fx %s (limit %sx)\n", mov, ratio, st, maxmov
		if (ratio > maxmov) { printf "FAIL: moving scene %.2fx the static steady state\n", ratio; bad = 1 }
	}
	if (bad) exit 1
	print "bench-ab: OK"
}'
