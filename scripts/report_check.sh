#!/bin/sh
# report_check.sh — claims gate, run from the repository root
# (`make report-check`): regenerates the paper verdict table at seeds 1, 2
# and 3 and fails if any claim reads MISS (milback-report exits 1 then). The
# seed-1 table must also match the committed REPORT.md byte for byte apart
# from its Generated timestamp line, so a kernel change that moves a
# measured figure shows up as a diff. After an intentional change,
# regenerate the report with
#
#   go run ./cmd/milback-report -seed 1 > REPORT.md
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

go build -o "$TMP/milback-report" ./cmd/milback-report
status=0
for seed in 1 2 3; do
	if "$TMP/milback-report" -seed "$seed" > "$TMP/report$seed.md"; then
		echo "report_check: seed $seed: every claim MATCHes"
	else
		cat "$TMP/report$seed.md" >&2
		echo "report_check: seed $seed: a claim missed the paper" >&2
		status=1
	fi
done
grep -v '^Generated ' REPORT.md > "$TMP/want.md"
grep -v '^Generated ' "$TMP/report1.md" > "$TMP/got.md"
if diff -u "$TMP/want.md" "$TMP/got.md"; then
	echo "report_check: seed 1 matches REPORT.md"
else
	echo "report_check: seed 1 drifted from REPORT.md" >&2
	status=1
fi
exit $status
