#!/bin/sh
# Serving-layer smoke test, run from the repository root (`make serve-smoke`):
# builds milback-serve and milback-loadgen, starts the daemon on an
# ephemeral port, drives a short open-loop burst against it, and then
# SIGTERMs it, requiring
#
#   - zero failed operations in the burst (the "0 failed" count on
#     milback-loadgen's report line),
#   - daemon exit status 0 (the drain completed in-flight grants), and
#   - the pidfile removed on the way out.
#
# The burst is 10 ops/s for 2 s against 3 nodes. Artifacts land in a temp
# dir that is cleaned on exit.
set -eu

QPS=10
SECS=2
NODES=3

TMP="$(mktemp -d)"
SERVE_PID=""
cleanup() {
	# Belt and braces: if the daemon is still up (a failure path), kill it.
	if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
		kill -9 "$SERVE_PID" 2>/dev/null || true
	fi
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

go build -o "$TMP/milback-serve" ./cmd/milback-serve
go build -o "$TMP/milback-loadgen" ./cmd/milback-loadgen

"$TMP/milback-serve" -addr 127.0.0.1:0 -pidfile "$TMP/serve.pid" -grace 30s \
	2>"$TMP/serve.log" &
SERVE_PID=$!

# The daemon prints its bound address on stderr once the listener is up.
ADDR=""
i=0
while [ $i -lt 100 ]; do
	ADDR="$(sed -n 's#.*API on http://##p' "$TMP/serve.log" | head -n 1)"
	[ -n "$ADDR" ] && break
	if ! kill -0 "$SERVE_PID" 2>/dev/null; then
		echo "serve-smoke: daemon died during startup:" >&2
		cat "$TMP/serve.log" >&2
		exit 1
	fi
	i=$((i + 1))
	sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve-smoke: daemon never reported its address" >&2; exit 1; }
echo "serve-smoke: daemon up on $ADDR (pid $SERVE_PID)"

"$TMP/milback-loadgen" -target "http://$ADDR" -qps "$QPS" -duration "${SECS}s" \
	-nodes "$NODES" -seed 7 | tee "$TMP/loadgen.out"

# Zero failed operations during the burst: one report line, with a non-zero
# op count and "0 failed".
if grep -q '([1-9][0-9]* ops, 0 failed,' "$TMP/loadgen.out"; then
	echo "serve-smoke: zero failed operations"
else
	echo "serve-smoke: loadgen saw failures (or ran no ops)" >&2
	exit 1
fi

# Clean shutdown: SIGTERM, exit 0, pidfile gone.
kill -TERM "$SERVE_PID"
STATUS=0
wait "$SERVE_PID" || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
	echo "serve-smoke: daemon exited $STATUS after SIGTERM, want 0:" >&2
	cat "$TMP/serve.log" >&2
	exit 1
fi
if [ -e "$TMP/serve.pid" ]; then
	echo "serve-smoke: pidfile survived the drain" >&2
	exit 1
fi
echo "serve-smoke: PASS (clean drain, pidfile removed)"
