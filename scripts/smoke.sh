#!/usr/bin/env bash
# scripts/smoke.sh — the process-level checks of the finserve binary,
# the ones that need real processes. Every protocol assertion (bit-clean
# 200s, routed ≡ lone, caching, columnar, scenario, streaming, chaos) is a
# Go test over the in-process topology in internal/serve/shard; this
# script keeps only:
#
#   1  the fault digest is a pure function of the spec: two runs of
#      `finserve fault` print identical output
#   2  `finserve serve` exits 0 within 5s on SIGTERM while a Monte Carlo
#      request is in flight, and that request still answers 200
#   3  after kill -9 of one of `finserve route -replicas 2`'s children,
#      the supervisor revives it and /healthz reports both routable again
#   4  `finserve route -backends` over a `finserve serve -stream` exits 0
#      within 2s on SIGTERM while a routed /stream is open, and that
#      stream ends with `event: goodbye`
#
# Each step waits on an observed condition (a listening port, in-flight
# work units, a revival in the router log), never on a fixed sleep.
# Usage: ./scripts/smoke.sh   (SMOKE_PORT overrides the default port)
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${SMOKE_PORT:-8231}"
TMP="$(mktemp -d)"
BIN="$TMP/finserve"
LOG="$TMP/server.log"
PID=""

cleanup() {
	if [[ -n "$PID" ]] && kill -0 "$PID" 2>/dev/null; then
		kill -KILL "$PID" 2>/dev/null || true
	fi
	# Replica children run from the tmp binary, so this cannot touch
	# unrelated processes.
	pkill -KILL -f "$BIN serve" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
	echo "smoke: FAIL: $*" >&2
	cat "$LOG" >&2 2>/dev/null || true
	exit 1
}

# get PATH prints the raw HTTP/1.0 response to GET PATH on the port.
get() {
	(exec 3<>"/dev/tcp/127.0.0.1/${PORT}" &&
		printf 'GET %s HTTP/1.0\r\n\r\n' "$1" >&3 && cat <&3) 2>/dev/null || true
}

# healthz_has REGEX: does /healthz currently match REGEX?
healthz_has() { grep -Eq "$1" <<<"$(get /healthz)"; }

# revived: has the router logged a second pid for replica 0?
revived() { (($(grep -c "route: replica 0 pid" "$LOG") >= 2)); }

# until_ok DESC CMD... retries CMD every 50ms for up to 10s.
until_ok() {
	local desc="$1"
	shift
	for _ in $(seq 1 200); do
		if "$@"; then
			return 0
		fi
		sleep 0.05
	done
	fail "timed out waiting for $desc"
}

echo "==> smoke: building finserve"
go build -o "$BIN" ./cmd/finserve

echo "==> smoke 1: fault digest is a pure function of the spec"
SPEC="42:0.10:refuse,reset,truncate"
"$BIN" fault -spec "$SPEC" -n 4096 >"$TMP/digest.a" || fail "fault subcommand"
"$BIN" fault -spec "$SPEC" -n 4096 >"$TMP/digest.b" || fail "fault subcommand (rerun)"
diff -u "$TMP/digest.a" "$TMP/digest.b" || fail "same spec printed different digests"
grep -q "digest=" "$TMP/digest.a" || fail "fault subcommand printed no digest"
cat "$TMP/digest.a"

echo "==> smoke 2: SIGTERM drains an in-flight Monte Carlo request, exit 0 within 5s"
"$BIN" serve -addr "127.0.0.1:${PORT}" >"$LOG" 2>&1 &
PID=$!
until_ok "serve to listen" healthz_has '"status":"ok"'
BODY='{"method":"monte-carlo","options":[{"spot":100,"strike":100,"expiry":1}],"config":{"mc_paths":4194304}}'
exec 4<>"/dev/tcp/127.0.0.1/${PORT}"
printf 'POST /price HTTP/1.0\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s' "${#BODY}" "$BODY" >&4
until_ok "the request to take work units" healthz_has '"in_flight_units":[1-9]'
t0=$(date +%s%N)
kill -TERM "$PID"
rc=0
wait "$PID" || rc=$?
PID=""
elapsed_ms=$((($(date +%s%N) - t0) / 1000000))
((rc == 0)) || fail "serve exited $rc on SIGTERM"
((elapsed_ms <= 5000)) || fail "drain took ${elapsed_ms}ms > 5000ms"
head -n 1 <&4 | grep -q " 200 " || fail "the in-flight request did not finish with 200"
exec 4<&-
echo "smoke: drained in ${elapsed_ms}ms with the in-flight request answered 200"

echo "==> smoke 3: the route supervisor revives a kill -9'd replica"
"$BIN" route -addr "127.0.0.1:${PORT}" -replicas 2 -port-base "$((PORT + 500))" \
	-restart-delay 200ms -health-interval 50ms >"$LOG" 2>&1 &
PID=$!
until_ok "2 routable replicas" healthz_has '"replicas_routable":2'
VICTIM=$(grep -m1 "route: replica 0 pid" "$LOG" | awk '{print $5}')
[[ -n "$VICTIM" ]] || fail "no replica 0 pid in the router log"
kill -KILL "$VICTIM"
until_ok "replica 0 to be revived" revived
until_ok "2 routable replicas after revival" healthz_has '"replicas_routable":2'
kill -TERM "$PID"
rc=0
wait "$PID" || rc=$?
PID=""
((rc == 0)) || fail "route exited $rc on SIGTERM"

echo "==> smoke 4: SIGTERM to the router ends an open routed stream with goodbye, exit 0 within 2s"
"$BIN" serve -stream -addr "127.0.0.1:$((PORT + 1))" >"$LOG" 2>&1 &
SPID=$!
"$BIN" route -addr "127.0.0.1:${PORT}" -backends "http://127.0.0.1:$((PORT + 1))" \
	-health-interval 50ms >>"$LOG" 2>&1 &
PID=$!
until_ok "the replica to be routable" healthz_has '"replicas_routable":1'
exec 5<>"/dev/tcp/127.0.0.1/${PORT}"
printf 'GET /stream?ids=0 HTTP/1.0\r\n\r\n' >&5
cat <&5 >"$TMP/stream.out" &
CAT=$!
exec 5<&-
until_ok "the routed stream's hello" grep -q "event: hello" "$TMP/stream.out"
t0=$(date +%s%N)
kill -TERM "$PID"
rc=0
wait "$PID" || rc=$?
PID=""
elapsed_ms=$((($(date +%s%N) - t0) / 1000000))
((rc == 0)) || fail "route exited $rc on SIGTERM"
((elapsed_ms <= 2000)) || fail "route took ${elapsed_ms}ms > 2000ms to exit with a stream open"
until_ok "the routed stream to end" eval '! kill -0 "$CAT" 2>/dev/null'
grep -q "event: goodbye" "$TMP/stream.out" || fail "the routed stream ended without event: goodbye"
kill -TERM "$SPID"
wait "$SPID" || fail "serve exited non-zero on SIGTERM"
echo "smoke: router exited in ${elapsed_ms}ms and the stream ended with goodbye"

echo "smoke: all checks passed"
