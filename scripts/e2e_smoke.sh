#!/usr/bin/env bash
# scripts/e2e_smoke.sh — end-to-end smoke gate for the finserve pricing
# server. Boots the real binary on loopback and drives it with its own
# load generator; every assertion lives in loadgen flags (no curl/jq):
#
#   phase 1  correctness: mixed methods + greeks, every 200 recomputed
#            against the library and required to bit-match
#   phase 2  deadline burst: sub-deadline Monte Carlo must answer 408 and
#            the pool scheduler counters must freeze afterwards (cancelled
#            work stops consuming the pool)
#   phase 3  SIGTERM drain: in-flight work finishes, process exits 0
#            within the drain budget
#   phase 4  admission saturation: a tiny work budget must shed with 503
#            and nothing else (no 5xx other than 503)
#   phase 5  rate limiting: a tiny token bucket must answer 429
#   phase 6  pricing cache: a concurrent identical burst must run one
#            computation (collapse or hit), and a Zipf-skewed pool must
#            clear a hit-rate floor with every 200 — cold or cached —
#            still bit-matching the library (-verify with the cache on)
#   phase 7  router-tier cache: same hit-rate + bit-identity contract
#            with the cache in the router, fronting spawned replicas
#   phase 8  columnar framing: binary-frame /price 200s must bit-match a
#            JSON replay of the same contracts (loadgen cross-checks every
#            columnar 200), against a lone replica AND through the router
#   phase 9  scenario scatter-gather: /scenario 200s must be byte-identical
#            to the library's scenario engine against a lone replica AND
#            through a 2-replica router that splits the grid (loadgen
#            recomputes every 200); then a replica is killed mid-burst and
#            the router must fail unfinished partitions over with every
#            response still 200 and byte-clean
#   phase 10 streaming Greeks feed: SSE subscribers against a lone replica
#            (every pushed entry recomputed cold from its echoed inputs and
#            required to bit-match; a deliberately slow subscriber must
#            observe a resync snapshot), then through a 2-replica router
#            with a replica killed mid-stream — the orphaned partition must
#            re-subscribe to the survivor (stream_resubscribes on /statsz)
#            with every entry still bit-clean
#
# Usage: ./scripts/e2e_smoke.sh   (E2E_PORT overrides the default port)
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${E2E_PORT:-8231}"
URL="http://127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
BIN="$TMP/finserve"
LOG="$TMP/server.log"
SERVER_PID=""

cleanup() {
	if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
		kill -KILL "$SERVER_PID" 2>/dev/null || true
	fi
	# Phase 7 runs the router, whose replica children a KILL above would
	# orphan (children run from the tmp binary, so the pattern cannot
	# touch unrelated processes).
	pkill -KILL -f "$BIN serve" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
	echo "e2e: FAIL: $*" >&2
	echo "--- server log ---" >&2
	cat "$LOG" >&2 || true
	exit 1
}

wait_port() {
	for _ in $(seq 1 100); do
		if (exec 3<>"/dev/tcp/127.0.0.1/${PORT}") 2>/dev/null; then
			exec 3>&- 3<&- || true
			return 0
		fi
		sleep 0.1
	done
	fail "server did not start listening on :${PORT}"
}

boot() {
	: >"$LOG"
	"$BIN" serve -addr "127.0.0.1:${PORT}" "$@" >>"$LOG" 2>&1 &
	SERVER_PID=$!
	wait_port
}

# SIGTERM the server and require exit 0 within max_ms.
stop_drain() {
	local max_ms="$1"
	local t0 t1 rc=0
	t0=$(date +%s%N)
	kill -TERM "$SERVER_PID"
	wait "$SERVER_PID" || rc=$?
	t1=$(date +%s%N)
	SERVER_PID=""
	local elapsed_ms=$(((t1 - t0) / 1000000))
	[[ $rc -eq 0 ]] || fail "server exited $rc on SIGTERM"
	((elapsed_ms <= max_ms)) || fail "drain took ${elapsed_ms}ms > ${max_ms}ms"
	echo "e2e: drained in ${elapsed_ms}ms"
}

echo "==> e2e: building finserve"
go build -o "$BIN" ./cmd/finserve

echo "==> e2e phase 1: correctness (mixed methods, bit-match verification)"
boot
"$BIN" loadgen -url "$URL" -requests 48 -concurrency 4 \
	-mix "closed-form=6,monte-carlo=1,binomial-tree=1,crank-nicolson=1,trinomial-tree=1,greeks=2" \
	-options 6 -mc-paths 16384 -binomial-steps 256 -grid-points 128 -time-steps 200 \
	-verify -assert-codes 200 -min-count 200:48 ||
	fail "phase 1 (correctness/verify)"

echo "==> e2e phase 2: sub-deadline burst cancels work (408 + frozen sched)"
"$BIN" loadgen -url "$URL" -requests 12 -concurrency 6 \
	-mix "monte-carlo=1" -options 2 -mc-paths 4194304 -deadline-ms 5 \
	-assert-codes 200,408 -min-count 408:8 -check-sched-frozen ||
	fail "phase 2 (deadline burst / sched freeze)"

echo "==> e2e phase 3: SIGTERM drains in-flight work within 5s"
"$BIN" loadgen -url "$URL" -requests 4 -concurrency 4 \
	-mix "monte-carlo=1" -options 1 -mc-paths 1048576 >/dev/null 2>&1 &
LOADGEN_PID=$!
sleep 0.2
stop_drain 5000
wait "$LOADGEN_PID" 2>/dev/null || true # drain may refuse its tail; phase asserts the server

echo "==> e2e phase 4: admission saturation sheds with 503 (and only 503)"
boot -max-units 30 -admit-wait 1ms
"$BIN" loadgen -url "$URL" -requests 16 -concurrency 8 \
	-mix "monte-carlo=1" -options 4 -mc-paths 262144 \
	-assert-codes 200,503 -min-count 200:1,503:1 ||
	fail "phase 4 (admission shed)"
stop_drain 5000

echo "==> e2e phase 5: request-rate limit answers 429"
boot -rate 2 -burst 2
"$BIN" loadgen -url "$URL" -requests 20 -concurrency 4 \
	-mix "closed-form=1" -options 2 \
	-assert-codes 200,429 -min-count 200:1,429:1 ||
	fail "phase 5 (rate limit)"
stop_drain 5000

echo "==> e2e phase 6: pricing cache (one computation per identical burst + Zipf hit-rate floor)"
# 64 identical requests from 8 clients must run exactly one computation:
# every other reply is a collapse onto the leader's flight or a hit on
# what it stored, and loadgen counts both as hits (63/64 = 0.984). Which
# of the two a reply was is timing: nothing in the server makes a leader
# dwell any more (the coalescer prices a lone ticket at once), and a
# dwell bought with request size — a leader busy for milliseconds on a
# 16K..256K-option body — collapsed at least once in only 15/50, 23/50,
# 11/20 and 14/20 runs at 16384, 32768, 131072 and 262144 options,
# because the followers spend longer decoding than the leader spends
# pricing. So -assert-min-collapsed is not asserted here; that waiters
# do park on a flight is pinned deterministically by TestCacheCollapse
# (internal/serve) and TestSingleflightCollapse (pricecache).
boot -cache-bytes 67108864
"$BIN" loadgen -url "$URL" -requests 64 -concurrency 8 \
	-mix "closed-form=1" -options 8 -zipf 0 -zipf-pool 1 \
	-assert-codes 200 -min-count 200:64 -assert-min-hit-rate 0.98 ||
	fail "phase 6a (one computation for an identical burst)"
# Zipf-skewed pool: misses are bounded by the pool size, so the floor is
# guaranteed by construction (300 requests, <=64 cold misses); -verify
# recomputes every 200 — cold or cache-served — against the library.
"$BIN" loadgen -url "$URL" -requests 300 -concurrency 4 \
	-mix "closed-form=1" -options 8 -zipf 1.2 -zipf-pool 64 -seed 3 \
	-verify -assert-codes 200 -min-count 200:300 -assert-min-hit-rate 0.5 ||
	fail "phase 6b (zipf hit rate / bit-clean with cache on)"
stop_drain 5000

echo "==> e2e phase 7: router-tier cache over spawned replicas (bit-clean hits)"
: >"$LOG"
"$BIN" route -addr "127.0.0.1:${PORT}" -replicas 2 -port-base "$((PORT + 500))" \
	-cache-tier router -cache-bytes 67108864 >>"$LOG" 2>&1 &
SERVER_PID=$!
wait_port
for _ in $(seq 1 100); do
	resp=$( (exec 3<>"/dev/tcp/127.0.0.1/${PORT}" &&
		printf 'GET /healthz HTTP/1.0\r\n\r\n' >&3 && cat <&3) 2>/dev/null || true)
	if grep -q '"replicas_routable":2' <<<"$resp"; then
		break
	fi
	sleep 0.1
done
"$BIN" loadgen -url "$URL" -requests 200 -concurrency 4 \
	-mix "closed-form=1" -options 8 -zipf 1.1 -zipf-pool 32 -seed 5 \
	-verify -assert-codes 200 -min-count 200:200 -assert-min-hit-rate 0.5 ||
	fail "phase 7 (router-tier cache hit rate / bit-clean)"

echo "==> e2e phase 8a: columnar framing through the router (bit-match vs JSON replay)"
# Reuses the phase 7 router: every columnar 200 is cross-checked
# bit-identical against a JSON replay of the same contracts, and the
# router must answer both framings. The router cache bypasses columnar
# requests, so hits come only from the JSON replays.
"$BIN" loadgen -url "$URL" -requests 48 -concurrency 4 \
	-mix "closed-form=1" -options 8 -wire columnar -seed 9 \
	-verify -assert-codes 200 -min-count 200:48 ||
	fail "phase 8a (columnar through the router)"
stop_drain 5000

echo "==> e2e phase 8b: columnar framing against a lone replica"
boot
"$BIN" loadgen -url "$URL" -requests 48 -concurrency 4 \
	-mix "closed-form=1,greeks=1" -options 8 -wire columnar -seed 9 \
	-verify -assert-codes 200 -min-count 200:48 ||
	fail "phase 8b (columnar against a replica)"
stop_drain 5000

echo "==> e2e phase 9a: scenario engine against a lone replica (byte-identity)"
boot
"$BIN" loadgen -url "$URL" -requests 24 -concurrency 4 \
	-scenario -options 6 -scenario-gens 4 \
	-verify -assert-codes 200 -min-count 200:24 ||
	fail "phase 9a (scenario against a replica)"
stop_drain 5000

echo "==> e2e phase 9b: scenario scatter-gather through a 2-replica router"
: >"$LOG"
"$BIN" route -addr "127.0.0.1:${PORT}" -replicas 2 -port-base "$((PORT + 600))" \
	-restart-delay 700ms -health-interval 300ms >>"$LOG" 2>&1 &
SERVER_PID=$!
wait_port
for _ in $(seq 1 100); do
	resp=$( (exec 3<>"/dev/tcp/127.0.0.1/${PORT}" &&
		printf 'GET /healthz HTTP/1.0\r\n\r\n' >&3 && cat <&3) 2>/dev/null || true)
	if grep -q '"replicas_routable":2' <<<"$resp"; then
		break
	fi
	sleep 0.1
done
# Every 200 must be byte-identical to the library's evaluate+finalize —
# through the split/merge path (-assert-min-scattered proves the router
# actually partitioned the grid rather than passing requests through).
"$BIN" loadgen -url "$URL" -requests 24 -concurrency 4 \
	-scenario -options 6 -scenario-gens 4 \
	-verify -assert-codes 200 -min-count 200:24 -assert-min-scattered 20 ||
	fail "phase 9b (scenario scatter-gather byte-identity)"

echo "==> e2e phase 9c: replica killed mid-scenario-burst; partitions fail over"
# Grid-only scenarios: every partition is closed-form, so the router may
# re-attempt any of them on the surviving replica. Availability must stay
# 100% and every merged 200 must still bit-match the library.
"$BIN" loadgen -url "$URL" -requests 300 -concurrency 4 \
	-scenario -options 6 \
	-verify -assert-availability 100 >"$TMP/scenario_burst.out" 2>&1 &
BURST_PID=$!
sleep 0.15
VICTIM=$(grep -m1 "route: replica 0 pid" "$LOG" | awk '{print $5}')
[[ -n "$VICTIM" ]] || fail "could not find replica 0 pid in router log"
kill -KILL "$VICTIM" 2>/dev/null || true
if ! wait "$BURST_PID"; then
	cat "$TMP/scenario_burst.out" >&2 || true
	fail "phase 9c (scenario partition failover through a replica kill)"
fi
cat "$TMP/scenario_burst.out"
stop_drain 5000

echo "==> e2e phase 10a: streaming feed against a lone replica (bit-clean + slow resync)"
# All-dirty mode (negative threshold) makes every tick reprice the whole
# universe: frames are large enough that the slow subscriber's one-time
# stall reliably overflows its server-side buffer (kernel socket buffers
# absorb small-frame backlogs), forcing the drop→resync path the phase
# asserts. -verify recomputes every pushed entry cold from its echoed
# inputs and requires bit-equality.
boot -stream -stream-interval 20ms -stream-spot-threshold=-1
"$BIN" loadgen -url "$URL" -stream -stream-clients 3 -stream-slow 1 \
	-stream-duration 4s -verify -assert-min-events 10 -assert-max-staleness-ms 500 ||
	fail "phase 10a (stream bit-match / slow-client resync)"
stop_drain 5000

echo "==> e2e phase 10b: routed stream, replica killed mid-stream (failover resync)"
: >"$LOG"
"$BIN" route -addr "127.0.0.1:${PORT}" -replicas 2 -port-base "$((PORT + 700))" \
	-restart-delay 2s -health-interval 300ms \
	-replica-flags "-stream -stream-interval 20ms -stream-spot-threshold=-1" >>"$LOG" 2>&1 &
SERVER_PID=$!
wait_port
for _ in $(seq 1 100); do
	resp=$( (exec 3<>"/dev/tcp/127.0.0.1/${PORT}" &&
		printf 'GET /healthz HTTP/1.0\r\n\r\n' >&3 && cat <&3) 2>/dev/null || true)
	if grep -q '"replicas_routable":2' <<<"$resp"; then
		break
	fi
	sleep 0.1
done
# Subscribers listen through the kill; every entry — before the kill,
# and from the survivor's resync snapshot after it — must still bit-match
# a cold repricing at its echoed market state.
"$BIN" loadgen -url "$URL" -stream -stream-clients 3 -stream-duration 5s \
	-verify -assert-min-events 10 >"$TMP/stream_burst.out" 2>&1 &
BURST_PID=$!
sleep 1.2
VICTIM=$(grep -m1 "route: replica 0 pid" "$LOG" | awk '{print $5}')
[[ -n "$VICTIM" ]] || fail "could not find replica 0 pid in router log"
kill -KILL "$VICTIM" 2>/dev/null || true
if ! wait "$BURST_PID"; then
	cat "$TMP/stream_burst.out" >&2 || true
	fail "phase 10b (routed stream bit-clean through a replica kill)"
fi
cat "$TMP/stream_burst.out"
resp=$( (exec 3<>"/dev/tcp/127.0.0.1/${PORT}" &&
	printf 'GET /statsz HTTP/1.0\r\n\r\n' >&3 && cat <&3) 2>/dev/null || true)
grep -q '"stream_resubscribes":[1-9]' <<<"$resp" ||
	fail "phase 10b: router /statsz recorded no stream re-subscription after the kill"
stop_drain 5000

echo "e2e: all phases passed"
