#!/usr/bin/env bash
# scripts/chaos_smoke.sh — chaos gate for the sharded finserve tier.
# Boots the real router over real replica processes and injects the
# failures the resilience layer claims to survive; every assertion lives
# in loadgen flags or a diff (no curl/jq):
#
#   phase 1  seed determinism: the fault injector's decision stream for a
#            spec is a pure function of the seed — two runs of
#            `finserve fault` must print byte-identical digests, so any
#            chaos run is replayable from its spec alone
#   phase 2  availability under injected faults: 3 replicas each behind a
#            10% connection-fault injector (refuse/reset/truncate); the
#            routed mix must stay ≥99% 200s and every 200 must bit-match
#            the library recomputation (-verify through the router)
#   phase 3  replica death mid-burst: kill -9 one replica during a burst;
#            availability floor holds, the dead replica's breaker opens,
#            the supervisor revives it, and a follow-up run proves the
#            breaker probed and re-closed (open -> half-open -> closed)
#
# Monte Carlo is deliberately absent from the mixes: MC answers are
# decomposition-dependent, so the router never retries or hedges them
# (same rule as coalescing) and a faulted MC request fails honestly.
#
# Usage: ./scripts/chaos_smoke.sh   (CHAOS_PORT / CHAOS_PORT_BASE override)
set -euo pipefail
cd "$(dirname "$0")/.."

RPORT="${CHAOS_PORT:-8261}"
PBASE="${CHAOS_PORT_BASE:-9311}"
URL="http://127.0.0.1:${RPORT}"
SPEC="42:0.10:refuse,reset,truncate"
TMP="$(mktemp -d)"
BIN="$TMP/finserve"
LOG="$TMP/route.log"
ROUTER_PID=""

cleanup() {
	if [[ -n "$ROUTER_PID" ]] && kill -0 "$ROUTER_PID" 2>/dev/null; then
		kill -KILL "$ROUTER_PID" 2>/dev/null || true
	fi
	# The router SIGTERMs its children on shutdown; sweep any orphans the
	# KILL above may have left behind (children run from the tmp binary,
	# so the pattern cannot touch unrelated processes).
	pkill -KILL -f "$BIN serve" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
	echo "chaos: FAIL: $*" >&2
	echo "--- router log ---" >&2
	cat "$LOG" >&2 || true
	exit 1
}

wait_port() {
	local port="$1"
	for _ in $(seq 1 100); do
		if (exec 3<>"/dev/tcp/127.0.0.1/${port}") 2>/dev/null; then
			exec 3>&- 3<&- || true
			return 0
		fi
		sleep 0.1
	done
	fail "nothing listening on :${port}"
}

# wait_ready polls the router's own /healthz until it reports all 3
# replicas routable — the router's initial health sweep can race the
# replicas' first listen, so traffic before readiness would measure the
# boot race, not the resilience layer.
wait_ready() {
	local resp
	for _ in $(seq 1 100); do
		resp=$( (exec 3<>"/dev/tcp/127.0.0.1/${RPORT}" &&
			printf 'GET /healthz HTTP/1.0\r\n\r\n' >&3 && cat <&3) 2>/dev/null || true)
		if grep -q '"replicas_routable":3' <<<"$resp"; then
			return 0
		fi
		sleep 0.1
	done
	fail "router never reported 3 routable replicas"
}

# boot_router <port-base> <router flags...> — spawns the router fronting 3
# replica children and waits until every replica is routable.
boot_router() {
	local base="$1"
	shift
	: >"$LOG"
	"$BIN" route -addr "127.0.0.1:${RPORT}" -replicas 3 -port-base "$base" "$@" >>"$LOG" 2>&1 &
	ROUTER_PID=$!
	wait_port "$RPORT"
	wait_ready
}

# SIGTERM the router and require exit 0 (it must also reap its replicas).
stop_router() {
	local rc=0
	kill -TERM "$ROUTER_PID"
	wait "$ROUTER_PID" || rc=$?
	ROUTER_PID=""
	[[ $rc -eq 0 ]] || fail "router exited $rc on SIGTERM"
}

echo "==> chaos: building finserve"
go build -o "$BIN" ./cmd/finserve

echo "==> chaos phase 1: fault-decision digest is a pure function of the spec"
"$BIN" fault -spec "$SPEC" -n 4096 >"$TMP/digest.a" || fail "fault subcommand"
"$BIN" fault -spec "$SPEC" -n 4096 >"$TMP/digest.b" || fail "fault subcommand (rerun)"
diff -u "$TMP/digest.a" "$TMP/digest.b" || fail "same spec produced different decision digests"
grep -q "digest=" "$TMP/digest.a" || fail "fault subcommand printed no digest"
cat "$TMP/digest.a"

echo "==> chaos phase 2: >=99% availability at 10% injected faults, 200s bit-clean"
boot_router "$PBASE" \
	-replica-flags "-fault-spec $SPEC" \
	-health-interval 100ms -max-attempts 4 -hedge-delay 25ms -budget-ratio -1
"$BIN" loadgen -url "$URL" -requests 120 -concurrency 6 \
	-mix "closed-form=6,binomial-tree=2,greeks=2" \
	-options 4 -binomial-steps 128 \
	-verify -assert-availability 99 -assert-max-retries 240 ||
	fail "phase 2 (availability floor / bit-clean under faults)"
stop_router

echo "==> chaos phase 3: replica killed mid-burst; breaker opens, then recovers"
boot_router "$((PBASE + 10))" \
	-restart-delay 700ms -health-interval 300ms -max-attempts 4 \
	-hedge-delay 25ms -budget-ratio -1 \
	-breaker-failures 1 -breaker-open-for 500ms
# The burst must outlast the 150ms sleep before the kill: 1200 requests
# finish in ~110ms on a quiet 2-vCPU host, and a kill after the burst
# opens no breaker.
"$BIN" loadgen -url "$URL" -requests 4000 -concurrency 6 \
	-mix "closed-form=1" -options 4 \
	-verify -assert-availability 99 >"$TMP/burst.out" 2>&1 &
BURST_PID=$!
sleep 0.15
VICTIM=$(grep -m1 "route: replica 0 pid" "$LOG" | awk '{print $5}')
[[ -n "$VICTIM" ]] || fail "could not find replica 0 pid in router log"
kill -KILL "$VICTIM" 2>/dev/null || true
if ! wait "$BURST_PID"; then
	cat "$TMP/burst.out" >&2 || true
	fail "phase 3 burst (availability floor through a replica kill)"
fi
cat "$TMP/burst.out"
# Revival (700ms) + a health sweep (300ms) + the breaker's open window
# (500ms) must all elapse before the recovery probe can happen.
sleep 2
"$BIN" loadgen -url "$URL" -requests 40 -concurrency 4 \
	-mix "closed-form=1" -options 4 \
	-assert-codes 200 -assert-min-breaker-opens 1 -assert-breakers-closed ||
	fail "phase 3 recovery (breaker open -> half-open -> closed)"
stop_router

echo "chaos: all phases passed"
