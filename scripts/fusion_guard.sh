#!/usr/bin/env bash
# scripts/fusion_guard.sh — the arm64 fused multiply-add guard.
#
# The Go spec lets a compiler fuse x*y + z into one instruction, which
# rounds once instead of twice and so moves bits; an explicit float64(x*y)
# conversion forbids it. amd64 (GOAMD64=v1) never fuses; arm64 does. This
# script cross-compiles cmd/finserve for arm64 (no emulator needed), runs
# go tool objdump on each guarded function, and fails if it finds a fused
# multiply-add (FMADD, FMSUB, FNMADD, FNMSUB) in one.
#
# Guarded: the served Monte Carlo path's inverse normal and path loop,
# both written with explicit roundings. Not yet guarded: mathx.Exp (15
# fused instructions on arm64) and mathx.Log (8), which they call; making
# every rounding explicit in the hot packages is ROADMAP item 15(b), and
# the guard grows to cover them there.
#
# Usage: ./scripts/fusion_guard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

GUARDED=('mathx.InvCND$' 'montecarlo.pathSums$')

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
GOOS=linux GOARCH=arm64 CGO_ENABLED=0 go build -o "$TMP/finserve" ./cmd/finserve

fail=0
for sym in "${GUARDED[@]}"; do
	go tool objdump -s "$sym" "$TMP/finserve" >"$TMP/dis"
	if [[ ! -s "$TMP/dis" ]]; then
		echo "error: no arm64 code for $sym (renamed, or inlined everywhere?)" >&2
		fail=1
		continue
	fi
	n="$(grep -cE 'FMADD|FMSUB|FNMADD|FNMSUB' "$TMP/dis" || true)"
	echo "$sym: $n fused multiply-adds on arm64"
	if [[ "$n" != 0 ]]; then
		grep -E 'FMADD|FMSUB|FNMADD|FNMSUB' "$TMP/dis" >&2
		fail=1
	fi
done
exit "$fail"
