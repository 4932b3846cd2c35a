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
# Guarded, each with every product that feeds an add written
# float64(a*b) + c: the served Monte Carlo path's inverse normal and path
# loop; mathx.Exp and mathx.Log, which every kernel calls; and the
# American-put lattice walks (the binomial ladder, tiled two-level kernel
# and walk, into which the single-level kernel inlines; the trinomial put,
# ladder and level loop in one function); and the served Crank-Nicolson
# solve (the pipelined PSOR body of a pair with its prologue and
# epilogue, the scalar sweeps that finish a lone lane, the explicit
# half-step, the time-loop driver and the price recovery, into which
# relax, the theta-scheme coefficients and the grid coordinate inline). Before their roundings were made explicit,
# arm64 fused 15 multiply-adds in mathx.Exp, 8 in mathx.Log, 3 in
# reduceTwoLevels, 1 in the binomial walk, 1 in its ladder, 3 in the
# trinomial put and 21 in the Crank-Nicolson package (10 of them in the
# paired sweep). Go rewrites x*2 as x+x, so a doubled product fuses too
# unless the product is rounded first. On amd64 the explicit roundings
# change no instruction. The rest of the hot packages (blackscholes, the
# European lattice walks) is ROADMAP item 15(b).
#
# Usage: ./scripts/fusion_guard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

GUARDED=(
	'mathx.InvCND$' 'montecarlo.pathSums$'
	'mathx.Exp$' 'mathx.Log$'
	'binomial.exerciseLadder$' 'binomial.americanPut$'
	'binomial.walkAmericanPut$' 'binomial.reduceTwoLevels$'
	'binomial.PriceAmericanPutTrinomialCtx$'
	'cranknicolson.gsorPair$' 'cranknicolson.\(\*Solver\).gsorScalar$'
	'cranknicolson.psorHead$' 'cranknicolson.psorTail$'
	'cranknicolson.\(\*Solver\).explicitStep$' 'cranknicolson.solveDone$'
	'cranknicolson.\(\*Solver\).Price$'
)

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
