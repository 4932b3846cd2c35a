#!/usr/bin/env bash
# scripts/fusion_guard.sh — the arm64 fused multiply-add guard.
#
# The Go spec lets a compiler fuse x*y + z into one instruction, which
# rounds once instead of twice and so moves bits; an explicit float64(x*y)
# conversion forbids it. amd64 (GOAMD64=v1) never fuses; arm64 does. This
# script cross-compiles cmd/finserve and cmd/finbench for arm64 (no
# emulator needed), runs go tool objdump on each guarded function, and
# fails if it finds a fused multiply-add (FMADD, FMSUB, FNMADD, FNMSUB) in
# one.
#
# Guarded, each with every product that feeds an add written
# float64(a*b) + c: the served Monte Carlo path's inverse normal, path
# loop, request loop, estimate and put parity; mathx.Exp and mathx.Log,
# which every kernel calls; and the American-put lattice walks (the
# binomial ladder, tiled two-level kernel and walk, into which the
# single-level kernel inlines; the trinomial put, ladder and level loop
# in one function); and the served Crank-Nicolson
# solve (the Brennan-Schwartz time step, its elimination coefficients,
# the time-loop driver and the price recovery, into which the grid
# coordinate and the initial grid inline). From cmd/finbench, which alone
# links them, the PSOR rungs of the Fig. 8 model rows are guarded too:
# the scalar sweeps, the explicit half-step and their driver, into which
# relax and the PSOR coefficients inline, and the wavefront PSOR, whose
# scalar triangles must round as the reference sweeps do. Before their
# roundings were made explicit, arm64 fused 15 multiply-adds in
# mathx.Exp, 8 in mathx.Log, 3 in reduceTwoLevels, 1 in the binomial
# walk, 1 in its ladder, 1 in the Monte Carlo estimate's variance, 1 in
# its put parity, 3 in the trinomial put, 21 in the then-served
# PSOR Crank-Nicolson solve (10 of them in a paired sweep since deleted)
# and 1 in the wavefront PSOR's triangle error sum. Go
# rewrites x*2 as x+x, so a doubled product fuses too
# unless the product is rounded first. On amd64 the explicit roundings
# change no instruction. The rest of the hot packages (blackscholes, the
# European lattice walks) is ROADMAP item 15(b).
#
# Usage: ./scripts/fusion_guard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Each entry is binary:symbol.
GUARDED=(
	'finserve:mathx.InvCND$' 'finserve:montecarlo.pathSums$'
	'finserve:montecarlo.SharedStreamCtx$' 'finserve:montecarlo.estimate$'
	'finserve:finbench.priceMonteCarlo$'
	'finserve:mathx.Exp$' 'finserve:mathx.Log$'
	'finserve:binomial.exerciseLadder$' 'finserve:binomial.americanPut$'
	'finserve:binomial.walkAmericanPut$' 'finserve:binomial.reduceTwoLevels$'
	'finserve:binomial.PriceAmericanPutTrinomialCtx$'
	'finserve:cranknicolson.\(\*Solver\).directStep$' 'finserve:cranknicolson.eliminate$'
	'finserve:cranknicolson.PricePutsCtx$' 'finserve:cranknicolson.\(\*Solver\).Price$'
	'finbench:cranknicolson.\(\*Solver\).gsorScalar$' 'finbench:cranknicolson.\(\*Solver\).explicitStep$'
	'finbench:cranknicolson.\(\*Solver\).solveOne$' 'finbench:cranknicolson.\(\*Solver\).gsorWavefront$'
)

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
for bin in finserve finbench; do
	GOOS=linux GOARCH=arm64 CGO_ENABLED=0 go build -o "$TMP/$bin" "./cmd/$bin"
done

fail=0
for entry in "${GUARDED[@]}"; do
	bin="${entry%%:*}" sym="${entry#*:}"
	go tool objdump -s "$sym" "$TMP/$bin" >"$TMP/dis"
	if [[ ! -s "$TMP/dis" ]]; then
		echo "error: no arm64 code for $sym in $bin (renamed, or inlined everywhere?)" >&2
		fail=1
		continue
	fi
	n="$(grep -cE 'FMADD|FMSUB|FNMADD|FNMSUB' "$TMP/dis" || true)"
	echo "$bin $sym: $n fused multiply-adds on arm64"
	if [[ "$n" != 0 ]]; then
		grep -E 'FMADD|FMSUB|FNMADD|FNMSUB' "$TMP/dis" >&2
		fail=1
	fi
done
exit "$fail"
