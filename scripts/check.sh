#!/usr/bin/env bash
# scripts/check.sh — the repo's full verification gate.
#
# Runs, in order: go vet, a gofmt -l gate (fails on any file it
# prints), go build, the arm64 fused multiply-add guard
# (scripts/fusion_guard.sh), the benchreg performance gate (a fresh short-mode
# snapshot checked against the committed baseline BENCH_6.json; see
# README "Continuous benchmarking"), the tier-1 test suite (which
# includes the in-process topology tests of internal/serve/shard: every
# end-to-end and chaos assertion, over 1-3 replicas and three fault
# seeds), tier-1 again under GODEBUG=cpu.fma=off, the race detector
# over the concurrency-heavy packages and the
# root package's grid tests, the
# fuzz seed corpora, the process-level smoke (scripts/smoke.sh:
# fault-digest determinism, SIGTERM drain, route supervisor revival;
# see README "Serving"), and finlint (the custom static-analysis suite
# enforcing the kernel-safety and serving-tier invariants — the
# intra-procedural passes plus the call-graph dataflow passes ctxprop,
# detmap, leakcheck and interprocedural hotalloc; see README "Static
# analysis & CI gate") with its self-test. The benchreg gate also
# enforces the allocs/op budget on serve-path and heavy rows
# (gate_allocs records in BENCH_6.json): a new per-request allocation
# fails the check even when its wall-clock cost hides inside timing
# noise, and a baseline row missing from the fresh snapshot fails it too.
# After the gate, go test -bench runs every experiment row once
# (BenchmarkExperiments in internal/bench).
#
# Usage: ./scripts/check.sh
#
#   CHECK_QUICK=1 ./scripts/check.sh   # local iteration: skips the race
#                                      # and fuzz stages (the slow ones)
set -euo pipefail
cd "$(dirname "$0")/.."

# Tool binaries (benchreg, finlint) are built once into a scratch dir and
# reused — the benchreg retry path used to recompile via `go run`, which
# both wasted time and added compile jitter to a timing-sensitive stage.
TOOL_DIR="$(mktemp -d)"
trap 'rm -rf "$TOOL_DIR"' EXIT

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l ."
unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
	echo "error: gofmt -l lists files that are not gofmt-clean:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go build ./..."
go build ./...

# No fused multiply-add on arm64 in the 24 functions written with
# explicit roundings (the served Monte Carlo path, mathx.Exp/Log/Erf/Erfc
# and the Black-Scholes Advanced tail, the American-put lattice walks and
# the served Crank-Nicolson solve in cmd/finserve; the Fig. 8 PSOR rungs
# in cmd/finbench; the list is GUARDED in scripts/fusion_guard.sh): cross-compiled, counted in go tool
# objdump, no emulator needed.
echo "==> arm64 fusion guard"
./scripts/fusion_guard.sh

# Noise-aware perf gate: snapshot the kernels in short mode and compare
# against the committed baseline. This runs BEFORE the heavy test stages
# so the measurement happens on a cool machine — minutes of race/fuzz
# saturation right before timing skews every kernel at once. Calibration
# normalization (see internal/benchreg) rescales by a register-only ALU
# kernel, so it cancels drift in compute-bound rows but not in
# bandwidth-bound ones: on the 2-vCPU Xeon host whole captures ran fig4's
# full-batch rows, fig5 basic and fig6 streamed at ~0.5x while the
# calibration moved < 10%. The threshold is looser than the tool's 10% default because a single
# short-mode run on a shared/loaded machine can legitimately drift ~15%;
# a real regression (a kernel losing its vectorization or layout
# optimization) is far larger. One retry absorbs transient load spikes.
# The allocs/op rule needs no such slack: allocation counts are
# deterministic per binary, so the tool's default (+10% and half an
# allocation on gated rows) applies as-is.
# Add the next snapshot with:  go run ./cmd/benchreg run -short -o BENCH_<n+1>.json
# and repoint this gate and the two workflows at it (earlier files stay in history).
echo "==> benchreg gate: short snapshot vs committed baseline"
go build -o "$TOOL_DIR/benchreg" ./cmd/benchreg
bench_gate() {
	"$TOOL_DIR/benchreg" check -baseline BENCH_6.json -short \
		-max-slowdown 0.35 -mad-factor 4
}
if ! bench_gate; then
	echo "==> benchreg gate failed; retrying once after a cooldown"
	sleep 10
	bench_gate
fi

# The rows the gate timed, once more through testing.B: one iteration
# of every row of every experiment (heavy included), so a row that
# panics or cannot build fails here with its name.
echo "==> go test -bench: every experiment row once"
go test -run '^$' -bench . -benchtime 1x ./internal/bench

echo "==> tier-1: go test ./..."
go test -timeout 10m ./...

if [[ "${CHECK_QUICK:-0}" == "1" ]]; then
	echo "==> CHECK_QUICK=1: skipping the cpu.fma=off tier-1, race detector, fuzz seed and smoke stages"
else
	# Stdlib math.Exp switches to fused multiply-adds on FMA CPUs; no
	# test may pin bits that only such a CPU produces (ROADMAP item 15).
	echo "==> tier-1 without FMA: GODEBUG=cpu.fma=off go test ./..."
	GODEBUG=cpu.fma=off go test -count=1 -timeout 10m ./...

	echo "==> race detector on concurrency-heavy packages"
	go test -race -count=1 -timeout 15m \
		./internal/parallel \
		./internal/binomial \
		./internal/blackscholes \
		./internal/cranknicolson \
		./internal/montecarlo \
		./internal/brownian \
		./internal/rng \
		./internal/bench \
		./internal/resilience \
		./internal/fault \
		./internal/scenario \
		./internal/serve \
		./internal/serve/pricecache \
		./internal/serve/wire \
		./internal/serve/shard \
		./internal/serve/stream \
		./internal/serve/stream/ticker \
		./internal/serve/deadline
	# The root package's grid kernel shares its column cache across the
	# forked Black-Scholes workers.
	go test -race -count=1 -run 'Grid' .
	# The server no longer coalesces, but benchmark/ still drives the
	# coalescer, whose flusher-role hand-off runs on the submitting
	# goroutines: worker count stays a test dimension while the package
	# does (ROADMAP 27(d)).
	go test -race -count=1 -cpu 1,2,4,8 ./internal/serve/coalesce

	# Seed corpora of every Fuzz target in these packages, including
	# mathx's FuzzExpOracle (Exp against its math/big bound),
	# FuzzErfOracle (Erf and Erfc against a math/big normal CDF) and
	# FuzzInvCNDOracle (InvCND against a math/big quantile), montecarlo's FuzzPathSumsOracle (pathSums against its
	# listing), binomial's FuzzAmericanPutOracle (the lattice walks'
	# live window against the per-node listings) and cranknicolson's
	# FuzzPricePutsOracle (the direct Crank-Nicolson solve against PSOR at
	# a tight threshold, each put of a call against its lone call).
	echo "==> fuzz seed corpora"
	go test -run='^Fuzz' -count=1 -timeout 10m \
		./internal/mathx ./internal/montecarlo ./internal/binomial ./internal/cranknicolson \
		./internal/rng ./internal/blackscholes \
		./internal/serve ./internal/serve/wire \
		./internal/serve/pricecache ./internal/serve/shard

	echo "==> smoke: finserve process-level checks"
	./scripts/smoke.sh
fi

# finlint is also built once and reused for both the main run and the
# self-test (previously two separate `go run` compiles).
echo "==> finlint ./..."
go build -o "$TOOL_DIR/finlint" ./cmd/finlint
"$TOOL_DIR/finlint" ./...

echo "==> finlint self-test: seeded violations must be rejected"
if "$TOOL_DIR/finlint" ./internal/lint/testdata/... >/dev/null 2>&1; then
	echo "error: finlint exited 0 on internal/lint/testdata/ seeded violations" >&2
	exit 1
fi

echo "check.sh: all gates passed"
