package finbench

import (
	"fmt"

	"finbench/internal/brownian"
	"finbench/internal/mathx"
	"finbench/internal/parallel"
	"finbench/internal/rng"
	"finbench/internal/vec"
)

// PathSimulator generates geometric-Brownian-motion price paths using the
// Brownian-bridge construction (Sec. II-E / IV-C): the driving Wiener path
// is built depth-first with interleaved random-number generation, then
// mapped through S(t) = S0 exp((r - sigma^2/2) t + sigma W(t)).
//
// Successive calls to Simulate draw fresh randomness: each call folds a
// call counter into the seed, so calling Simulate twice yields two
// independent sets of paths. The sequence is still fully reproducible —
// two simulators built with the same seed produce identical output
// call-for-call (first Simulate matches first Simulate, second matches
// second). The call counter makes a PathSimulator stateful; a single
// simulator must not be used from multiple goroutines concurrently.
type PathSimulator struct {
	// Steps per path; must be a power of two >= 2.
	Steps int
	// Horizon in years.
	Horizon float64
	// Seed makes simulation reproducible.
	Seed uint64

	bridge *brownian.Bridge

	// Call counter, folded into the stream seed so repeated calls do not
	// replay the same randomness.
	simCalls uint64
}

// seedTagSimulate tags Simulate's stream family (an arbitrary constant).
const seedTagSimulate uint64 = 0x51AD_E01F_0000_0001

// NewPathSimulator builds a simulator for power-of-two steps (the bridge
// doubles per level).
func NewPathSimulator(steps int, horizon float64, seed uint64) (*PathSimulator, error) {
	if steps < 2 || steps&(steps-1) != 0 {
		return nil, fmt.Errorf("finbench: steps must be a power of two >= 2, got %d", steps)
	}
	depth := -1
	for s := steps; s > 1; s >>= 1 {
		depth++
	}
	return &PathSimulator{
		Steps:   steps,
		Horizon: horizon,
		Seed:    seed,
		bridge:  brownian.New(depth, horizon),
	}, nil
}

// Simulate generates n price paths for the given spot under the market's
// risk-neutral dynamics. The result has n rows of Steps+1 prices, starting
// at spot.
func (ps *PathSimulator) Simulate(n int, spot float64, m Market) [][]float64 {
	plen := ps.bridge.PathLen()
	flat := make([]float64, n*plen)
	seed := rng.DeriveSeed(ps.Seed, seedTagSimulate, ps.simCalls)
	ps.simCalls++
	ps.bridge.AdvancedInterleaved(seed, flat, n, interleaveWidth(n), nil)
	mu := m.Rate - m.Volatility*m.Volatility/2
	dt := ps.Horizon / float64(ps.Steps)
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		w := flat[i*plen : (i+1)*plen]
		row := make([]float64, plen)
		for p := 0; p < plen; p++ {
			t := float64(p) * dt
			row[p] = spot * mathx.Exp(mu*t+m.Volatility*w[p])
		}
		out[i] = row
	}
	return out
}

// interleaveWidth picks the SIMD lane width for the interleaved bridge:
// the pool's worker count clamped to the path count (no point in lanes
// without paths), capped at the vector ISA's maximum and rounded down to
// a power of two, which vec.New requires.
func interleaveWidth(n int) int {
	w := parallel.Workers()
	if w > n {
		w = n
	}
	if w > vec.MaxWidth {
		w = vec.MaxWidth
	}
	if w < 1 {
		w = 1
	}
	// Round down to a power of two.
	for w&(w-1) != 0 {
		w &= w - 1
	}
	return w
}
