package cranknicolson

import (
	"context"
	"sync"

	"finbench/internal/layout"
	"finbench/internal/parallel"
	"finbench/internal/perf"
	"finbench/internal/workload"
)

// Batch drivers: the paper parallelizes "across different options using
// OpenMP pragmas" with SIMD inside each option's GSOR solve (Sec. IV-E2),
// which keeps the working set in L2 and scales for small option counts.
// Each driver prices American puts for every option in the AOS batch
// (strike = X, spot = S, maturity = T), writing the put price into the
// Put output slot.

// Level selects the optimization level of a batch solve.
type Level int

const (
	// LevelRef is the scalar reference (Lis. 6/7).
	LevelRef Level = iota
	// LevelIntermediate is the manual wavefront SIMD over flat arrays.
	LevelIntermediate
	// LevelAdvanced adds the even/odd data-structure transformation.
	LevelAdvanced
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelRef:
		return "reference"
	case LevelIntermediate:
		return "wavefront-simd"
	case LevelAdvanced:
		return "wavefront-simd+reorder"
	default:
		return "unknown"
	}
}

// Run prices the batch at the given level. jpoints/nsteps size the lattice
// (Fig. 8 uses 256 and 1000); width is the SIMD width for the vector
// levels. Returns the total GSOR sweep count across options.
func Run(level Level, a layout.AOS, jpoints, nsteps, width int, mkt workload.MarketParams, c *perf.Counts) int {
	n := a.Len()
	var mu sync.Mutex
	totalSweeps := 0
	// The level dispatch is loop-invariant: resolve it to a solve function
	// once, outside the per-option hot loop.
	var solve func(s *Solver, c *perf.Counts) ([]float64, int)
	switch level {
	case LevelRef:
		solve = func(s *Solver, c *perf.Counts) ([]float64, int) { return s.SolveScalar(c) }
	case LevelIntermediate:
		solve = func(s *Solver, c *perf.Counts) ([]float64, int) { return s.SolveWavefront(width, c) }
	case LevelAdvanced:
		solve = func(s *Solver, c *perf.Counts) ([]float64, int) { return s.SolveWavefrontSplit(width, c) }
	default:
		panic("cranknicolson: unknown level")
	}
	run := func(lo, hi int, c *perf.Counts) {
		sweeps := 0
		for i := lo; i < hi; i++ {
			s := NewSolver(a.T(i), jpoints, nsteps, mkt)
			u, sw := solve(s, c)
			sweeps += sw
			a.SetResult(i, 0, s.Price(u, a.S(i), a.X(i)))
		}
		mu.Lock()
		totalSweeps += sweeps
		mu.Unlock()
	}
	_ = parallel.Region(context.Background(), n, 1, c, run)
	if c != nil {
		// Grid state fits in L2 (Sec. IV-E2); DRAM traffic is the option
		// parameters in and one price out.
		c.AddBytes(uint64(24*n), uint64(8*n))
		c.Items += uint64(n)
	}
	return totalSweeps
}
