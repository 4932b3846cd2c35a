// The benchmarks live in an external test package (finbench_test) so
// they can import internal/bench, which since the servepath experiment
// transitively imports the root package through internal/serve; an
// in-package test would make that a cycle.
package finbench_test

// One testing.B benchmark per paper artifact (DESIGN.md experiment index).
// Each benchmark reports host throughput in the figure's natural unit via
// ReportMetric, so `go test -bench=. -benchmem` regenerates the host-side
// ladder of every table and figure. The modelled SNB-EP/KNC comparison is
// produced by `go run ./cmd/finbench run` (or TestModelExperiments below).

import (
	"context"
	"testing"

	"finbench"
	"finbench/internal/bench"
	"finbench/internal/binomial"
	"finbench/internal/blackscholes"
	"finbench/internal/brownian"
	"finbench/internal/cranknicolson"
	"finbench/internal/montecarlo"
	"finbench/internal/rng"
	"finbench/internal/workload"
)

var bmkt = workload.MarketParams{R: 0.05, Sigma: 0.2}

// --- Fig. 4: Black-Scholes ---

func benchBS(b *testing.B, run func(n int)) {
	const n = 200000
	run(n) // warm-up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(n)
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mopts/s")
}

func BenchmarkFig4BlackScholesBasicAOS(b *testing.B) {
	a := workload.DefaultOptionGen.GenerateAOS(200000)
	benchBS(b, func(n int) { blackscholes.Basic(a, bmkt, 8, nil) })
}

func BenchmarkFig4BlackScholesIntermediateSOA(b *testing.B) {
	s := workload.DefaultOptionGen.GenerateSOA(200000)
	benchBS(b, func(n int) { blackscholes.Intermediate(s, bmkt, 8, nil) })
}

func BenchmarkFig4BlackScholesAdvancedVML(b *testing.B) {
	s := workload.DefaultOptionGen.GenerateSOA(200000)
	benchBS(b, func(n int) { blackscholes.Advanced(s, bmkt, 8, nil) })
}

// --- Fig. 5: binomial tree (N = 1024) ---

func benchBinomial(b *testing.B, run func()) {
	const nopt = 64
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(nopt)*float64(b.N)/b.Elapsed().Seconds()/1e3, "Kopts/s")
}

func BenchmarkFig5BinomialBasic(b *testing.B) {
	g := workload.DefaultOptionGen
	g.TMax = 3
	a := g.GenerateAOS(64)
	benchBinomial(b, func() { binomial.Basic(a, 1024, bmkt, 8, nil) })
}

func BenchmarkFig5BinomialIntermediate(b *testing.B) {
	g := workload.DefaultOptionGen
	g.TMax = 3
	a := g.GenerateAOS(64)
	benchBinomial(b, func() { binomial.Intermediate(a, 1024, bmkt, 8, nil) })
}

func BenchmarkFig5BinomialAdvancedTiled(b *testing.B) {
	g := workload.DefaultOptionGen
	g.TMax = 3
	a := g.GenerateAOS(64)
	benchBinomial(b, func() { binomial.Advanced(a, 1024, bmkt, 8, 16, false, nil) })
}

func BenchmarkFig5BinomialAdvancedUnrolled(b *testing.B) {
	g := workload.DefaultOptionGen
	g.TMax = 3
	a := g.GenerateAOS(64)
	benchBinomial(b, func() { binomial.Advanced(a, 1024, bmkt, 8, 16, true, nil) })
}

// --- Fig. 6: Brownian bridge (64 steps) ---

func benchBridge(b *testing.B, sims int, run func()) {
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(sims)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpaths/s")
}

func BenchmarkFig6BridgeBasicStreamed(b *testing.B) {
	br := brownian.New(5, 1)
	const sims = 32768
	z := brownian.RandomsScalar(rng.NewStream(0, 1), sims, br.Steps)
	out := make([]float64, sims*br.PathLen())
	benchBridge(b, sims, func() { br.RefScalar(z, out, sims, nil) })
}

func BenchmarkFig6BridgeIntermediateSIMD(b *testing.B) {
	br := brownian.New(5, 1)
	const sims = 32768
	z := brownian.RandomsBlocked(rng.NewStream(0, 1), sims, br.Steps, 8)
	out := make([]float64, sims*br.PathLen())
	benchBridge(b, sims, func() { br.Intermediate(z, out, sims, 8, nil) })
}

func BenchmarkFig6BridgeAdvancedInterleaved(b *testing.B) {
	br := brownian.New(5, 1)
	const sims = 32768
	out := make([]float64, sims*br.PathLen())
	benchBridge(b, sims, func() { br.AdvancedInterleaved(1, out, sims, 8, nil) })
}

func BenchmarkFig6BridgeAdvancedC2C(b *testing.B) {
	br := brownian.New(5, 1)
	const sims = 32768
	benchBridge(b, sims, func() { br.AdvancedC2C(1, sims, 8, nil, nil) })
}

// --- Table II: Monte Carlo pricing and RNG rates ---

func BenchmarkTab2MCStreamRNG(b *testing.B) {
	g := workload.DefaultOptionGen
	g.TMax = 3
	batch := g.NewMCBatch(4)
	z := make([]float64, 1<<18)
	rng.NewStream(0, 1).NormalICDF(z)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		montecarlo.Vectorized(batch, z, bmkt, 8, 4, nil)
	}
	b.ReportMetric(4*float64(b.N)/b.Elapsed().Seconds(), "opts/s")
}

func BenchmarkTab2MCComputeRNG(b *testing.B) {
	g := workload.DefaultOptionGen
	g.TMax = 3
	batch := g.NewMCBatch(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		montecarlo.VectorizedComputeRNG(batch, 1<<18, 1, bmkt, 8, 2, nil)
	}
	b.ReportMetric(4*float64(b.N)/b.Elapsed().Seconds(), "opts/s")
}

func BenchmarkTab2NormalRNG(b *testing.B) {
	s := rng.NewStream(0, 1)
	buf := make([]float64, 1<<16)
	b.SetBytes(1 << 19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.NormalICDF(buf)
	}
	b.ReportMetric(float64(len(buf))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mnum/s")
}

func BenchmarkTab2UniformRNG(b *testing.B) {
	s := rng.NewStream(0, 1)
	buf := make([]float64, 1<<16)
	b.SetBytes(1 << 19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Uniform(buf)
	}
	b.ReportMetric(float64(len(buf))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mnum/s")
}

// --- Fig. 8: Crank-Nicolson American puts (256 x 1000 lattice) ---

func benchCN(b *testing.B, level cranknicolson.Level) {
	gen := workload.OptionGen{SMin: 80, SMax: 120, XMin: 90, XMax: 110, TMin: 0.8, TMax: 1.2, Seed: 5}
	a := gen.GenerateAOS(4)
	cranknicolson.Run(level, a, 256, 1000, 8, bmkt, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cranknicolson.Run(level, a, 256, 1000, 8, bmkt, nil)
	}
	b.ReportMetric(4*float64(b.N)/b.Elapsed().Seconds(), "opts/s")
}

func BenchmarkFig8CrankNicolsonBasic(b *testing.B)     { benchCN(b, cranknicolson.LevelRef) }
func BenchmarkFig8CrankNicolsonSIMD(b *testing.B)      { benchCN(b, cranknicolson.LevelIntermediate) }
func BenchmarkFig8CrankNicolsonSIMDSplit(b *testing.B) { benchCN(b, cranknicolson.LevelAdvanced) }

// --- Public batch API (the ninjagap example's ladder) ---

func BenchmarkBatchAPILevels(b *testing.B) {
	for _, level := range []finbench.OptLevel{finbench.LevelBasic, finbench.LevelIntermediate, finbench.LevelAdvanced} {
		b.Run(level.String(), func(b *testing.B) {
			const n = 100000
			batch := finbench.NewBatch(n)
			for i := 0; i < n; i++ {
				batch.Spots[i] = 50 + float64(i%150)
				batch.Strikes[i] = 50 + float64((i*7)%150)
				batch.Expiries[i] = 0.1 + float64(i%40)/8
			}
			mkt := finbench.Market{Rate: 0.02, Volatility: 0.3}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := finbench.PriceBatch(batch, mkt, level); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mopts/s")
		})
	}
}

// --- The served heavy kernels (what serve.priceHeavy runs per request) ---

// BenchmarkPriceHeavy times finbench.PriceRequestCtx at default sizes on
// the request shapes heavy_mix sends: one American put per lattice method
// and four heavy_mix-shaped ones per lattice (the x4 rows), four American
// puts through Crank-Nicolson (one request; the mix-x4 row prices the
// heavy_mix-shaped four), and Monte Carlo
// requests of one and of four European calls (ns/op is per request). The
// Monte Carlo x1 and x4 rows repeat one seed, as heavy_mix does, so all
// but their first request read the normals from the store; the x4-cold
// row draws a seed no earlier request used, so every request generates
// its normals (once for its four options) and stores them.
func BenchmarkPriceHeavy(b *testing.B) {
	mkt := finbench.Market{Rate: 0.02, Volatility: 0.3}
	put := finbench.Option{Type: finbench.Put, Style: finbench.American, Spot: 100, Strike: 110, Expiry: 1.5}
	puts := []finbench.Option{
		put,
		{Type: finbench.Put, Style: finbench.American, Spot: 90, Strike: 100, Expiry: 0.5},
		{Type: finbench.Put, Style: finbench.American, Spot: 110, Strike: 100, Expiry: 2},
		{Type: finbench.Put, Style: finbench.American, Spot: 100, Strike: 120, Expiry: 1},
	}
	// Four contracts from heavy_mix's ranges (S, K in [50, 150], T in
	// [0.1, 3.1]): deep in the money, deep out of it, near the money, and
	// out of it at a long expiry, so the rows weigh the lattices' live
	// windows as the mix does.
	mixPuts := []finbench.Option{
		{Type: finbench.Put, Style: finbench.American, Spot: 62, Strike: 138, Expiry: 2.4},
		{Type: finbench.Put, Style: finbench.American, Spot: 141, Strike: 57, Expiry: 0.7},
		{Type: finbench.Put, Style: finbench.American, Spot: 95, Strike: 104, Expiry: 1.2},
		{Type: finbench.Put, Style: finbench.American, Spot: 118, Strike: 92, Expiry: 2.9},
	}
	calls := []finbench.Option{
		{Spot: 100, Strike: 100, Expiry: 1}, {Spot: 90, Strike: 100, Expiry: 0.5},
		{Spot: 110, Strike: 100, Expiry: 2}, {Spot: 100, Strike: 120, Expiry: 1.5},
	}
	for _, bc := range []struct {
		name   string
		method finbench.Method
		opts   []finbench.Option
	}{
		{"binomial-amer-put", finbench.BinomialTree, []finbench.Option{put}},
		{"binomial-amer-put-x4", finbench.BinomialTree, mixPuts},
		{"trinomial-amer-put", finbench.TrinomialTree, []finbench.Option{put}},
		{"trinomial-amer-put-x4", finbench.TrinomialTree, mixPuts},
		{"crank-nicolson", finbench.FiniteDifference, []finbench.Option{put}},
		{"crank-nicolson-x4", finbench.FiniteDifference, puts},
		{"crank-nicolson-mix-x4", finbench.FiniteDifference, mixPuts},
		{"monte-carlo-x1", finbench.MonteCarlo, calls[:1]},
		{"monte-carlo-x4", finbench.MonteCarlo, calls},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := finbench.PriceRequestCtx(context.Background(), bc.opts, mkt, bc.method, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	seed := uint64(1 << 40) // above every seed another row or test uses
	b.Run("monte-carlo-x4-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seed++
			if _, err := finbench.PriceRequestCtx(context.Background(), calls, mkt, finbench.MonteCarlo, &finbench.Config{Seed: seed}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestModelExperiments regenerates every modelled table/figure at reduced
// scale — the full-scale run is `go run ./cmd/finbench run -experiment all`.
func TestModelExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("model runs in -short mode")
	}
	for _, e := range bench.Experiments() {
		if e.Model == nil {
			continue // host-only experiments (servepath) have no model
		}
		res, err := e.Model(0.05)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		t.Logf("\n%s", res.Table())
	}
}
