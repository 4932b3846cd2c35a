// Package workload generates the reproducible synthetic inputs the
// benchmark harness prices: option portfolios with parameter ranges typical
// of equity-derivative books, plus the path/step configurations of the
// Monte Carlo, Brownian-bridge and Crank-Nicolson experiments.
//
// The paper does not publish its input distributions (only sizes: "nopt
// options", "path length 256k", "256 underlying prices and 1000 time
// steps"), so ranges here follow the conventions of the public
// Black-Scholes benchmark the reference code matches (spot and strike in
// [10,200), expiry in [0.25,10) years) — the kernels are insensitive to the
// exact distribution, and every generator is seeded for reproducibility.
package workload

import (
	"finbench/internal/layout"
	"finbench/internal/rng"
)

// MarketParams are the rates the paper holds constant across a batch
// ("we assume that r and sig are the same for all options", Sec. IV-A1).
type MarketParams struct {
	// R is the risk-free interest rate.
	R float64
	// Sigma is the implied volatility.
	Sigma float64
}

// DefaultMarket matches the constants commonly used with this benchmark
// family (2% rate, 30% volatility).
var DefaultMarket = MarketParams{R: 0.02, Sigma: 0.30}

// OptionGen generates option batches with uniform parameters in the
// configured ranges.
type OptionGen struct {
	// SMin, SMax bound the spot price.
	SMin, SMax float64
	// XMin, XMax bound the strike price.
	XMin, XMax float64
	// TMin, TMax bound the expiry in years.
	TMin, TMax float64
	// Seed makes generation reproducible.
	Seed uint64
}

// DefaultOptionGen is the generator used by all experiments unless a
// kernel needs something narrower.
var DefaultOptionGen = OptionGen{
	SMin: 10, SMax: 200,
	XMin: 10, XMax: 200,
	TMin: 0.25, TMax: 10,
	Seed: 20120612, // paper submission era, fixed for reproducibility
}

// GenerateAOS produces n options in packed AOS form.
func (g OptionGen) GenerateAOS(n int) layout.AOS {
	s := rng.NewStream(0, g.Seed)
	buf := make([]float64, 3)
	a := layout.NewAOS(n)
	for i := 0; i < n; i++ {
		s.Uniform(buf)
		a.Set(i,
			g.SMin+buf[0]*(g.SMax-g.SMin),
			g.XMin+buf[1]*(g.XMax-g.XMin),
			g.TMin+buf[2]*(g.TMax-g.TMin))
	}
	return a
}

// GenerateSOA produces n options in SOA form (same values as GenerateAOS
// for the same seed).
func (g OptionGen) GenerateSOA(n int) *layout.SOA {
	return g.GenerateAOS(n).ToSOA()
}

// MCBatch is the SOA input/output of the Monte Carlo kernel: option
// parameters in, price and standard error out.
type MCBatch struct {
	S, X, T       []float64
	Price, StdErr []float64
}

// NewMCBatch generates n options for Monte Carlo pricing.
func (g OptionGen) NewMCBatch(n int) *MCBatch {
	soa := g.GenerateSOA(n)
	return &MCBatch{
		S: soa.S, X: soa.X, T: soa.T,
		Price:  make([]float64, n),
		StdErr: make([]float64, n),
	}
}
