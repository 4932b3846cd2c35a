// Package finbench is a financial-analytics benchmark and derivative
// pricing library: a from-scratch Go reproduction of the SC'12 paper
// "Analysis and Optimization of Financial Analytics Benchmark on Modern
// Multi- and Many-core IA-Based Architectures" (Smelyanskiy et al.).
//
// It provides:
//
//   - Option pricing by every method the paper benchmarks: Black-Scholes
//     closed form, binomial tree, Crank-Nicolson finite differences with
//     Projected SOR, and Monte Carlo integration, plus closed-form greeks.
//   - Batch pricing engines at the paper's three optimization levels
//     (reference, SIMD-across-work-items, algorithmically restructured),
//     built on a software vector ISA so every vectorization decision in
//     the paper exists as inspectable Go code.
//   - A Brownian-bridge path simulator and a Mersenne-Twister RNG
//     substrate with multiple normal transforms.
//   - A performance-model harness (cmd/finbench) that regenerates every
//     table and figure of the paper's evaluation for the two modelled
//     architectures (Xeon E5-2680 "SNB-EP" and Xeon Phi "KNC").
//
// Quick start:
//
//	opt := finbench.Option{Type: finbench.Call, Style: finbench.European,
//	    Spot: 100, Strike: 105, Expiry: 0.5}
//	mkt := finbench.Market{Rate: 0.02, Volatility: 0.3}
//	res, err := finbench.PriceCtx(context.Background(), opt, mkt, finbench.ClosedForm, nil)
package finbench

import (
	"errors"
	"fmt"
	"math"

	"finbench/internal/blackscholes"
	"finbench/internal/mathx"
	"finbench/internal/workload"
)

// OptionType distinguishes calls from puts.
type OptionType int

const (
	// Call is the right to buy at the strike.
	Call OptionType = iota
	// Put is the right to sell at the strike.
	Put
)

// String names the option type.
func (t OptionType) String() string {
	if t == Put {
		return "put"
	}
	return "call"
}

// ExerciseStyle distinguishes European from American exercise.
type ExerciseStyle int

const (
	// European options exercise only at expiry.
	European ExerciseStyle = iota
	// American options exercise at any time up to expiry.
	American
)

// String names the exercise style.
func (s ExerciseStyle) String() string {
	if s == American {
		return "american"
	}
	return "european"
}

// Option is one vanilla equity option contract.
type Option struct {
	Type   OptionType
	Style  ExerciseStyle
	Spot   float64 // current underlying price S
	Strike float64 // strike price K
	Expiry float64 // time to expiry in years T
}

// Market holds the flat market parameters the paper's kernels assume
// ("we assume that r and sig are the same for all options").
type Market struct {
	// Rate is the continuously-compounded risk-free rate.
	Rate float64
	// Volatility is the implied volatility of the underlying.
	Volatility float64
}

func (m Market) internal() workload.MarketParams {
	return workload.MarketParams{R: m.Rate, Sigma: m.Volatility}
}

// Method selects a pricing algorithm.
type Method int

const (
	// ClosedForm is the Black-Scholes analytic solution (European only).
	ClosedForm Method = iota
	// BinomialTree is CRR backward induction.
	BinomialTree
	// FiniteDifference is Crank-Nicolson, each time step's early-exercise
	// problem solved exactly by Brennan–Schwartz elimination.
	FiniteDifference
	// MonteCarlo is terminal-density path integration (European only).
	MonteCarlo
	// TrinomialTree is Boyle trinomial backward induction.
	TrinomialTree
)

// String names the method.
func (m Method) String() string {
	switch m {
	case ClosedForm:
		return "closed-form"
	case BinomialTree:
		return "binomial-tree"
	case FiniteDifference:
		return "crank-nicolson"
	case MonteCarlo:
		return "monte-carlo"
	case TrinomialTree:
		return "trinomial-tree"
	default:
		return fmt.Sprintf("finbench.Method(%d)", int(m))
	}
}

// Config tunes the numerical methods; zero values select the defaults the
// paper's experiments use.
type Config struct {
	// BinomialSteps is the tree depth (default 1024, as in Fig. 5).
	BinomialSteps int
	// GridPoints and TimeSteps size the Crank-Nicolson lattice (default
	// 256 x 1000, as in Fig. 8).
	GridPoints, TimeSteps int
	// MCPaths is the Monte Carlo path count (default 262144, as in
	// Table II).
	MCPaths int
	// Seed makes Monte Carlo runs reproducible (default 1).
	Seed uint64
}

// Resolved returns the configuration with every zero field replaced by
// its default, i.e. the parameters a PriceCtx call with this config actually
// uses. Servers report it so clients can reproduce results exactly.
func (c *Config) Resolved() Config { return c.withDefaults() }

func (c *Config) withDefaults() Config {
	out := Config{BinomialSteps: 1024, GridPoints: 256, TimeSteps: 1000, MCPaths: 262144, Seed: 1}
	if c == nil {
		return out
	}
	if c.BinomialSteps > 0 {
		out.BinomialSteps = c.BinomialSteps
	}
	if c.GridPoints > 0 {
		out.GridPoints = c.GridPoints
	}
	if c.TimeSteps > 0 {
		out.TimeSteps = c.TimeSteps
	}
	if c.MCPaths > 0 {
		out.MCPaths = c.MCPaths
	}
	if c.Seed != 0 {
		out.Seed = c.Seed
	}
	return out
}

// Result is a pricing outcome.
type Result struct {
	// Price is the option value.
	Price float64
	// StdErr is the Monte Carlo standard error (zero for deterministic
	// methods).
	StdErr float64
	// Method records the algorithm that produced the price.
	Method Method
}

// Errors returned by PriceCtx.
var (
	// ErrInvalidOption indicates a spot, strike, expiry or volatility that
	// is not finite and positive, or a rate that is not finite.
	ErrInvalidOption = errors.New("finbench: option parameters must be finite and positive")
	// ErrMethodStyle indicates a method that cannot price the requested
	// exercise style (e.g. closed form for American options).
	ErrMethodStyle = errors.New("finbench: method cannot price this exercise style")
)

// validate answers ErrInvalidOption unless spot, strike, expiry and
// volatility are finite and positive and the rate is finite. Every
// pricing entry point calls it first: a NaN fails every comparison, so a
// test of the form o.Spot <= 0 lets it through.
func validate(o Option, m Market) error {
	if !finitePositive(o.Spot) || !finitePositive(o.Strike) || !finitePositive(o.Expiry) ||
		!finitePositive(m.Volatility) || math.IsNaN(m.Rate) || math.IsInf(m.Rate, 0) {
		return ErrInvalidOption
	}
	return nil
}

func finitePositive(v float64) bool { return v > 0 && v <= math.MaxFloat64 }

func pick(t OptionType, call, put float64) float64 {
	if t == Put {
		return put
	}
	return call
}

func discount(m Market, t float64) float64 {
	return mathx.Exp(-m.Rate * t)
}

// Greeks are the Black-Scholes sensitivities (re-exported from the
// closed-form kernel).
type Greeks = blackscholes.Greeks

// ComputeGreeks returns the closed-form sensitivities of a European
// option; an American one answers ErrMethodStyle (its greeks would need
// lattice bumping).
func ComputeGreeks(o Option, m Market) (Greeks, error) {
	if err := validate(o, m); err != nil {
		return Greeks{}, err
	}
	if o.Style == American {
		return Greeks{}, fmt.Errorf("%w: closed-form greeks are European-only", ErrMethodStyle)
	}
	return blackscholes.ComputeGreeks(o.Spot, o.Strike, o.Expiry, m.internal()), nil
}
