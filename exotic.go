package finbench

import (
	"context"
	"errors"
	"fmt"

	"finbench/internal/montecarlo"
)

// Extensions beyond the vanilla pricing methods: the trinomial lattice,
// least-squares Monte Carlo for American exercise, arithmetic Asian
// options (plain and quasi-Monte Carlo), and multi-asset baskets.

// PriceTrinomial values the option on a Boyle trinomial lattice, the
// alternative lattice method of the paper's taxonomy (Fig. 1). It supports
// every type/style combination.
func PriceTrinomial(o Option, m Market, steps int) (Result, error) {
	return PriceCtx(context.Background(), o, m, TrinomialTree, &Config{BinomialSteps: steps})
}

// PriceAmericanPutLSMC values an American put by Longstaff-Schwartz
// least-squares Monte Carlo — the simulation-based alternative to the
// lattice and finite-difference American pricers, cross-validating both.
func PriceAmericanPutLSMC(o Option, m Market, paths, exerciseDates int, seed uint64) (Result, error) {
	if o.Spot <= 0 || o.Strike <= 0 || o.Expiry <= 0 || m.Volatility <= 0 {
		return Result{}, ErrInvalidOption
	}
	if o.Type != Put {
		return Result{}, fmt.Errorf("%w: LSMC pricer takes American puts", ErrMethodStyle)
	}
	if paths <= 0 {
		paths = 100000
	}
	if exerciseDates <= 0 {
		exerciseDates = 50
	}
	res := montecarlo.AmericanPutLSMC(o.Spot, o.Strike, o.Expiry, paths, exerciseDates, seed, m.internal())
	return Result{Price: res.Price, StdErr: res.StdErr, Method: MonteCarlo}, nil
}

// AsianCall is an arithmetic-average Asian call contract.
type AsianCall struct {
	Spot, Strike, Expiry float64
	// Observations is the number of averaging dates (power of two).
	Observations int
}

// ErrBadObservations indicates a non-power-of-two observation count.
var ErrBadObservations = errors.New("finbench: observations must be a power of two >= 2")

func (a AsianCall) validate() error {
	if a.Spot <= 0 || a.Strike <= 0 || a.Expiry <= 0 {
		return ErrInvalidOption
	}
	if a.Observations < 2 || a.Observations&(a.Observations-1) != 0 {
		return ErrBadObservations
	}
	return nil
}

// PriceAsianMC values the Asian call by Monte Carlo over Brownian-bridge
// paths.
func PriceAsianMC(a AsianCall, m Market, paths int, seed uint64) (Result, error) {
	if err := a.validate(); err != nil {
		return Result{}, err
	}
	if paths <= 0 {
		paths = 1 << 16
	}
	res := montecarlo.AsianMC(montecarlo.AsianOption{
		S: a.Spot, X: a.Strike, T: a.Expiry, Steps: a.Observations,
	}, paths, seed, m.internal())
	return Result{Price: res.Price, StdErr: res.StdErr, Method: MonteCarlo}, nil
}

// PriceAsianQMC values the Asian call by randomized quasi-Monte Carlo:
// Sobol points driving a Brownian-bridge construction, converging markedly
// faster than plain MC (see the ablate-qmc experiment). StdErr is the
// spread over digital-shift replicates.
func PriceAsianQMC(a AsianCall, m Market, points int, seed uint64) (Result, error) {
	if err := a.validate(); err != nil {
		return Result{}, err
	}
	if points <= 0 {
		points = 1 << 13
	}
	res := montecarlo.AsianQMC(montecarlo.AsianOption{
		S: a.Spot, X: a.Strike, T: a.Expiry, Steps: a.Observations,
	}, points, 4, seed, m.internal())
	return Result{Price: res.Price, StdErr: res.StdErr, Method: MonteCarlo}, nil
}

// BasketCall is a European call on a weighted arithmetic basket of
// correlated assets.
type BasketCall struct {
	Spots, Vols, Weights []float64
	// Corr is the asset correlation matrix (symmetric positive definite).
	Corr           [][]float64
	Strike, Expiry float64
}

// PriceBasketMC values the basket call by correlated Monte Carlo (the
// beyond-three-underlyings regime where lattices are infeasible,
// Sec. II).
func PriceBasketMC(b BasketCall, m Market, paths int, seed uint64) (Result, error) {
	if b.Strike <= 0 || b.Expiry <= 0 {
		return Result{}, ErrInvalidOption
	}
	if paths <= 0 {
		paths = 1 << 16
	}
	res, err := montecarlo.PriceBasketMC(montecarlo.Basket{
		Spots: b.Spots, Vols: b.Vols, Weights: b.Weights,
		Corr: b.Corr, X: b.Strike, T: b.Expiry,
	}, paths, seed, m.internal())
	if err != nil {
		return Result{}, err
	}
	return Result{Price: res.Price, StdErr: res.StdErr, Method: MonteCarlo}, nil
}

// AmericanGreeks estimates delta and gamma of an American option by
// central-difference bumping of the binomial lattice (the closed-form
// greeks of ComputeGreeks apply only to European exercise).
func AmericanGreeks(o Option, m Market, steps int) (delta, gamma float64, err error) {
	if o.Style != American {
		return 0, 0, fmt.Errorf("%w: use ComputeGreeks for European options", ErrMethodStyle)
	}
	if steps <= 0 {
		steps = 1024
	}
	h := o.Spot * 1e-3
	price := func(spot float64) (float64, error) {
		oo := o
		oo.Spot = spot
		r, err := Price(oo, m, BinomialTree, &Config{BinomialSteps: steps})
		return r.Price, err
	}
	up, err := price(o.Spot + h)
	if err != nil {
		return 0, 0, err
	}
	mid, err := price(o.Spot)
	if err != nil {
		return 0, 0, err
	}
	dn, err := price(o.Spot - h)
	if err != nil {
		return 0, 0, err
	}
	return (up - dn) / (2 * h), (up - 2*mid + dn) / (h * h), nil
}

// BarrierCall is a European down-and-out call: it expires worthless if the
// underlying touches the barrier before expiry.
type BarrierCall struct {
	Spot, Strike, Expiry float64
	// Barrier is the knock-out level, 0 < Barrier <= min(Spot, Strike).
	Barrier float64
	// Monitoring is the number of MC monitoring intervals (power-of-two
	// not required; default 64).
	Monitoring int
}

// PriceBarrierClosedForm values the continuously-monitored down-and-out
// call with the Merton reflection formula.
func PriceBarrierClosedForm(b BarrierCall, m Market) (Result, error) {
	p, err := montecarlo.DownOutCallClosedForm(montecarlo.DownOutCall{
		S: b.Spot, X: b.Strike, H: b.Barrier, T: b.Expiry, Steps: max1(b.Monitoring),
	}, m.internal())
	if err != nil {
		return Result{}, err
	}
	return Result{Price: p, Method: ClosedForm}, nil
}

// PriceBarrierMC values the down-and-out call by Monte Carlo. corrected
// selects the Brownian-bridge crossing correction (continuous monitoring);
// without it the estimator reflects discrete monitoring at the given
// frequency and is biased high relative to the closed form.
func PriceBarrierMC(b BarrierCall, m Market, paths int, seed uint64, corrected bool) (Result, error) {
	if paths <= 0 {
		paths = 1 << 16
	}
	res, err := montecarlo.DownOutCallMC(montecarlo.DownOutCall{
		S: b.Spot, X: b.Strike, H: b.Barrier, T: b.Expiry, Steps: max1(b.Monitoring),
	}, paths, seed, corrected, m.internal())
	if err != nil {
		return Result{}, err
	}
	return Result{Price: res.Price, StdErr: res.StdErr, Method: MonteCarlo}, nil
}

func max1(n int) int {
	if n <= 0 {
		return 64
	}
	return n
}

// JumpDiffusion holds Merton (1976) jump parameters: jumps arrive at rate
// Lambda per year with lognormal sizes (log-size mean Mu, stddev Delta).
type JumpDiffusion struct {
	Lambda, Mu, Delta float64
}

// PriceJumpDiffusionCall values a European call under Merton
// jump-diffusion by the closed-form Poisson-weighted Black-Scholes series.
func PriceJumpDiffusionCall(o Option, m Market, j JumpDiffusion) (Result, error) {
	if o.Spot <= 0 || o.Strike <= 0 || o.Expiry <= 0 || m.Volatility <= 0 {
		return Result{}, ErrInvalidOption
	}
	p, err := montecarlo.MertonCallClosedForm(o.Spot, o.Strike, o.Expiry,
		montecarlo.JumpParams{Lambda: j.Lambda, Mu: j.Mu, Delta: j.Delta}, m.internal())
	if err != nil {
		return Result{}, err
	}
	return Result{Price: p, Method: ClosedForm}, nil
}

// PriceJumpDiffusionCallMC values the same call by simulation (validates
// the series; useful when extending to payoffs without a closed form).
func PriceJumpDiffusionCallMC(o Option, m Market, j JumpDiffusion, paths int, seed uint64) (Result, error) {
	if o.Spot <= 0 || o.Strike <= 0 || o.Expiry <= 0 || m.Volatility <= 0 {
		return Result{}, ErrInvalidOption
	}
	if paths <= 0 {
		paths = 1 << 16
	}
	res, err := montecarlo.MertonCallMC(o.Spot, o.Strike, o.Expiry,
		montecarlo.JumpParams{Lambda: j.Lambda, Mu: j.Mu, Delta: j.Delta}, paths, seed, m.internal())
	if err != nil {
		return Result{}, err
	}
	return Result{Price: res.Price, StdErr: res.StdErr, Method: MonteCarlo}, nil
}

// StochasticVol holds Heston (1993) variance dynamics (see
// internal/montecarlo: CIR variance, correlation Rho with the asset).
type StochasticVol struct {
	V0, Kappa, ThetaV, SigmaV, Rho float64
}

// PriceHestonCallMC values a European call under Heston stochastic
// volatility by full-truncation Euler Monte Carlo.
func PriceHestonCallMC(o Option, m Market, sv StochasticVol, paths, steps int, seed uint64) (Result, error) {
	if o.Spot <= 0 || o.Strike <= 0 || o.Expiry <= 0 {
		return Result{}, ErrInvalidOption
	}
	if paths <= 0 {
		paths = 1 << 16
	}
	if steps <= 0 {
		steps = 64
	}
	res, err := montecarlo.HestonCallMC(o.Spot, o.Strike, o.Expiry,
		montecarlo.HestonParams{V0: sv.V0, Kappa: sv.Kappa, ThetaV: sv.ThetaV, SigmaV: sv.SigmaV, Rho: sv.Rho},
		paths, steps, seed, m.internal())
	if err != nil {
		return Result{}, err
	}
	return Result{Price: res.Price, StdErr: res.StdErr, Method: MonteCarlo}, nil
}
