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
	if err := validate(o, m); err != nil {
		return Result{}, err
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
	if !finitePositive(a.Spot) || !finitePositive(a.Strike) || !finitePositive(a.Expiry) {
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
	if !finitePositive(b.Strike) || !finitePositive(b.Expiry) {
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
