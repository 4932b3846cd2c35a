package montecarlo

import (
	"context"
	"math"
	"testing"

	"finbench/internal/binomial"
	"finbench/internal/blackscholes"
	"finbench/internal/workload"
)

// LSMC must agree with the binomial-tree American put within a small
// premium band (LSMC's suboptimal-exercise bias is low-side).
func TestLSMCMatchesBinomial(t *testing.T) {
	for _, tc := range []struct{ s, x float64 }{
		{100, 100}, {100, 110}, {110, 100},
	} {
		want, err := binomial.PriceAmericanPutScalarCtx(context.Background(), tc.s, tc.x, 1, 2048, mkt)
		if err != nil {
			t.Fatal(err)
		}
		got := AmericanPutLSMC(tc.s, tc.x, 1, 100000, 50, 7, mkt)
		// LSMC with a quadratic basis is biased slightly low; allow a
		// one-sided band plus the MC error.
		if got.Price > want+4*got.StdErr+0.02 {
			t.Fatalf("S=%g X=%g: LSMC %g above binomial %g", tc.s, tc.x, got.Price, want)
		}
		if got.Price < want-0.05*want-4*got.StdErr {
			t.Fatalf("S=%g X=%g: LSMC %g far below binomial %g", tc.s, tc.x, got.Price, want)
		}
	}
}

// The American premium must be visible: LSMC price above the European put.
func TestLSMCCapturesEarlyExercise(t *testing.T) {
	_, euro := blackscholes.PriceScalar(100, 120, 1, mkt)
	got := AmericanPutLSMC(100, 120, 1, 100000, 50, 11, mkt)
	if got.Price < euro {
		t.Fatalf("LSMC %g below European %g: early exercise not captured", got.Price, euro)
	}
}

func TestLSMCDeterministic(t *testing.T) {
	a := AmericanPutLSMC(100, 105, 1, 20000, 25, 3, mkt)
	b := AmericanPutLSMC(100, 105, 1, 20000, 25, 3, mkt)
	if a.Price != b.Price {
		t.Fatal("LSMC not reproducible for a fixed seed")
	}
}

func TestBasketSingleAssetReducesToBS(t *testing.T) {
	b := Basket{
		Spots: []float64{100}, Vols: []float64{0.2}, Weights: []float64{1},
		Corr: [][]float64{{1}},
		X:    100, T: 1,
	}
	res, err := PriceBasketMC(b, 1<<17, 5, mkt)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := blackscholes.PriceScalar(100, 100, 1, workload.MarketParams{R: mkt.R, Sigma: 0.2})
	if math.Abs(res.Price-want) > 4*res.StdErr+0.01 {
		t.Fatalf("basket %g +- %g vs BS %g", res.Price, res.StdErr, want)
	}
}

// Diversification: with imperfect correlation, the basket's effective
// volatility drops, so an ATM basket call is worth less than the same call
// on a single asset; with perfect correlation it matches.
func TestBasketCorrelationEffect(t *testing.T) {
	mk := func(rho float64) Basket {
		return Basket{
			Spots: []float64{100, 100}, Vols: []float64{0.2, 0.2},
			Weights: []float64{0.5, 0.5},
			Corr:    [][]float64{{1, rho}, {rho, 1}},
			X:       100, T: 1,
		}
	}
	lo, err := PriceBasketMC(mk(0.0), 1<<16, 9, mkt)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := PriceBasketMC(mk(0.999), 1<<16, 9, mkt)
	if err != nil {
		t.Fatal(err)
	}
	single, _ := blackscholes.PriceScalar(100, 100, 1, workload.MarketParams{R: mkt.R, Sigma: 0.2})
	if lo.Price >= hi.Price {
		t.Fatalf("rho=0 basket %g not below rho~1 basket %g", lo.Price, hi.Price)
	}
	if math.Abs(hi.Price-single) > 4*hi.StdErr+0.05 {
		t.Fatalf("perfectly correlated basket %g vs single-asset %g", hi.Price, single)
	}
}

func TestBasketValidation(t *testing.T) {
	if _, err := PriceBasketMC(Basket{}, 10, 1, mkt); err != ErrBasketShape {
		t.Fatalf("empty basket: %v", err)
	}
	bad := Basket{
		Spots: []float64{100, 100}, Vols: []float64{0.2, 0.2},
		Weights: []float64{0.5, 0.5},
		Corr:    [][]float64{{1, 2}, {2, 1}}, // not PSD
		X:       100, T: 1,
	}
	if _, err := PriceBasketMC(bad, 10, 1, mkt); err == nil {
		t.Fatal("non-PSD correlation accepted")
	}
}

func BenchmarkLSMC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		AmericanPutLSMC(100, 105, 1, 20000, 25, 1, mkt)
	}
}

func BenchmarkBasketMC(b *testing.B) {
	bk := Basket{
		Spots: []float64{100, 95, 105}, Vols: []float64{0.2, 0.25, 0.3},
		Weights: []float64{0.4, 0.3, 0.3},
		Corr:    [][]float64{{1, 0.5, 0.3}, {0.5, 1, 0.4}, {0.3, 0.4, 1}},
		X:       100, T: 1,
	}
	for i := 0; i < b.N; i++ {
		PriceBasketMC(bk, 1<<14, 1, mkt)
	}
}
