package finbench

import (
	"context"
	"testing"
)

// mcRequestGolden is the SHA-256 of the (Price, StdErr) bits of a
// 4-option Monte Carlo request in heavy_mix's shape: default paths and
// seed, European calls and puts (a put is the call by parity). Nothing
// else pins the served Monte Carlo bits: the serve tests and
// regress_test.go recompute them from the library. It holds with and
// without FMA on amd64 (GODEBUG=cpu.fma=off).
const mcRequestGolden = "67105bb7437401d5d540d95e727091c6d51de424aa9e5e333ca2fb576f2e2a42"

func TestMonteCarloRequestGolden(t *testing.T) {
	opts := []Option{
		{Spot: 100, Strike: 100, Expiry: 1},
		{Type: Put, Spot: 90, Strike: 100, Expiry: 0.5},
		{Spot: 110, Strike: 100, Expiry: 2},
		{Type: Put, Spot: 75.5, Strike: 120, Expiry: 2.75},
	}
	res, err := PriceRequestCtx(context.Background(), opts, Market{Rate: 0.02, Volatility: 0.3}, MonteCarlo, nil)
	if err != nil {
		t.Fatal(err)
	}
	var vs []float64
	for _, r := range res {
		vs = append(vs, r.Price, r.StdErr)
	}
	if got := hashBits(vs); got != mcRequestGolden {
		for i, r := range res {
			t.Logf("option %d: %.17g ± %.17g", i, r.Price, r.StdErr)
		}
		t.Fatalf("SHA-256 of the request's results = %s, golden %s", got, mcRequestGolden)
	}
}
