package finbench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// mcRequestGolden is the SHA-256 of the (Price, StdErr) bits of a
// 4-option Monte Carlo request in heavy_mix's shape: default paths and
// seed, European calls and puts (a put is the call by parity). Nothing
// else pins the served Monte Carlo bits: the serve tests and
// regress_test.go recompute them from the library. It holds with and
// without FMA on amd64 (GODEBUG=cpu.fma=off).
const mcRequestGolden = "2d5e68e809fdd01a5abef0b672a94ca73a5ec8c18f341ca3b8f7424184b467e5"

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
	h := sha256.New()
	var b [8]byte
	for _, r := range res {
		for _, v := range []float64{r.Price, r.StdErr} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != mcRequestGolden {
		for i, r := range res {
			t.Logf("option %d: %.17g ± %.17g", i, r.Price, r.StdErr)
		}
		t.Fatalf("SHA-256 of the request's results = %s, golden %s", got, mcRequestGolden)
	}
}
