package finbench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// The closed-form goldens: SHA-256 of the result bits of a wide-moneyness
// batch, as PriceRequestCtx prices it, as the served /price engine
// (PriceBatchCtx at LevelAdvanced) prices it, and its /greeks values
// (ComputeGreeks). The serve, stream and topology tests recompute these
// numbers from the library, so only these hashes notice when a change to
// a shared kernel (mathx.Exp, say) moves the served bits.
//
// Each golden holds on amd64 with FMA, amd64 without it
// (GODEBUG=cpu.fma=off) and 386: the closed form's CND is mathx.Erfc,
// whose tail reduces on mathx.Exp's table, and the Advanced pipeline's
// erf is mathx.Erf, from its own table; every product in them is rounded
// and nothing they call switches on the CPU.
const (
	closedFormRequestGolden = "e3eba154bca6f89fe3070d4d2479d343adf50a3323e53f7b22937b2952f76dbb"
	closedFormBatchGolden   = "4fc0570422bfe5e6d6948b4684055872cc3486b4303099a4b48b273225c43825"
	closedFormGreeksGolden  = "dec4ad2f67ab143d24c7810aa31599b44523cfe409dcc0908d5dac847f2c3599"
)

// wideBatch is calls and puts at S/K from 0.2 to 5 (25 ratios a factor
// 1.1435 apart, strike 100) and expiries from 1e-3 to 10 years. The
// spots are products, not math.Pow, whose amd64 math.Exp switches on FMA.
func wideBatch() []Option {
	var opts []Option
	for _, tt := range []float64{1e-3, 0.01, 0.1, 0.5, 1, 2, 5, 10} {
		s := 20.0
		for i := 0; i < 25; i++ {
			for _, typ := range []OptionType{Call, Put} {
				opts = append(opts, Option{Type: typ, Spot: s, Strike: 100, Expiry: tt})
			}
			s *= 1.1435
		}
	}
	return opts
}

var wideMarket = Market{Rate: 0.02, Volatility: 0.3}

// hashBits returns the SHA-256 of the little-endian bits of vs.
func hashBits(vs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checkGolden(t *testing.T, what string, vs []float64, golden string) {
	t.Helper()
	if got := hashBits(vs); got != golden {
		t.Errorf("SHA-256 of the %s = %s, golden %s", what, got, golden)
	}
}

func TestClosedFormRequestGolden(t *testing.T) {
	opts := wideBatch()
	res, err := PriceRequestCtx(context.Background(), opts, wideMarket, ClosedForm, nil)
	if err != nil {
		t.Fatal(err)
	}
	prices := make([]float64, len(res))
	for i, r := range res {
		prices[i] = r.Price
	}
	checkGolden(t, "PriceRequestCtx prices", prices, closedFormRequestGolden)

	b := NewBatch(len(opts))
	for i, o := range opts {
		b.Spots[i], b.Strikes[i], b.Expiries[i] = o.Spot, o.Strike, o.Expiry
	}
	if err := PriceBatchCtx(context.Background(), b, wideMarket, LevelAdvanced); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "LevelAdvanced calls and puts", append(b.Calls, b.Puts...), closedFormBatchGolden)
}

func TestClosedFormGreeksGolden(t *testing.T) {
	var vs []float64
	for _, o := range wideBatch() {
		g, err := ComputeGreeks(o, wideMarket)
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, g.DeltaCall, g.DeltaPut, g.Gamma, g.Vega, g.ThetaCall, g.ThetaPut, g.RhoCall, g.RhoPut)
	}
	checkGolden(t, "Greeks", vs, closedFormGreeksGolden)
}
