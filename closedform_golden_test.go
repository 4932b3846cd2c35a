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
// A golden lists one hash per stdlib math.Exp body it was recorded on.
// The closed form's CND is math.Erfc and its Erf math.Erf, and both call
// math.Exp, whose amd64 body switches on the CPU's FMA and whose 386 body
// is the portable Go one; so PriceScalar's and ComputeGreeks' bits differ
// between those hosts (ROADMAP item 17: an Erf/Erfc on mathx.Exp leaves
// one hash). On this batch the LevelAdvanced bits agree on all three.
var (
	closedFormRequestGolden = goldens{
		"218d0d7d96ebd6d2f6e5ebf6301626c0c30b7120e228ffbe1d61d18eae0993e6": "amd64 with FMA",
		"4566eba99c22b635f4e1d0611b906db0e67acf00bf0f88fe07d5439427d57238": "amd64 without FMA (GODEBUG=cpu.fma=off)",
		"1af7f63601341de04e3db7bc351c871721099bcf5afa485671d5c1193e6d0465": "386",
	}
	closedFormBatchGolden = goldens{
		"74cad8377dea991a3389308b7b32a536dfcc20c02e631cdf32003b3d93296ec5": "amd64 with and without FMA, 386",
	}
	closedFormGreeksGolden = goldens{
		"2249d1b6073588b173cf2dbdbf1b20ea4cf63cb6a3d242875129df2cbadd08b6": "amd64 with FMA",
		"2ae004146d4d56510e8ee9d24d920015ebb91b801c73d29463c9395793a8c552": "amd64 without FMA (GODEBUG=cpu.fma=off)",
		"4261e5b3153307f3dfb94af26d534a1a351e10ea290b384255cf02b41aa038c5": "386",
	}
)

// goldens maps each accepted hash to the targets it was recorded on.
type goldens map[string]string

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

func checkGolden(t *testing.T, what string, vs []float64, g goldens) {
	t.Helper()
	if got := hashBits(vs); g[got] == "" {
		t.Errorf("SHA-256 of the %s = %s, goldens %v", what, got, g)
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
