package binomial

// Oracles for the American-put walks: the per-node listings (one Exp per
// tree node to recover the spot for the early-exercise test) are the
// obviously-correct form, kept here as test helpers. The host bodies
// read the same expression from a precomputed ladder and tile the
// reduction, so every output must equal the listing's bit for bit.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"finbench/internal/mathx"
	"finbench/internal/workload"
)

// refAmericanPut is the per-node listing of the binomial American put.
func refAmericanPut(s, x float64, p Params) float64 {
	steps := p.Steps
	val := make([]float64, steps+1)
	for j := 0; j <= steps; j++ {
		v := x - s*mathx.Exp(p.VDt*float64(2*j-steps))
		if v < 0 {
			v = 0
		}
		val[j] = v
	}
	for i := steps; i > 0; i-- {
		for j := 0; j <= i-1; j++ {
			cont := p.PuByDf*val[j+1] + p.PdByDf*val[j]
			// Early exercise: spot at node (i-1, j) is S e^{(2j-(i-1)) vDt}.
			ex := x - s*mathx.Exp(p.VDt*float64(2*j-(i-1)))
			if ex > cont {
				val[j] = ex
			} else {
				val[j] = cont
			}
		}
	}
	return val[0]
}

// refAmericanPutTrinomial is the per-node listing of the trinomial
// American put.
func refAmericanPutTrinomial(s, x, t float64, steps int, mkt workload.MarketParams) float64 {
	p := NewTriParams(t, steps, mkt)
	n := 2*steps + 1
	val := make([]float64, n)
	for j := 0; j < n; j++ {
		v := x - s*mathx.Exp(float64(j-steps)*p.logU)
		if v < 0 {
			v = 0
		}
		val[j] = v
	}
	for level := steps - 1; level >= 0; level-- {
		m := 2*level + 1
		for j := 0; j < m; j++ {
			cont := p.Df * (p.Pd*val[j] + p.Pm*val[j+1] + p.Pu*val[j+2])
			ex := x - s*mathx.Exp(float64(j-level)*p.logU)
			if ex > cont {
				val[j] = ex
			} else {
				val[j] = cont
			}
		}
	}
	return val[0]
}

// oracleContracts is the fixed corner set (deep in and out of the money,
// at the money, a ten-day expiry) plus seeded random contracts.
func oracleContracts() [][3]float64 {
	cs := [][3]float64{
		{100, 110, 1},    // the regression contract
		{100, 100, 1},    // S = K
		{100, 100, 0.01}, // S = K, T = 0.01
		{20, 100, 1},     // deep in the money: exercise everywhere
		{400, 100, 1},    // deep out of the money: exercise nowhere near the root
		{100, 105, 0.01},
		{95, 100, 3},
	}
	rnd := rand.New(rand.NewSource(18))
	for i := 0; i < 8; i++ {
		cs = append(cs, [3]float64{50 + 100*rnd.Float64(), 50 + 100*rnd.Float64(), 0.05 + 3*rnd.Float64()})
	}
	return cs
}

var oracleSteps = []int{1, 2, 3, 7, 255, 1023, 1024}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestAmericanPutMatchesPerNodeListing(t *testing.T) {
	for _, steps := range oracleSteps {
		for _, c := range oracleContracts() {
			s, x, tt := c[0], c[1], c[2]
			want := refAmericanPut(s, x, NewParams(tt, steps, mkt))
			if got := val(PriceAmericanPutScalarCtx(context.Background(), s, x, tt, steps, mkt)); !sameBits(got, want) {
				t.Errorf("binomial steps %d S=%g K=%g T=%g: price %.17g, listing %.17g", steps, s, x, tt, got, want)
			}
			if got, want := val(PriceAmericanPutTrinomialCtx(context.Background(), s, x, tt, steps, mkt)), refAmericanPutTrinomial(s, x, tt, steps, mkt); !sameBits(got, want) {
				t.Errorf("trinomial steps %d S=%g K=%g T=%g: price %.17g, listing %.17g", steps, s, x, tt, got, want)
			}
		}
	}
}
