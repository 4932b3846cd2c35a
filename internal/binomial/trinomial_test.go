package binomial

import (
	"context"
	"math"
	"testing"

	"finbench/internal/blackscholes"
)

func TestTrinomialConvergesToBlackScholes(t *testing.T) {
	bs, _ := blackscholes.PriceScalar(100, 100, 1, mkt)
	prevErr := math.Inf(1)
	for _, n := range []int{32, 128, 512} {
		got := val(PriceTrinomialCtx(context.Background(), 100, 100, 1, n, mkt))
		err := math.Abs(got - bs)
		if err > 5*bs/float64(n) {
			t.Fatalf("N=%d: trinomial %g vs BS %g", n, got, bs)
		}
		if err > prevErr*1.2 {
			t.Fatalf("N=%d: error %g did not shrink from %g", n, err, prevErr)
		}
		prevErr = err
	}
}

// The trinomial tree must beat the binomial tree's accuracy at equal step
// counts (the extra branch smooths the odd/even oscillation).
func TestTrinomialBeatsBinomialAccuracy(t *testing.T) {
	bs, _ := blackscholes.PriceScalar(100, 103, 0.7, mkt)
	const n = 101 // odd N maximizes binomial oscillation
	binErr := math.Abs(PriceScalar(100, 103, 0.7, n, mkt) - bs)
	triErr := math.Abs(val(PriceTrinomialCtx(context.Background(), 100, 103, 0.7, n, mkt)) - bs)
	if triErr > binErr {
		t.Fatalf("trinomial err %g not below binomial err %g at N=%d", triErr, binErr, n)
	}
}

func TestTrinomialProbabilitiesValid(t *testing.T) {
	for _, steps := range []int{16, 256, 2048} {
		p := NewTriParams(1.5, steps, mkt)
		if p.Pu <= 0 || p.Pm <= 0 || p.Pd <= 0 {
			t.Fatalf("steps=%d: probabilities %g %g %g", steps, p.Pu, p.Pm, p.Pd)
		}
		if math.Abs(p.Pu+p.Pm+p.Pd-1) > 1e-12 {
			t.Fatalf("steps=%d: probabilities sum to %g", steps, p.Pu+p.Pm+p.Pd)
		}
	}
}

func TestTrinomialAmericanMatchesBinomial(t *testing.T) {
	for _, tc := range []struct{ s, x float64 }{{100, 100}, {100, 115}, {115, 100}} {
		bin := val(PriceAmericanPutScalarCtx(context.Background(), tc.s, tc.x, 1, 2048, mkt))
		tri := val(PriceAmericanPutTrinomialCtx(context.Background(), tc.s, tc.x, 1, 1024, mkt))
		if math.Abs(bin-tri) > 0.01*math.Max(1, bin) {
			t.Fatalf("S=%g X=%g: binomial %g vs trinomial %g", tc.s, tc.x, bin, tri)
		}
	}
}

func TestTrinomialAmericanDominance(t *testing.T) {
	euro := val(PriceTrinomialCtx(context.Background(), 100, 100, 1, 512, mkt)) // call: no premium for puts check below
	_ = euro
	_, europut := blackscholes.PriceScalar(100, 110, 1, mkt)
	amer := val(PriceAmericanPutTrinomialCtx(context.Background(), 100, 110, 1, 512, mkt))
	if amer < europut {
		t.Fatalf("American trinomial put %g below European %g", amer, europut)
	}
	if amer < 10 { // intrinsic
		t.Fatalf("American put %g below intrinsic 10", amer)
	}
}

func BenchmarkTrinomial512(b *testing.B) {
	for i := 0; i < b.N; i++ {
		val(PriceTrinomialCtx(context.Background(), 100, 100, 1, 512, mkt))
	}
}
