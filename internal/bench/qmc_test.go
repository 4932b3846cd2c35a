package bench

import (
	"math"
	"runtime"
	"testing"

	"finbench/internal/blackscholes"
	"finbench/internal/workload"
)

var (
	asian    = asianOption{S: 100, X: 100, T: 1, Steps: 32}
	asianMkt = workload.MarketParams{R: 0.05, Sigma: 0.2}
)

// MC and QMC must agree on the Asian price within their joint error.
func TestAsianMCAndQMCAgree(t *testing.T) {
	mc := asianMC(asian, 1<<16, 3, asianMkt)
	qmc := asianQMC(asian, 1<<12, 4, 5, asianMkt)
	tol := 4*(mc.StdErr+qmc.StdErr) + 1e-3
	if math.Abs(mc.Price-qmc.Price) > tol {
		t.Fatalf("MC %g +- %g vs QMC %g +- %g", mc.Price, mc.StdErr, qmc.Price, qmc.StdErr)
	}
}

// Sanity bounds: the arithmetic Asian call is worth less than the European
// call (averaging reduces volatility) and more than zero for ATM.
func TestAsianBounds(t *testing.T) {
	mc := asianMC(asian, 1<<15, 9, asianMkt)
	euro, _ := blackscholes.PriceScalar(asian.S, asian.X, asian.T, asianMkt)
	if mc.Price <= 0 {
		t.Fatalf("ATM Asian call priced at %g", mc.Price)
	}
	if mc.Price >= euro {
		t.Fatalf("Asian %g not below European %g", mc.Price, euro)
	}
}

// The bridge+Sobol pairing must reduce error versus plain MC for the
// path-dependent payoff at matched path counts.
func TestAsianQMCBeatsMC(t *testing.T) {
	const n = 1 << 12
	// Reference price from a large MC run.
	ref := asianMC(asian, 1<<18, 21, asianMkt)

	qmc := asianQMC(asian, n, 4, 31, asianMkt)
	qmcErr := math.Abs(qmc.Price - ref.Price)

	var mcErr float64
	const trials = 5
	for trial := uint64(0); trial < trials; trial++ {
		mc := asianMC(asian, n, 40+trial, asianMkt)
		mcErr += math.Abs(mc.Price - ref.Price)
	}
	mcErr /= trials
	if qmcErr > mcErr {
		t.Fatalf("Asian QMC err %g not below MC err %g", qmcErr, mcErr)
	}
}

// asianMC and asianQMC are functions of their inputs alone: reruns and
// every worker count give the same bits.
func TestAsianDeterministicBySeed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a := asianMC(asian, 4093, 5, asianMkt)
	c := asianQMC(asian, 2500, 2, 5, asianMkt)
	for _, w := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(w)
		if b := asianMC(asian, 4093, 5, asianMkt); b != a {
			t.Errorf("asianMC at %d workers: %+v, want %+v", w, b, a)
		}
		if d := asianQMC(asian, 2500, 2, 5, asianMkt); d != c {
			t.Errorf("asianQMC at %d workers: %+v, want %+v", w, d, c)
		}
	}
}

func BenchmarkAsianMC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		asianMC(asian, 4096, 1, asianMkt)
	}
}

func BenchmarkAsianQMC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		asianQMC(asian, 2048, 2, 1, asianMkt)
	}
}
