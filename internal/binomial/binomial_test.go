package binomial

import (
	"context"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"finbench/internal/blackscholes"
	"finbench/internal/layout"
	"finbench/internal/perf"
	"finbench/internal/workload"
)

var mkt = workload.MarketParams{R: 0.05, Sigma: 0.2}

// val drops the error of an uncancelled …Ctx call.
func val(v float64, _ error) float64 { return v }

// The binomial price must converge to the Black-Scholes closed form as the
// step count grows (O(1/N) for CRR).
func TestConvergenceToBlackScholes(t *testing.T) {
	bsCall, _ := blackscholes.PriceScalar(100, 100, 1, mkt)
	prevErr := math.Inf(1)
	for _, n := range []int{64, 256, 1024} {
		got := PriceScalar(100, 100, 1, n, mkt)
		err := math.Abs(got - bsCall)
		if err > 3*bsCall/float64(n) {
			t.Fatalf("N=%d: price %g vs BS %g (err %g too large)", n, got, bsCall, err)
		}
		if err > prevErr*1.5 {
			t.Fatalf("N=%d: error %g did not shrink from %g", n, err, prevErr)
		}
		prevErr = err
	}
}

func TestConvergenceAcrossMoneyness(t *testing.T) {
	for _, c := range []struct{ s, x, tt float64 }{
		{100, 80, 0.5}, {100, 120, 2}, {50, 55, 1.5}, {150, 150, 0.25},
	} {
		bsCall, _ := blackscholes.PriceScalar(c.s, c.x, c.tt, mkt)
		got := PriceScalar(c.s, c.x, c.tt, 2048, mkt)
		if math.Abs(got-bsCall) > 0.02 {
			t.Fatalf("S=%g X=%g T=%g: binomial %g vs BS %g", c.s, c.x, c.tt, got, bsCall)
		}
	}
}

// American put is worth at least the European put (early exercise premium
// is non-negative) and at least intrinsic value.
func TestAmericanPutDominatesEuropean(t *testing.T) {
	f := func(su, xu uint16) bool {
		s := 50 + float64(su%100)
		x := 50 + float64(xu%100)
		_, euro := blackscholes.PriceScalar(s, x, 1, mkt)
		amer := val(PriceAmericanPutScalarCtx(context.Background(), s, x, 1, 512, mkt))
		if amer < euro-0.02 { // binomial discretization tolerance
			return false
		}
		return amer >= math.Max(x-s, 0)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAmericanPutKnownBehaviour(t *testing.T) {
	// Deep ITM American put should be exercised immediately: value ==
	// intrinsic.
	got := val(PriceAmericanPutScalarCtx(context.Background(), 40, 100, 1, 512, mkt))
	if math.Abs(got-60) > 1e-6 {
		t.Fatalf("deep ITM American put = %g, want 60", got)
	}
}

func batch(n int) layout.AOS {
	g := workload.DefaultOptionGen
	g.TMax = 3 // keep trees numerically benign
	return g.GenerateAOS(n)
}

func prices(a layout.AOS) []float64 {
	out := make([]float64, a.Len())
	for i := range out {
		out[i] = a.Call(i)
	}
	return out
}

// All variants perform identical per-node arithmetic, so they must agree
// bitwise with the scalar reference.
func TestVariantsBitwiseEqual(t *testing.T) {
	const n, steps = 37, 128
	ref := batch(n)
	RefScalar(ref, steps, mkt, nil)
	want := prices(ref)

	check := func(name string, got []float64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s option %d: %.17g != %.17g", name, i, got[i], want[i])
			}
		}
	}
	for _, w := range []int{4, 8} {
		b := batch(n)
		Basic(b, steps, mkt, w, nil)
		check("Basic", prices(b))

		b = batch(n)
		Intermediate(b, steps, mkt, w, nil)
		check("Intermediate", prices(b))

		b = batch(n)
		Advanced(b, steps, mkt, w, 8, false, nil)
		check("Advanced", prices(b))

		b = batch(n)
		Advanced(b, steps, mkt, w, 8, true, nil)
		check("Advanced-unrolled", prices(b))

		b = batch(n)
		Advanced(b, steps, mkt, w, 16, true, nil)
		check("Advanced-tile16", prices(b))
	}
}

func TestAdvancedPanicsOnBadTile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advanced with steps % tile != 0 did not panic")
		}
	}()
	Advanced(batch(8), 100, mkt, 8, 8, false, nil)
}

// Register tiling must cut Call-array traffic by ~TS while leaving flops
// unchanged — the mechanism behind the >2x speedup of Fig. 5.
func TestTilingReducesLoadStores(t *testing.T) {
	const n, steps = 64, 1024
	var ci, ca perf.Counts
	b := batch(n)
	Intermediate(b, steps, mkt, 8, &ci)
	b = batch(n)
	Advanced(b, steps, mkt, 8, 8, true, &ca)

	flopsI := ci.N[perf.OpVecFMA] + ci.N[perf.OpVecMul]
	flopsA := ca.N[perf.OpVecFMA] + ca.N[perf.OpVecMul]
	if math.Abs(float64(flopsI)-float64(flopsA))/float64(flopsI) > 0.02 {
		t.Fatalf("tiling changed flop count: %d vs %d", flopsI, flopsA)
	}
	memI := ci.N[perf.OpVecLoad] + ci.N[perf.OpVecStore]
	memA := ca.N[perf.OpVecLoad] + ca.N[perf.OpVecStore]
	if float64(memA) > float64(memI)/4 {
		t.Fatalf("tiling did not reduce memory ops: %d vs %d", memA, memI)
	}
}

// The non-unrolled tiled variant issues one register move per inner step;
// unrolling eliminates them (the KNC-only 1.4x of Sec. IV-B3).
func TestUnrollEliminatesMoves(t *testing.T) {
	const n, steps = 16, 256
	var cm, cu perf.Counts
	b := batch(n)
	Advanced(b, steps, mkt, 8, 8, false, &cm)
	b = batch(n)
	Advanced(b, steps, mkt, 8, 8, true, &cu)
	if cm.N[perf.OpVecMisc] <= cu.N[perf.OpVecMisc] {
		t.Fatalf("moves: rolled %d, unrolled %d", cm.N[perf.OpVecMisc], cu.N[perf.OpVecMisc])
	}
	// The move count should be ~1 per FMA in the steady state.
	moves := cm.N[perf.OpVecMisc] - cu.N[perf.OpVecMisc]
	fmas := cm.N[perf.OpVecFMA]
	if float64(moves) < 0.8*float64(fmas)*float64(steps-8)/float64(steps) {
		t.Fatalf("moves %d vs fmas %d: unexpected ratio", moves, fmas)
	}
}

// Basic's unaligned loads must disappear in the across-options variants.
func TestAcrossOptionsEliminatesUnaligned(t *testing.T) {
	const n, steps = 16, 256
	var cb, ci perf.Counts
	b := batch(n)
	Basic(b, steps, mkt, 8, &cb)
	b = batch(n)
	Intermediate(b, steps, mkt, 8, &ci)
	if cb.N[perf.OpVecLoadU] == 0 {
		t.Fatal("Basic should perform unaligned loads")
	}
	if ci.N[perf.OpVecLoadU] != 0 {
		t.Fatal("Intermediate should not perform unaligned loads")
	}
	// Basic also pays a scalar remainder at each row end.
	if cb.N[perf.OpScalar] == 0 {
		t.Fatal("Basic should have scalar remainder work")
	}
}

// Flop accounting must reproduce the paper's 3N(N+1)/2 bound per option.
func TestFlopCountMatchesBound(t *testing.T) {
	const n, steps = 8, 512
	var c perf.Counts
	b := batch(n)
	RefScalar(b, steps, mkt, &c)
	perOption := float64(c.N[perf.OpScalar]) / float64(n)
	bound := 3 * float64(steps) * float64(steps+1) / 2
	// Within 2% (leaf init adds 3(N+1) flops).
	if perOption < bound || perOption > bound*1.02 {
		t.Fatalf("scalar flops/option = %g, bound %g", perOption, bound)
	}
}

func TestItemsAndTraffic(t *testing.T) {
	const n, steps = 24, 128
	var c perf.Counts
	b := batch(n)
	Intermediate(b, steps, mkt, 8, &c)
	if c.Items != n {
		t.Fatalf("items = %d", c.Items)
	}
	if c.BytesRead != 24*n || c.BytesWritten != 8*n {
		t.Fatalf("traffic %d/%d", c.BytesRead, c.BytesWritten)
	}
}

// Property: price is positive and below spot for calls.
func TestPriceBoundsQuick(t *testing.T) {
	f := func(su, xu uint16) bool {
		s := 20 + float64(su%180)
		x := 20 + float64(xu%180)
		p := PriceScalar(s, x, 1, 256, mkt)
		return p >= 0 && p <= s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRefScalar1024(b *testing.B) {
	a := batch(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RefScalar(a, 1024, mkt, nil)
	}
}

func BenchmarkIntermediateW8_1024(b *testing.B) {
	a := batch(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Intermediate(a, 1024, mkt, 8, nil)
	}
}

func BenchmarkAdvancedW8_1024(b *testing.B) {
	a := batch(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Advanced(a, 1024, mkt, 8, 8, true, nil)
	}
}

// Outputs and operation counts of every batch variant must not depend on
// the worker count (GOMAXPROCS is what the decomposition reads): groups
// and options are whole work items, and a group writes only its own lanes.
func TestWorkerCountInvariant(t *testing.T) {
	const steps = 64
	variants := map[string]func(a layout.AOS, width int, c *perf.Counts){
		"RefScalar":    func(a layout.AOS, _ int, c *perf.Counts) { RefScalar(a, steps, mkt, c) },
		"Basic":        func(a layout.AOS, w int, c *perf.Counts) { Basic(a, steps, mkt, w, c) },
		"Intermediate": func(a layout.AOS, w int, c *perf.Counts) { Intermediate(a, steps, mkt, w, c) },
		"Advanced":     func(a layout.AOS, w int, c *perf.Counts) { Advanced(a, steps, mkt, w, 8, false, c) },
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, run := range variants {
		for _, width := range []int{4, 8} {
			for _, n := range []int{40, 37} { // a multiple of the width, and not
				runtime.GOMAXPROCS(1)
				ref := batch(n)
				var want perf.Counts
				run(ref, width, &want)
				wantP := prices(ref)
				for w := 2; w <= 8; w++ {
					runtime.GOMAXPROCS(w)
					b := batch(n)
					var got perf.Counts
					run(b, width, &got)
					if got != want {
						t.Errorf("%s width %d n %d: counts at %d workers differ from 1 worker", name, width, n, w)
					}
					gotP := prices(b)
					for i, p := range wantP {
						if gotP[i] != p {
							t.Fatalf("%s width %d n %d option %d at %d workers: %.17g != %.17g", name, width, n, i, w, gotP[i], p)
						}
					}
				}
			}
		}
	}
}
