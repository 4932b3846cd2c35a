package montecarlo

import (
	"context"
	"math"
	"runtime"
	"testing"

	"finbench/internal/blackscholes"
	"finbench/internal/perf"
	"finbench/internal/rng"
	"finbench/internal/workload"
)

var mkt = workload.MarketParams{R: 0.05, Sigma: 0.2}

func normals(n int, seed uint64) []float64 {
	z := make([]float64, n)
	rng.NewStream(0, seed).NormalICDF(z)
	return z
}

// The MC estimate must land within its own confidence interval of the
// closed form.
func TestScalarStreamConvergesToBlackScholes(t *testing.T) {
	z := normals(1<<18, 1) // the paper's 256k path length
	bs, _ := blackscholes.PriceScalar(100, 110, 1, mkt)
	res := PriceScalarStream(100, 110, 1, z, mkt)
	if math.Abs(res.Price-bs) > 4*res.StdErr {
		t.Fatalf("MC %g +- %g vs BS %g", res.Price, res.StdErr, bs)
	}
	if res.StdErr <= 0 || res.StdErr > 0.2 {
		t.Fatalf("implausible stderr %g", res.StdErr)
	}
}

// Monte Carlo error must shrink like 1/sqrt(npath) (Sec. II-D).
func TestErrorScaling(t *testing.T) {
	small := PriceScalarStream(100, 100, 1, normals(1<<12, 2), mkt)
	large := PriceScalarStream(100, 100, 1, normals(1<<16, 2), mkt)
	ratio := small.StdErr / large.StdErr
	if ratio < 3 || ratio > 5.5 { // ideal 4
		t.Fatalf("stderr ratio = %g, want ~4", ratio)
	}
}

func batch(n int) *workload.MCBatch {
	g := workload.DefaultOptionGen
	g.TMax = 3
	return g.NewMCBatch(n)
}

func TestVectorizedMatchesScalarSums(t *testing.T) {
	z := normals(4096+5, 3) // force a scalar tail
	for _, width := range []int{4, 8} {
		for _, unroll := range []int{1, 2, 4} {
			b := batch(9)
			RefScalar(b, z, mkt, nil)
			want := append([]float64(nil), b.Price...)
			b2 := batch(9)
			Vectorized(b2, z, mkt, width, unroll, nil)
			for i := range want {
				// Different accumulation order: tolerance, not equality.
				if math.Abs(b2.Price[i]-want[i]) > 1e-9*math.Max(1, want[i]) {
					t.Fatalf("w=%d u=%d option %d: %g vs %g", width, unroll, i, b2.Price[i], want[i])
				}
			}
		}
	}
}

func TestComputeRNGConvergesToBlackScholes(t *testing.T) {
	b := &workload.MCBatch{
		S: []float64{100}, X: []float64{100}, T: []float64{1},
		Price: make([]float64, 1), StdErr: make([]float64, 1),
	}
	VectorizedComputeRNG(b, 1<<17, 7, mkt, 8, 2, nil)
	bs, _ := blackscholes.PriceScalar(100, 100, 1, mkt)
	if math.Abs(b.Price[0]-bs) > 5*b.StdErr[0] {
		t.Fatalf("computed-RNG MC %g +- %g vs BS %g", b.Price[0], b.StdErr[0], bs)
	}
}

func TestStreamCounts(t *testing.T) {
	z := normals(1024, 1)
	b := batch(4)
	var c perf.Counts
	Vectorized(b, z, mkt, 8, 2, &c)
	paths := uint64(4 * 1024)
	if c.N[perf.OpExp] != paths {
		t.Fatalf("exp = %d, want %d", c.N[perf.OpExp], paths)
	}
	if c.N[perf.OpRNG] != 0 {
		t.Fatal("stream mode must not generate RNG")
	}
	if c.BytesRead != 1024*8 {
		t.Fatalf("read = %d, want %d (shared buffer charged once)", c.BytesRead, 1024*8)
	}
	if c.Items != 4 {
		t.Fatalf("items = %d", c.Items)
	}
}

func TestComputeRNGCounts(t *testing.T) {
	b := batch(4)
	var c perf.Counts
	VectorizedComputeRNG(b, 1024, 1, mkt, 8, 1, &c)
	paths := uint64(4 * 1024)
	if c.N[perf.OpRNG] != paths {
		t.Fatalf("rng = %d, want %d", c.N[perf.OpRNG], paths)
	}
	if c.N[perf.OpInvCND] != paths {
		t.Fatalf("invcnd = %d, want %d", c.N[perf.OpInvCND], paths)
	}
	if c.BytesRead != 0 {
		t.Fatalf("computed mode streamed %d bytes", c.BytesRead)
	}
}

// Deep OTM options must price to ~0, deep ITM to ~forward intrinsic.
func TestExtremeMoneyness(t *testing.T) {
	z := normals(1<<14, 5)
	res := PriceScalarStream(10, 500, 0.5, z, mkt)
	if res.Price != 0 {
		t.Fatalf("deep OTM price = %g", res.Price)
	}
	res = PriceScalarStream(500, 10, 0.5, z, mkt)
	bs, _ := blackscholes.PriceScalar(500, 10, 0.5, mkt)
	if math.Abs(res.Price-bs)/bs > 0.01 {
		t.Fatalf("deep ITM price = %g vs %g", res.Price, bs)
	}
}

func BenchmarkVectorizedStream(b *testing.B) {
	z := normals(1<<16, 1)
	bt := batch(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Vectorized(bt, z, mkt, 8, 4, nil)
	}
}

func BenchmarkVectorizedComputeRNG(b *testing.B) {
	bt := batch(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VectorizedComputeRNG(bt, 1<<14, 1, mkt, 8, 2, nil)
	}
}

// Operation counts of every batch variant must not depend on the worker
// count (GOMAXPROCS is what the decomposition reads). The streamed
// variants price each option from the shared normals, so their outputs
// are invariant too. VectorizedComputeRNG keys each chunk's stream on the
// chunk start by design, so a multi-option batch draws different normals
// under a different split: for it only the counts are asserted, plus the
// single-option batch (always one chunk), which must be bit-identical at
// every worker count. SharedStreamCtx — the served shape — is serial by
// construction, so every option of every batch size must be.
func TestWorkerCountInvariant(t *testing.T) {
	z := normals(1024+5, 3)
	const rngPaths = 3000
	variants := map[string]struct {
		run        func(b *workload.MCBatch, width int, c *perf.Counts)
		countsOnly bool
	}{
		"RefScalar":  {run: func(b *workload.MCBatch, _ int, c *perf.Counts) { RefScalar(b, z, mkt, c) }},
		"Vectorized": {run: func(b *workload.MCBatch, w int, c *perf.Counts) { Vectorized(b, z, mkt, w, 2, c) }},
		"ComputeRNG": {countsOnly: true, run: func(b *workload.MCBatch, w int, c *perf.Counts) {
			VectorizedComputeRNG(b, rngPaths, 7, mkt, w, 2, c)
		}},
		"SharedStream": {run: func(b *workload.MCBatch, _ int, _ *perf.Counts) {
			if err := SharedStreamCtx(context.Background(), b, rngPaths, 7, mkt); err != nil {
				t.Fatal(err)
			}
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, v := range variants {
		for _, width := range []int{4, 8} {
			for _, n := range []int{16, 13, 1} { // a multiple of the width, not, and a single option
				runtime.GOMAXPROCS(1)
				ref := batch(n)
				var want perf.Counts
				v.run(ref, width, &want)
				for w := 2; w <= 8; w++ {
					runtime.GOMAXPROCS(w)
					b := batch(n)
					var got perf.Counts
					v.run(b, width, &got)
					if got != want {
						t.Errorf("%s width %d n %d: counts at %d workers differ from 1 worker", name, width, n, w)
					}
					if v.countsOnly && n > 1 {
						continue
					}
					for i := range ref.Price {
						if b.Price[i] != ref.Price[i] || b.StdErr[i] != ref.StdErr[i] {
							t.Fatalf("%s width %d n %d option %d at %d workers: %.17g±%.17g, want %.17g±%.17g",
								name, width, n, i, w, b.Price[i], b.StdErr[i], ref.Price[i], ref.StdErr[i])
						}
					}
				}
			}
		}
	}
}
