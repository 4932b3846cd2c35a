package blackscholes

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"finbench/internal/layout"
	"finbench/internal/mathx"
	"finbench/internal/perf"
	"finbench/internal/workload"
)

var mkt = workload.MarketParams{R: 0.05, Sigma: 0.2}

// Classic textbook value: S=100, K=100, T=1, r=5%, sigma=20%.
func TestPriceScalarKnownValue(t *testing.T) {
	call, put := PriceScalar(100, 100, 1, mkt)
	if math.Abs(call-10.450583572185565) > 1e-12 {
		t.Fatalf("call = %.15f", call)
	}
	if math.Abs(put-5.573526022256971) > 1e-12 {
		t.Fatalf("put = %.15f", put)
	}
}

func TestPriceScalarDeepITMOTM(t *testing.T) {
	// Deep in-the-money call approaches S - K e^{-rT}.
	call, _ := PriceScalar(200, 10, 1, mkt)
	want := 200 - 10*mathx.Exp(-0.05)
	if math.Abs(call-want) > 1e-9 {
		t.Fatalf("deep ITM call = %g, want %g", call, want)
	}
	// Deep out-of-the-money call is nearly worthless.
	call, _ = PriceScalar(10, 200, 0.25, mkt)
	if call > 1e-12 {
		t.Fatalf("deep OTM call = %g", call)
	}
}

// Property: put-call parity C - P = S - K e^{-rT} for all valid inputs.
func TestPutCallParityQuick(t *testing.T) {
	f := func(su, xu, tu uint16) bool {
		s := 10 + float64(su%190)
		x := 10 + float64(xu%190)
		tt := 0.1 + float64(tu%1000)/100
		call, put := PriceScalar(s, x, tt, mkt)
		want := s - x*mathx.Exp(-mkt.R*tt)
		return math.Abs((call-put)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: call price is monotone decreasing in strike and increasing in
// volatility.
func TestMonotonicityQuick(t *testing.T) {
	f := func(xu uint16) bool {
		x := 50 + float64(xu%100)
		c1, _ := PriceScalar(100, x, 1, mkt)
		c2, _ := PriceScalar(100, x+1, 1, mkt)
		if c2 > c1+1e-12 {
			return false
		}
		lo, _ := PriceScalar(100, x, 1, workload.MarketParams{R: mkt.R, Sigma: 0.1})
		hi, _ := PriceScalar(100, x, 1, workload.MarketParams{R: mkt.R, Sigma: 0.5})
		return hi >= lo-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Call is bounded by S and below by max(S - K e^{-rT}, 0).
func TestNoArbitrageBoundsQuick(t *testing.T) {
	f := func(su, xu, tu uint16) bool {
		s := 10 + float64(su%190)
		x := 10 + float64(xu%190)
		tt := 0.1 + float64(tu%1000)/100
		call, put := PriceScalar(s, x, tt, mkt)
		lower := math.Max(s-x*mathx.Exp(-mkt.R*tt), 0)
		if call < lower-1e-9 || call > s+1e-9 {
			return false
		}
		return put >= 0-1e-9 && put <= x*mathx.Exp(-mkt.R*tt)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func genBatch(n int) layout.AOS {
	return workload.DefaultOptionGen.GenerateAOS(n)
}

func maxDiffAOS(a, b layout.AOS) float64 {
	var m float64
	for i := 0; i < a.Len(); i++ {
		m = math.Max(m, math.Abs(a.Call(i)-b.Call(i)))
		m = math.Max(m, math.Abs(a.Put(i)-b.Put(i)))
	}
	return m
}

func TestBasicMatchesRefScalar(t *testing.T) {
	for _, width := range []int{4, 8} {
		a := genBatch(1003) // deliberately not a multiple of the width
		b := genBatch(1003)
		RefScalar(a, mkt, nil)
		Basic(b, mkt, width, nil)
		if d := maxDiffAOS(a, b); d > 1e-12 {
			t.Fatalf("width %d: Basic differs from RefScalar by %g", width, d)
		}
	}
}

func TestIntermediateMatchesRefScalar(t *testing.T) {
	for _, width := range []int{4, 8} {
		a := genBatch(517)
		RefScalar(a, mkt, nil)
		s := workload.DefaultOptionGen.GenerateSOA(517)
		Intermediate(s, mkt, width, nil)
		for i := 0; i < 517; i++ {
			if math.Abs(s.Call[i]-a.Call(i)) > 1e-10 || math.Abs(s.Put[i]-a.Put(i)) > 1e-10 {
				t.Fatalf("width %d option %d: (%g,%g) vs (%g,%g)", width, i,
					s.Call[i], s.Put[i], a.Call(i), a.Put(i))
			}
		}
	}
}

func TestAdvancedMatchesRefScalar(t *testing.T) {
	for _, width := range []int{4, 8} {
		a := genBatch(5000) // exceeds one VML chunk
		RefScalar(a, mkt, nil)
		s := workload.DefaultOptionGen.GenerateSOA(5000)
		Advanced(s, mkt, width, nil)
		for i := 0; i < 5000; i++ {
			if math.Abs(s.Call[i]-a.Call(i)) > 1e-10 || math.Abs(s.Put[i]-a.Put(i)) > 1e-10 {
				t.Fatalf("width %d option %d mismatch", width, i)
			}
		}
	}
}

func TestBasicCountsGathers(t *testing.T) {
	var c perf.Counts
	a := genBatch(layout.PadTo(1000, 8))
	Basic(a, mkt, 8, &c)
	n := uint64(a.Len())
	vecs := n / 8
	if got := c.N[perf.OpGather]; got != 3*vecs {
		t.Fatalf("gathers = %d, want %d", got, 3*vecs)
	}
	if got := c.N[perf.OpScatter]; got != 2*vecs {
		t.Fatalf("scatters = %d, want %d", got, 2*vecs)
	}
	if c.N[perf.OpCND] != 4*n {
		t.Fatalf("cnd = %d, want %d", c.N[perf.OpCND], 4*n)
	}
	if c.Items != n {
		t.Fatalf("items = %d", c.Items)
	}
	if c.BytesRead != 40*n || c.BytesWritten != 16*n {
		t.Fatalf("traffic = %d/%d", c.BytesRead, c.BytesWritten)
	}
}

func TestIntermediateCountsNoGathers(t *testing.T) {
	var c perf.Counts
	s := workload.DefaultOptionGen.GenerateSOA(layout.PadTo(1000, 8))
	Intermediate(s, mkt, 8, &c)
	if c.N[perf.OpGather] != 0 || c.N[perf.OpScatter] != 0 {
		t.Fatalf("SOA variant performed gathers: %v", c)
	}
	n := uint64(s.Len())
	if c.N[perf.OpErf] != 2*n {
		t.Fatalf("erf = %d, want %d", c.N[perf.OpErf], 2*n)
	}
	if c.N[perf.OpCND] != 0 {
		t.Fatalf("cnd = %d, want 0 (parity + erf substitution)", c.N[perf.OpCND])
	}
	if c.BytesRead != 24*n {
		t.Fatalf("bytes read = %d, want %d", c.BytesRead, 24*n)
	}
}

func TestAdvancedCounts(t *testing.T) {
	var c perf.Counts
	s := workload.DefaultOptionGen.GenerateSOA(4096)
	Advanced(s, mkt, 8, &c)
	if c.N[perf.OpErf] != 2*4096*17/20 {
		t.Fatalf("erf = %d (expect the 15%% VML amortization discount)", c.N[perf.OpErf])
	}
	if c.N[perf.OpVecLoad] == 0 || c.N[perf.OpVecStore] == 0 {
		t.Fatal("VML variant should charge intermediate-array traffic")
	}
	if c.Items != 4096 {
		t.Fatalf("items = %d", c.Items)
	}
}

func TestGreeksAgainstFiniteDifferences(t *testing.T) {
	s, x, tt := 105.0, 100.0, 0.75
	g := ComputeGreeks(s, x, tt, mkt)
	const h = 1e-5
	cUp, pUp := PriceScalar(s+h, x, tt, mkt)
	cDn, pDn := PriceScalar(s-h, x, tt, mkt)
	c0, _ := PriceScalar(s, x, tt, mkt)
	if d := (cUp - cDn) / (2 * h); math.Abs(d-g.DeltaCall) > 1e-6 {
		t.Fatalf("delta call fd %g vs %g", d, g.DeltaCall)
	}
	if d := (pUp - pDn) / (2 * h); math.Abs(d-g.DeltaPut) > 1e-6 {
		t.Fatalf("delta put fd %g vs %g", d, g.DeltaPut)
	}
	if d := (cUp - 2*c0 + cDn) / (h * h); math.Abs(d-g.Gamma) > 1e-4 {
		t.Fatalf("gamma fd %g vs %g", d, g.Gamma)
	}
	mktUp := workload.MarketParams{R: mkt.R, Sigma: mkt.Sigma + h}
	mktDn := workload.MarketParams{R: mkt.R, Sigma: mkt.Sigma - h}
	cvUp, _ := PriceScalar(s, x, tt, mktUp)
	cvDn, _ := PriceScalar(s, x, tt, mktDn)
	if d := (cvUp - cvDn) / (2 * h); math.Abs(d-g.Vega) > 1e-5 {
		t.Fatalf("vega fd %g vs %g", d, g.Vega)
	}
	mrUp := workload.MarketParams{R: mkt.R + h, Sigma: mkt.Sigma}
	mrDn := workload.MarketParams{R: mkt.R - h, Sigma: mkt.Sigma}
	crUp, prUp := PriceScalar(s, x, tt, mrUp)
	crDn, prDn := PriceScalar(s, x, tt, mrDn)
	if d := (crUp - crDn) / (2 * h); math.Abs(d-g.RhoCall) > 1e-5 {
		t.Fatalf("rho call fd %g vs %g", d, g.RhoCall)
	}
	if d := (prUp - prDn) / (2 * h); math.Abs(d-g.RhoPut) > 1e-5 {
		t.Fatalf("rho put fd %g vs %g", d, g.RhoPut)
	}
	ctUp, ptUp := PriceScalar(s, x, tt-h, mkt) // theta: value decay as t advances
	ctDn, ptDn := PriceScalar(s, x, tt+h, mkt)
	if d := (ctUp - ctDn) / (2 * h); math.Abs(d-g.ThetaCall) > 1e-4 {
		t.Fatalf("theta call fd %g vs %g", d, g.ThetaCall)
	}
	if d := (ptUp - ptDn) / (2 * h); math.Abs(d-g.ThetaPut) > 1e-4 {
		t.Fatalf("theta put fd %g vs %g", d, g.ThetaPut)
	}
}

func BenchmarkRefScalar(b *testing.B) {
	a := genBatch(10000)
	b.SetBytes(10000 * 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RefScalar(a, mkt, nil)
	}
}

func BenchmarkBasicW8(b *testing.B) {
	a := genBatch(10000)
	b.SetBytes(10000 * 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Basic(a, mkt, 8, nil)
	}
}

func BenchmarkIntermediateW8(b *testing.B) {
	s := workload.DefaultOptionGen.GenerateSOA(10000)
	b.SetBytes(10000 * 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Intermediate(s, mkt, 8, nil)
	}
}

func BenchmarkAdvancedW8(b *testing.B) {
	s := workload.DefaultOptionGen.GenerateSOA(10000)
	b.SetBytes(10000 * 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Advanced(s, mkt, 8, nil)
	}
}

// Vectorized batch greeks must match the scalar closed form.
func TestGreeksBatchMatchesScalar(t *testing.T) {
	for _, width := range []int{4, 8} {
		s := workload.DefaultOptionGen.GenerateSOA(513) // force a tail
		out := NewGreeksSOA(513)
		GreeksBatch(s, out, mkt, width, nil)
		for i := 0; i < 513; i++ {
			want := ComputeGreeks(s.S[i], s.X[i], s.T[i], mkt)
			if math.Abs(out.DeltaCall[i]-want.DeltaCall) > 1e-12 ||
				math.Abs(out.DeltaPut[i]-want.DeltaPut) > 1e-12 {
				t.Fatalf("width %d option %d: delta mismatch", width, i)
			}
			if math.Abs(out.Gamma[i]-want.Gamma) > 1e-12 {
				t.Fatalf("width %d option %d: gamma %g vs %g", width, i, out.Gamma[i], want.Gamma)
			}
			if math.Abs(out.Vega[i]-want.Vega) > 1e-9 {
				t.Fatalf("width %d option %d: vega %g vs %g", width, i, out.Vega[i], want.Vega)
			}
		}
	}
}

func TestGreeksBatchCounts(t *testing.T) {
	s := workload.DefaultOptionGen.GenerateSOA(layout.PadTo(1000, 8))
	out := NewGreeksSOA(s.Len())
	var c perf.Counts
	GreeksBatch(s, out, mkt, 8, &c)
	n := uint64(s.Len())
	if c.N[perf.OpErf] != n || c.N[perf.OpExp] != n {
		t.Fatalf("erf/exp = %d/%d, want %d each", c.N[perf.OpErf], c.N[perf.OpExp], n)
	}
	if c.Items != n {
		t.Fatalf("items = %d", c.Items)
	}
}

func BenchmarkGreeksBatchW8(b *testing.B) {
	s := workload.DefaultOptionGen.GenerateSOA(100000)
	out := NewGreeksSOA(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreeksBatch(s, out, mkt, 8, nil)
	}
}

// Outputs and operation counts must not depend on the worker count: chunk
// seams sit on multiples of the SIMD width, so every vector group — and
// the single scalar remainder at the end of the batch — is the same one
// the single-worker run sees. GOMAXPROCS is what the decomposition reads.
func TestWorkerCountInvariant(t *testing.T) {
	type result struct {
		c   perf.Counts
		out [][]float64
	}
	variants := map[string]func(n, width int) result{
		"Basic": func(n, width int) (r result) {
			a := genBatch(n)
			Basic(a, mkt, width, &r.c)
			r.out = [][]float64{a.Data}
			return r
		},
		"Intermediate": func(n, width int) (r result) {
			s := workload.DefaultOptionGen.GenerateSOA(n)
			Intermediate(s, mkt, width, &r.c)
			r.out = [][]float64{s.Call, s.Put}
			return r
		},
		"Advanced": func(n, width int) (r result) {
			s := workload.DefaultOptionGen.GenerateSOA(n)
			Advanced(s, mkt, width, &r.c)
			r.out = [][]float64{s.Call, s.Put}
			return r
		},
		"GreeksBatch": func(n, width int) (r result) {
			s := workload.DefaultOptionGen.GenerateSOA(n)
			g := NewGreeksSOA(n)
			GreeksBatch(s, g, mkt, width, &r.c)
			r.out = [][]float64{g.DeltaCall, g.DeltaPut, g.Gamma, g.Vega}
			return r
		},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, run := range variants {
		for _, width := range []int{4, 8} {
			for _, n := range []int{4096, 4099} { // a multiple of the width, and not
				runtime.GOMAXPROCS(1)
				want := run(n, width)
				for w := 2; w <= 8; w++ {
					runtime.GOMAXPROCS(w)
					got := run(n, width)
					if got.c != want.c {
						t.Errorf("%s width %d n %d: counts at %d workers differ from 1 worker:\n%+v\n%+v", name, width, n, w, got.c, want.c)
					}
					for k := range want.out {
						for i := range want.out[k] {
							if got.out[k][i] != want.out[k][i] {
								t.Fatalf("%s width %d n %d: output %d[%d] at %d workers = %v, want %v", name, width, n, k, i, w, got.out[k][i], want.out[k][i])
							}
						}
					}
				}
			}
		}
	}
}
