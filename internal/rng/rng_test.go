package rng

import (
	"math"
	"testing"

	"finbench/internal/perf"
)

// Known-answer test: the reference mt19937ar implementation seeded with
// init_genrand(5489) produces this sequence of genrand_int32 outputs.
func TestMT19937KnownAnswerDefaultSeed(t *testing.T) {
	m := NewMT19937(5489)
	want := []uint32{3499211612, 581869302, 3890346734, 3586334585, 545404204}
	for i, w := range want {
		if got := m.Uint32(); got != w {
			t.Fatalf("output %d = %d, want %d", i, got, w)
		}
	}
}

// Known-answer test: init_by_array({0x123, 0x234, 0x345, 0x456}) is the
// published test vector of mt19937ar.c.
func TestMT19937KnownAnswerArraySeed(t *testing.T) {
	m := NewMT19937(0)
	m.SeedArray([]uint32{0x123, 0x234, 0x345, 0x456})
	want := []uint32{1067595299, 955945823, 477289528, 4107218783, 4228976476, 3344332714, 3355579695, 227628506, 810200273, 2591290167}
	for i, w := range want {
		if got := m.Uint32(); got != w {
			t.Fatalf("output %d = %d, want %d", i, got, w)
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	a, b := NewMT19937(42), NewMT19937(42)
	for i := 0; i < 1000; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatalf("same-seed generators diverged at %d", i)
		}
	}
	c := NewMT19937(43)
	same := 0
	a.Seed(42)
	for i := 0; i < 1000; i++ {
		if a.Uint32() == c.Uint32() {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds coincide too often: %d/1000", same)
	}
}

func TestUint64(t *testing.T) {
	a, b := NewMT19937(7), NewMT19937(7)
	hi := uint64(b.Uint32())
	lo := uint64(b.Uint32())
	if got := a.Uint64(); got != hi<<32|lo {
		t.Fatalf("Uint64 = %x, want %x", got, hi<<32|lo)
	}
}

func TestFloat64OOOpenInterval(t *testing.T) {
	m := NewMT19937(2)
	for i := 0; i < 100000; i++ {
		f := m.Float64OO()
		if f <= 0 || f >= 1 {
			t.Fatalf("Float64OO out of (0,1): %g", f)
		}
	}
}

func TestUniformMoments(t *testing.T) {
	s := NewStream(0, 12345)
	const n = 200000
	buf := make([]float64, n)
	s.Uniform(buf)
	var mean, m2 float64
	for _, x := range buf {
		mean += x
	}
	mean /= n
	for _, x := range buf {
		m2 += (x - mean) * (x - mean)
	}
	m2 /= n
	if math.Abs(mean-0.5) > 0.003 {
		t.Fatalf("uniform mean = %g", mean)
	}
	if math.Abs(m2-1.0/12) > 0.002 {
		t.Fatalf("uniform variance = %g, want %g", m2, 1.0/12)
	}
}

func TestUniformBuckets(t *testing.T) {
	s := NewStream(3, 999)
	const n = 100000
	buf := make([]float64, n)
	s.Uniform(buf)
	var buckets [10]int
	for _, x := range buf {
		buckets[int(x*10)]++
	}
	for i, c := range buckets {
		if math.Abs(float64(c)-n/10) > 5*math.Sqrt(n/10) {
			t.Fatalf("bucket %d count %d deviates too far from %d", i, c, n/10)
		}
	}
}

func normalMoments(t *testing.T, method Method, n int) (mean, variance, skew, kurt float64) {
	t.Helper()
	s := NewStream(1, 777)
	buf := make([]float64, n)
	s.Normal(buf, method)
	for _, x := range buf {
		mean += x
	}
	mean /= float64(n)
	var m2, m3, m4 float64
	for _, x := range buf {
		d := x - mean
		m2 += d * d
		m3 += d * d * d
		m4 += d * d * d * d
	}
	m2 /= float64(n)
	m3 /= float64(n)
	m4 /= float64(n)
	return mean, m2, m3 / math.Pow(m2, 1.5), m4 / (m2 * m2)
}

func TestNormalMomentsAllMethods(t *testing.T) {
	for _, method := range []Method{ICDF, BoxMuller, BoxMuller2, ZigguratMethod} {
		mean, v, skew, kurt := normalMoments(t, method, 400000)
		if math.Abs(mean) > 0.01 {
			t.Errorf("%v: mean = %g", method, mean)
		}
		if math.Abs(v-1) > 0.02 {
			t.Errorf("%v: variance = %g", method, v)
		}
		if math.Abs(skew) > 0.03 {
			t.Errorf("%v: skewness = %g", method, skew)
		}
		if math.Abs(kurt-3) > 0.12 {
			t.Errorf("%v: kurtosis = %g", method, kurt)
		}
	}
}

// The ICDF method must reproduce the empirical CDF: check a few quantiles.
func TestNormalICDFQuantiles(t *testing.T) {
	s := NewStream(2, 31415)
	const n = 200000
	buf := make([]float64, n)
	s.NormalICDF(buf)
	for _, q := range []struct{ z, p float64 }{{-1.959963984540054, 0.025}, {0, 0.5}, {1.2815515655446004, 0.9}} {
		cnt := 0
		for _, x := range buf {
			if x <= q.z {
				cnt++
			}
		}
		got := float64(cnt) / n
		if math.Abs(got-q.p) > 0.005 {
			t.Errorf("P(Z <= %g) = %g, want %g", q.z, got, q.p)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	// Distinct stream ids with the same seed must be decorrelated.
	a := NewStream(0, 5)
	b := NewStream(1, 5)
	const n = 100000
	x := make([]float64, n)
	y := make([]float64, n)
	a.Uniform(x)
	b.Uniform(y)
	var sxy, sx, sy float64
	for i := range x {
		sx += x[i] - 0.5
		sy += y[i] - 0.5
		sxy += (x[i] - 0.5) * (y[i] - 0.5)
	}
	corr := (sxy/n - (sx/n)*(sy/n)) / (1.0 / 12)
	if math.Abs(corr) > 0.02 {
		t.Fatalf("cross-stream correlation = %g", corr)
	}
}

func TestStreamDeterministicById(t *testing.T) {
	a := NewStream(7, 100)
	b := NewStream(7, 100)
	x := make([]float64, 64)
	y := make([]float64, 64)
	a.Uniform(x)
	b.Uniform(y)
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("same (id, seed) stream not reproducible")
		}
	}
}

func TestStreamCounting(t *testing.T) {
	var c perf.Counts
	s := NewStream(0, 1)
	s.C = &c
	buf := make([]float64, 100)
	s.Uniform(buf)
	if c.N[perf.OpRNG] != 100 {
		t.Fatalf("uniform OpRNG = %d, want 100", c.N[perf.OpRNG])
	}
	s.NormalICDF(buf)
	if c.N[perf.OpRNG] != 200 || c.N[perf.OpInvCND] != 100 {
		t.Fatalf("icdf counts = rng %d invcnd %d", c.N[perf.OpRNG], c.N[perf.OpInvCND])
	}
}

func TestMethodString(t *testing.T) {
	if ICDF.String() != "icdf" || ZigguratMethod.String() != "ziggurat" {
		t.Fatal("Method.String wrong")
	}
	if Method(99).String() == "" {
		t.Fatal("unknown method String empty")
	}
}

func TestNormalUnknownMethodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Normal with unknown method did not panic")
		}
	}()
	NewStream(0, 1).Normal(make([]float64, 1), Method(99))
}

// Ziggurat table invariants: x strictly decreasing past the pseudo-layer,
// equal strip areas, and consistent acceptance ratios.
func TestZigguratTables(t *testing.T) {
	if zigX[1] != 3.442619855899 {
		t.Fatalf("zigX[1] = %g, want r", zigX[1])
	}
	if zigX[0] <= zigX[1] {
		t.Fatalf("pseudo width q = %g not > r", zigX[0])
	}
	for i := 2; i <= zigLayers; i++ {
		if zigX[i] >= zigX[i-1] {
			t.Fatalf("zigX not decreasing at %d: %g >= %g", i, zigX[i], zigX[i-1])
		}
	}
	// Strip areas: x[i]*(f(x[i+1])-f(x[i])) == v for interior layers.
	const v = 9.91256303526217e-3
	for i := 1; i < zigLayers; i++ {
		area := zigX[i] * (zigY[i+1] - zigY[i])
		if math.Abs(area-v) > 1e-9 {
			t.Fatalf("layer %d area = %g, want %g", i, area, v)
		}
	}
	// zigR[127] is exactly 0 (the innermost layer always takes the wedge
	// test); all others must be proper acceptance ratios.
	for i := 0; i < zigLayers-1; i++ {
		if zigR[i] <= 0 || zigR[i] >= 1 {
			t.Fatalf("zigR[%d] = %g out of (0,1)", i, zigR[i])
		}
	}
	if zigR[zigLayers-1] != 0 {
		t.Fatalf("zigR[last] = %g, want 0", zigR[zigLayers-1])
	}
}

func BenchmarkUniform(b *testing.B) {
	s := NewStream(0, 1)
	buf := make([]float64, 1024)
	b.SetBytes(1024 * 8)
	for i := 0; i < b.N; i++ {
		s.Uniform(buf)
	}
}

func BenchmarkNormalICDF(b *testing.B) {
	s := NewStream(0, 1)
	buf := make([]float64, 1024)
	b.SetBytes(1024 * 8)
	for i := 0; i < b.N; i++ {
		s.NormalICDF(buf)
	}
}

func BenchmarkNormalZiggurat(b *testing.B) {
	s := NewStream(0, 1)
	buf := make([]float64, 1024)
	b.SetBytes(1024 * 8)
	for i := 0; i < b.N; i++ {
		s.NormalZiggurat(buf)
	}
}

func BenchmarkNormalBoxMuller(b *testing.B) {
	s := NewStream(0, 1)
	buf := make([]float64, 1024)
	b.SetBytes(1024 * 8)
	for i := 0; i < b.N; i++ {
		s.NormalBoxMuller(buf)
	}
}
