package sobol

import (
	"math"
	"sort"
	"testing"

	"finbench/internal/rng"
)

func TestIsPrimitiveKnown(t *testing.T) {
	primitive := []struct {
		p   uint64
		deg uint
	}{
		{0b11, 1},     // x+1
		{0b111, 2},    // x^2+x+1
		{0b1011, 3},   // x^3+x+1
		{0b1101, 3},   // x^3+x^2+1
		{0b10011, 4},  // x^4+x+1
		{0b11001, 4},  // x^4+x^3+1
		{0b100101, 5}, // x^5+x^2+1
	}
	for _, c := range primitive {
		if !isPrimitive(c.p, c.deg) {
			t.Errorf("%#b (deg %d) should be primitive", c.p, c.deg)
		}
	}
	notPrimitive := []struct {
		p   uint64
		deg uint
	}{
		{0b101, 2},   // x^2+1 = (x+1)^2, reducible
		{0b1001, 3},  // x^3+1 = (x+1)(x^2+x+1), reducible
		{0b11111, 4}, // x^4+x^3+x^2+x+1: irreducible but order 5 != 15
		{0b10101, 4}, // x^4+x^2+1 = (x^2+x+1)^2, reducible
		{0b10010, 4}, // even constant term
	}
	for _, c := range notPrimitive {
		if isPrimitive(c.p, c.deg) {
			t.Errorf("%#b (deg %d) should not be primitive", c.p, c.deg)
		}
	}
}

func TestPrimitivePolynomialOrder(t *testing.T) {
	got := primitivePolynomials(7)
	want := []uint64{0b11, 0b111, 0b1011, 0b1101, 0b10011, 0b11001, 0b100101}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("poly %d = %#b, want %#b", i, got[i], w)
		}
	}
}

func TestPrimitiveCountsByDegree(t *testing.T) {
	// phi(2^d - 1)/d primitive polynomials of degree d: 1,1,2,2,6,6,18...
	polys := primitivePolynomials(36)
	counts := map[uint]int{}
	for _, p := range polys {
		counts[polyDegree(p)]++
	}
	want := map[uint]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 6, 6: 6, 7: 18}
	for deg, n := range want {
		if counts[deg] != n {
			t.Errorf("degree %d: %d primitives, want %d", deg, counts[deg], n)
		}
	}
}

func TestPrimeFactors(t *testing.T) {
	cases := []struct {
		n    uint64
		want []uint64
	}{
		{15, []uint64{3, 5}},
		{127, []uint64{127}},
		{255, []uint64{3, 5, 17}},
		{511, []uint64{7, 73}},
	}
	for _, c := range cases {
		got := primeFactors(c.n)
		if len(got) != len(c.want) {
			t.Fatalf("factors(%d) = %v", c.n, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("factors(%d) = %v, want %v", c.n, got, c.want)
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	for _, dim := range []int{0, -1, 1112} {
		if _, err := New(dim); err == nil {
			t.Fatalf("dim %d accepted", dim)
		}
	}
	s, err := New(64)
	if err != nil {
		t.Fatal(err)
	}
	if s.dim != 64 {
		t.Fatalf("dim = %d", s.dim)
	}
}

func TestFirstDimensionIsVanDerCorput(t *testing.T) {
	s, _ := New(1)
	pt := make([]float64, 1)
	s.Next(pt) // origin
	// Indices 1,2,3 in Gray-code order: 1/2, 3/4, 1/4 (plus half-cell).
	want := []float64{0.5, 0.75, 0.25}
	for i, w := range want {
		s.Next(pt)
		if math.Abs(pt[0]-w) > 1e-9 {
			t.Fatalf("point %d = %.10f, want ~%g", i+1, pt[0], w)
		}
	}
}

// Digital-net property: an aligned block of 2^k consecutive points places
// exactly one point in each dyadic interval of width 2^-k, in every
// dimension.
func TestOneDimensionalStratification(t *testing.T) {
	const k = 8
	const n = 1 << k
	s, _ := New(32)
	pt := make([]float64, 32)
	var bins [32][n]int
	for i := 0; i < n; i++ {
		s.Next(pt)
		for d := 0; d < 32; d++ {
			bins[d][int(pt[d]*n)]++
		}
	}
	for d := 0; d < 32; d++ {
		for b := 0; b < n; b++ {
			if bins[d][b] != 1 {
				t.Fatalf("dim %d bin %d has %d points, want 1", d, b, bins[d][b])
			}
		}
	}
}

// The (1,2) pair is a (0,2)-net: 256 points put exactly one point in each
// 16x16 dyadic box.
func TestTwoDimensionalStratificationFirstPair(t *testing.T) {
	const n = 256
	s, _ := New(2)
	pt := make([]float64, 2)
	var boxes [16][16]int
	for i := 0; i < n; i++ {
		s.Next(pt)
		boxes[int(pt[0]*16)][int(pt[1]*16)]++
	}
	for i := range boxes {
		for j := range boxes[i] {
			if boxes[i][j] != 1 {
				t.Fatalf("box (%d,%d) has %d points", i, j, boxes[i][j])
			}
		}
	}
}

// Later-dimension pairs are not (0,2)-nets, but occupancy must stay far
// from random clumping: no 16x16 box may hold more than a few of 4096
// points (random would fluctuate around 16 +- 12).
func TestHighDimensionalProjectionsReasonable(t *testing.T) {
	const n = 4096
	s, _ := New(64)
	pt := make([]float64, 64)
	pairs := [][2]int{{10, 11}, {30, 31}, {62, 63}, {5, 60}}
	boxes := make(map[[3]int]int)
	for i := 0; i < n; i++ {
		s.Next(pt)
		for pi, pr := range pairs {
			boxes[[3]int{pi, int(pt[pr[0]] * 16), int(pt[pr[1]] * 16)}]++
		}
	}
	// Perfect stratification would put 16 in each of 256 boxes.
	for key, count := range boxes {
		if count > 64 {
			t.Fatalf("pair %v box (%d,%d) holds %d of %d points", pairs[key[0]], key[1], key[2], count, n)
		}
	}
}

func TestSkipMatchesSequential(t *testing.T) {
	a, _ := New(8)
	b, _ := New(8)
	pa := make([]float64, 8)
	pb := make([]float64, 8)
	for i := 0; i < 1000; i++ {
		a.Next(pa)
	}
	b.Skip(1000)
	for i := 0; i < 16; i++ {
		a.Next(pa)
		b.Next(pb)
		for d := 0; d < 8; d++ {
			if pa[d] != pb[d] {
				t.Fatalf("point %d dim %d: %g != %g", i, d, pb[d], pa[d])
			}
		}
	}
}

func TestDigitalShift(t *testing.T) {
	s, _ := New(4)
	s.DigitalShift(12345)
	pt := make([]float64, 4)
	xs := make([]float64, 0, 4096)
	for i := 0; i < 1024; i++ {
		s.Next(pt)
		xs = append(xs, pt...)
	}
	// Shifted points remain uniform.
	if d := ksUniform(xs); d > 0.03 {
		t.Fatalf("shifted sequence KS = %g", d)
	}
	// Zero seed restores the unshifted sequence.
	s2, _ := New(4)
	s2.DigitalShift(999)
	s2.DigitalShift(0)
	s3, _ := New(4)
	p2 := make([]float64, 4)
	p3 := make([]float64, 4)
	s2.Next(p2)
	s3.Next(p3)
	for d := range p2 {
		if p2[d] != p3[d] {
			t.Fatal("zero shift did not restore identity")
		}
	}
}

// ksUniform returns the Kolmogorov-Smirnov statistic of xs against U(0,1):
// the largest gap between the empirical CDF and the identity.
func ksUniform(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	var d float64
	for i, x := range s {
		d = math.Max(d, math.Max(x-float64(i)/n, float64(i+1)/n-x))
	}
	return d
}

func TestCoordinatesInOpenInterval(t *testing.T) {
	s, _ := New(16)
	pt := make([]float64, 16)
	for i := 0; i < 10000; i++ {
		s.Next(pt)
		for d, x := range pt {
			if x <= 0 || x >= 1 {
				t.Fatalf("point %d dim %d = %g out of (0,1)", i, d, x)
			}
		}
	}
}

// QMC integration error must beat pseudo-random MC on a smooth integrand:
// f(u) = prod (1 + 0.6*(u_i - 0.5)) over 8 dimensions, E[f] = 1.
func TestQMCBeatsMC(t *testing.T) {
	const dim = 8
	const n = 4096
	f := func(u []float64) float64 {
		p := 1.0
		for _, x := range u {
			p *= 1 + 0.6*(x-0.5)
		}
		return p
	}
	s, _ := New(dim)
	pt := make([]float64, dim)
	var qmcSum float64
	for i := 0; i < n; i++ {
		s.Next(pt)
		qmcSum += f(pt)
	}
	qmcErr := math.Abs(qmcSum/n - 1)

	// Average MC error over a few seeds for a stable comparison.
	var mcErr float64
	const trials = 5
	for trial := 0; trial < trials; trial++ {
		stream := rng.NewStream(trial, 77)
		var sum float64
		buf := make([]float64, dim)
		for i := 0; i < n; i++ {
			stream.Uniform(buf)
			sum += f(buf)
		}
		mcErr += math.Abs(sum/n - 1)
	}
	mcErr /= trials
	if qmcErr > mcErr/3 {
		t.Fatalf("QMC error %g not clearly below MC error %g", qmcErr, mcErr)
	}
}

func BenchmarkNext64(b *testing.B) {
	s, _ := New(64)
	pt := make([]float64, 64)
	b.SetBytes(64 * 8)
	for i := 0; i < b.N; i++ {
		s.Next(pt)
	}
}
