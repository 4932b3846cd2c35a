package mathx

// Oracle for Exp: the body this package used to run, which scaled the
// reduced polynomial by 2^k through math.Ldexp on every call, is kept
// here as the reference listing. Exp now builds 2^k from exponent bits
// whenever it is a normal double and keeps Ldexp only at the edges; every
// output must equal the listing's bit for bit.

import (
	"math"
	"math/rand"
	"testing"
)

// refExp is the listing: Cody-Waite reduction, the degree-13 Taylor
// polynomial and math.Ldexp(p, k), with every product that feeds an add
// rounded explicitly, as in Exp, so that no target may fuse it.
func refExp(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x > 709.782712893384:
		return math.Inf(1)
	case x < -745.1332191019412:
		return 0
	}
	const (
		ln2Hi  = 6.93147180369123816490e-01
		ln2Lo  = 1.90821492927058770002e-10
		invLn2 = 1.44269504088896338700e+00
	)
	k := math.Floor(float64(x*invLn2) + 0.5)
	r := (x - float64(k*ln2Hi)) - float64(k*ln2Lo)
	p := 1.0/479001600 + r/6227020800
	for _, c := range []float64{1.0 / 39916800, 1.0 / 3628800, 1.0 / 362880, 1.0 / 40320,
		1.0 / 5040, 1.0 / 720, 1.0 / 120, 1.0 / 24, 1.0 / 6, 1.0 / 2, 1, 1} {
		p = c + float64(r*p)
	}
	return math.Ldexp(p, int(k))
}

func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func checkExp(t *testing.T, x float64) {
	t.Helper()
	if got, want := Exp(x), refExp(x); !sameBits(got, want) {
		t.Fatalf("Exp(%v) [%#016x] = %v [%#016x], listing %v [%#016x]",
			x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// expEdges are the inputs where the two scalings could part: signed zero,
// subnormal inputs, NaN and the infinities, both thresholds and their
// neighbours, and the x at which the reduction's k crosses into and out
// of the range where 2^k is a normal double (k = -1023..-1020 and
// 1022..1024), each boundary with its neighbours on both sides.
func expEdges() []float64 {
	const invLn2 = 1.44269504088896338700e+00
	xs := []float64{
		0, math.Copysign(0, -1),
		5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
		math.SmallestNonzeroFloat64 * 12345, -math.SmallestNonzeroFloat64 * 12345,
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64,
		709.782712893384, -745.1332191019412,
		709.78, 709.7827128933839, -745.13, -708.3964185322641, -708.4,
		1e-300, -1e-300, 1, -1, 0.5, -0.5,
	}
	for _, th := range []float64{709.782712893384, -745.1332191019412} {
		lo, hi := th, th
		for i := 0; i < 8; i++ {
			lo = math.Nextafter(lo, math.Inf(-1))
			hi = math.Nextafter(hi, math.Inf(1))
			xs = append(xs, lo, hi)
		}
	}
	for k := -1080.0; k <= 1025; k++ {
		if k > -1019 && k < 1021 {
			continue
		}
		// k*invLn2 + 0.5 crosses the integer k at x = (k-0.5)/invLn2, and
		// k*ln2 is the middle of k's interval.
		for _, x0 := range []float64{(k - 0.5) / invLn2, k * Ln2} {
			lo, hi := x0, x0
			xs = append(xs, x0)
			for i := 0; i < 64; i++ {
				lo = math.Nextafter(lo, math.Inf(-1))
				hi = math.Nextafter(hi, math.Inf(1))
				xs = append(xs, lo, hi)
			}
		}
	}
	return xs
}

func TestExpMatchesListingEdges(t *testing.T) {
	for _, x := range expEdges() {
		checkExp(t, x)
	}
}

// A dense grid over [-746, 710], past both thresholds, plus random bit
// patterns over the whole double range.
func TestExpMatchesListingGrid(t *testing.T) {
	const n = 1 << 22
	const lo, hi = -746.0, 710.0
	for i := 0; i <= n; i++ {
		checkExp(t, lo+(hi-lo)*float64(i)/n)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<20; i++ {
		checkExp(t, math.Float64frombits(r.Uint64()))
		checkExp(t, lo+(hi-lo)*r.Float64())
	}
}

// FuzzExpOracle checks Exp against its listing everywhere and, over its
// finite range, against the math/big bound of exp_oracle_test.go.
func FuzzExpOracle(f *testing.F) {
	for _, x := range expEdges() {
		f.Add(x)
	}
	for _, x := range expBoundEdges() {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		checkExp(t, x)
		if x >= -746 && x <= 710 {
			checkExpBound(t, x)
		}
	})
}
