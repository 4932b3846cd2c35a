package mathx

// An independent accuracy bound for Exp: e^x evaluated in math/big
// (bigExp, invcnd_oracle_test.go), against which Exp must stay within
// expBoundULP over a dense grid of its finite range, random arguments,
// and the overflow and underflow edges.

import (
	"math"
	"math/rand"
	"testing"
)

// expBoundULP is Exp's stated error bound (DESIGN §5), in units in the
// last place of the true e^x (2^-1074 where e^x is subnormal). The
// largest error measured is 0.76 ulp, where the result is subnormal and
// rounds twice, over a 2,000,001-point grid of [-745, 710] and
// 2,000,000 random arguments; this test's sample peaks at 0.734.
const expBoundULP = 1.5

// checkExpBound asserts Exp(x) is within expBoundULP of e^x, and +Inf
// exactly where e^x rounds past the largest double.
func checkExpBound(t *testing.T, x float64) float64 {
	t.Helper()
	got := Exp(x)
	want := bigExp(bigF(x))
	if w, _ := want.Float64(); math.IsInf(w, 1) {
		if !math.IsInf(got, 1) {
			t.Errorf("Exp(%v) [%#016x] = %v, want +Inf", x, math.Float64bits(x), got)
		}
		return 0
	}
	e := ulpErr(got, want)
	if !(e <= expBoundULP) {
		t.Errorf("Exp(%v) [%#016x] = %.17g: %.3g ulp from e^x = %s, bound %g",
			x, math.Float64bits(x), got, e, want.Text('g', 20), expBoundULP)
	}
	return e
}

// expBoundEdges are the arguments where Exp's range ends: both
// thresholds and ln of the largest double with their neighbours, the
// start of the subnormal results near -708.4, zero and tiny arguments.
func expBoundEdges() []float64 {
	xs := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-300, -1e-300, 0x1p-30, -0x1p-30}
	for _, x0 := range []float64{709.782712893384, 709.782712893383973, -745.1332191019412, -708.3964185322641, -744.44007192138122} {
		lo, hi := x0, x0
		xs = append(xs, x0)
		for i := 0; i < 16; i++ {
			lo = math.Nextafter(lo, math.Inf(-1))
			hi = math.Nextafter(hi, math.Inf(1))
			xs = append(xs, lo, hi)
		}
	}
	return xs
}

func TestExpWithinBound(t *testing.T) {
	n := 40000
	if testing.Short() {
		n = 4000
	}
	const lo, hi = -745.0, 710.0
	var worst float64
	for i := 0; i <= n; i++ {
		worst = max(worst, checkExpBound(t, lo+(hi-lo)*float64(i)/float64(n)))
	}
	r := rand.New(rand.NewSource(17))
	for i := 0; i < n/2; i++ {
		worst = max(worst, checkExpBound(t, lo+(hi-lo)*r.Float64()))
		// The finance range, where the kernels' exponents live.
		worst = max(worst, checkExpBound(t, 40*r.Float64()-20))
	}
	for _, x := range expBoundEdges() {
		worst = max(worst, checkExpBound(t, x))
	}
	t.Logf("max %.3f ulp", worst)
}
