package mathx

// An independent accuracy bound for Erf and Erfc: erf(x) = 2Φ(x√2) − 1
// and erfc(x) = 2Q(x√2), with Φ and Q = 1 − Φ from the math/big normal
// CDF of invcnd_oracle_test.go. Erf and Erfc must stay within their
// stated bounds over a dense grid, every seam of Erf's table and of
// Erfc's ranges with a few doubles either side, tiny and subnormal
// arguments, ±6 and Erfc's underflow edge, and random arguments.

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// erfBoundULP is Erf's stated error bound (DESIGN §5), in units in the
// last place of the true erf(x): 2⁻⁵³ absolute where |erf(x)| is in
// [½, 1), relative below. The largest error measured is 0.81 ulp, in the
// table's first intervals above 1/8, where t·q is a third of the result.
const erfBoundULP = 1.0

// erfcBoundULP is Erfc's stated error bound (DESIGN §5), in units in the
// last place of the true erfc(x) (2⁻¹⁰⁷⁴ where it is subnormal, the edge
// past x ≈ 26.55 where e^(a+b) and its quotient by x each round on the
// subnormal grid). The largest error measured is 2.24 ulp, on [0.84375,
// 1.25), where the port keeps FreeBSD's rational P1/Q1 (the standard
// library's erfc measures the same there), 2.08 ulp on [1/4, 0.84375)
// and 1.53 ulp or less in the exponential tail.
const erfcBoundULP = 2.5

var bigSqrt2 = new(big.Float).SetPrec(bigPrec).Sqrt(bigInt(2))

// bigErf returns erf(x) = 2(Φ(x√2) − ½), from bigPhiCentre where
// |x√2| <= 9 (it keeps the relative precision of tiny x), and
// ±(1 − 2Q(|x|√2)) beyond.
func bigErf(x *big.Float) *big.Float {
	y := new(big.Float).SetPrec(bigPrec).Mul(x, bigSqrt2)
	if new(big.Float).Abs(y).Cmp(bigF(9)) <= 0 {
		c := bigPhiCentre(y)
		return c.Add(c, c)
	}
	q := bigTail(new(big.Float).Abs(y), bigCFDepth)
	q.Sub(bigInt(1), q.Add(q, q))
	if y.Sign() < 0 {
		q.Neg(q)
	}
	return q
}

// bigErfc returns erfc(x) = 2Q(x√2): by the continued fraction where
// x√2 > 9, so the tail keeps its relative precision down to the
// underflow edge, and as 1 − erf(x) elsewhere (at x√2 = 9, erfc is
// 2e-19, and the subtraction keeps over 120 of bigPrec's bits).
func bigErfc(x *big.Float) *big.Float {
	y := new(big.Float).SetPrec(bigPrec).Mul(x, bigSqrt2)
	if y.Cmp(bigF(9)) > 0 {
		q := bigTail(y, bigCFDepth)
		return q.Add(q, q)
	}
	e := bigErf(x)
	return e.Sub(bigInt(1), e)
}

// checkErfBound asserts Erf(x) is within erfBoundULP of erf(x).
func checkErfBound(t *testing.T, x float64) float64 {
	t.Helper()
	got := Erf(x)
	want := bigErf(bigF(x))
	e := ulpErr(got, want)
	if !(e <= erfBoundULP) {
		t.Errorf("Erf(%v) [%#016x] = %.17g: %.3g ulp from erf(x) = %s, bound %g",
			x, math.Float64bits(x), got, e, want.Text('g', 20), erfBoundULP)
	}
	return e
}

// checkErfcBound asserts Erfc(x) is within erfcBoundULP of erfc(x).
func checkErfcBound(t *testing.T, x float64) float64 {
	t.Helper()
	got := Erfc(x)
	want := bigErfc(bigF(x))
	e := ulpErr(got, want)
	if !(e <= erfcBoundULP) {
		t.Errorf("Erfc(%v) [%#016x] = %.17g: %.3g ulp from erfc(x) = %s, bound %g",
			x, math.Float64bits(x), got, e, want.Text('g', 20), erfcBoundULP)
	}
	return e
}

// around appends x0 and n doubles either side of it.
func around(xs []float64, x0 float64, n int) []float64 {
	lo, hi := x0, x0
	xs = append(xs, x0)
	for i := 0; i < n; i++ {
		lo = math.Nextafter(lo, math.Inf(-1))
		hi = math.Nextafter(hi, math.Inf(1))
		xs = append(xs, lo, hi)
	}
	return xs
}

// erfEdges are Erf's and Erfc's edges, each with 4 doubles either side
// and both signs: every seam j/16 of Erf's table (j = 1..96, among them
// the series' end at 1/8 and the cut at 6); Erfc's seams 2⁻⁵⁶, ¼,
// 0.84375, 1.25, 1/0.35 and 28; x ≈ 26.55, where erfc(x) leaves the
// normal doubles, and 27.2–27.3, where it rounds to 0; zero, the
// subnormals and tiny powers of two.
func erfEdges() []float64 {
	var pos []float64
	for j := 1; j <= 96; j++ {
		pos = around(pos, float64(j)/16, 4)
	}
	for _, x0 := range []float64{0x1p-56, 0.25, 0.84375, 1.25, 1 / 0.35, 28, 26.55, 26.6, 27.2, 27.25, 27.3} {
		pos = around(pos, x0, 4)
	}
	for i := uint64(1); i <= 4; i++ {
		pos = append(pos, math.Float64frombits(i))
	}
	pos = append(pos, 12345*5e-324, math.Float64frombits(1<<52-1), 0x1p-1022)
	for k := -1074; k <= -3; k += 7 {
		pos = append(pos, math.Ldexp(1, k), math.Ldexp(1.37, k))
	}
	xs := []float64{0, math.Copysign(0, -1)}
	for _, x := range pos {
		xs = append(xs, x, -x)
	}
	return xs
}

func TestErfWithinBound(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	var worst float64
	for i := 0; i <= n; i++ {
		worst = max(worst, checkErfBound(t, -6.5+13*float64(i)/float64(n)))
	}
	r := rand.New(rand.NewSource(23))
	for i := 0; i < n/2; i++ {
		worst = max(worst, checkErfBound(t, 12*r.Float64()-6))
		// The tail's arguments, d/√2 of the Black-Scholes kernels.
		worst = max(worst, checkErfBound(t, r.NormFloat64()))
		worst = max(worst, checkErfBound(t, math.Ldexp(1+r.Float64(), -r.Intn(1075))))
	}
	for _, x := range erfEdges() {
		worst = max(worst, checkErfBound(t, x))
	}
	t.Logf("max %.3f ulp", worst)
}

func TestErfcWithinBound(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	var worst float64
	for i := 0; i <= n; i++ {
		worst = max(worst, checkErfcBound(t, -6.5+35*float64(i)/float64(n)))
	}
	r := rand.New(rand.NewSource(29))
	for i := 0; i < n/2; i++ {
		worst = max(worst, checkErfcBound(t, 35*r.Float64()-6.5))
		// CND's arguments, −d/√2 of the closed form and the Greeks.
		worst = max(worst, checkErfcBound(t, 2*r.NormFloat64()))
	}
	for _, x := range erfEdges() {
		worst = max(worst, checkErfcBound(t, x))
	}
	t.Logf("max %.3f ulp", worst)
}

// The oracle itself: erf and erfc add to 1 on both sides of each
// branch (TestBigPhiSeriesMeetsFraction checks that the series and the
// continued fraction they use meet).
func TestBigErfOracle(t *testing.T) {
	for _, x := range []float64{-30, -7, -1, -1e-300, 0.3, 1, 6, 6.3639, 6.364, 27} {
		s := new(big.Float).Add(bigErf(bigF(x)), bigErfc(bigF(x)))
		d := s.Sub(s, bigInt(1))
		if d.Sign() != 0 && d.MantExp(nil) > -150 {
			t.Errorf("erf + erfc - 1 = %s at %v", d.Text('g', 10), x)
		}
	}
}

// bigErfTaylor returns the Taylor coefficients a_0..a_d of erf at c:
// a_0 = erf(c) and a_n = (2/√π)·(−1)ⁿ⁻¹·Hₙ₋₁(c)·e^(−c²)/n!, with the
// physicists' Hermite polynomials H₀ = 1, H₁ = 2c, Hₙ₊₁ = 2c·Hₙ − 2n·Hₙ₋₁.
func bigErfTaylor(c *big.Float, d int) []*big.Float {
	a := []*big.Float{bigErf(c)}
	// (2/√π)·e^(−c²) = 2√2·φ(c√2).
	y := new(big.Float).SetPrec(bigPrec).Mul(c, bigSqrt2)
	g := bigPDF(y)
	g.Mul(g, bigSqrt2)
	g.Add(g, g)
	hPrev, h := bigInt(0), bigInt(1)
	fact := bigInt(1)
	for n := 1; n <= d; n++ {
		fact.Mul(fact, bigInt(int64(n)))
		v := new(big.Float).SetPrec(bigPrec).Mul(g, h)
		v.Quo(v, fact)
		if n%2 == 0 {
			v.Neg(v)
		}
		a = append(a, v)
		next := new(big.Float).SetPrec(bigPrec).Mul(c, h)
		next.Add(next, next)
		next.Sub(next, new(big.Float).SetPrec(bigPrec).Mul(hPrev, bigInt(int64(2*(n-1)))))
		hPrev, h = h, next
	}
	return a
}

// TestErfTable recomputes erfTable and erfSeries in math/big: each
// interval's Taylor coefficients at its centre and the low part of
// erf(c), and the series' coefficients.
func TestErfTable(t *testing.T) {
	for i, row := range erfTable {
		c := bigF((float64(i+2) + 0.5) / 16)
		a := bigErfTaylor(c, len(row)-2)
		want := make([]float64, len(row))
		for n, v := range a {
			want[n], _ = v.Float64()
		}
		want[len(row)-1], _ = new(big.Float).SetPrec(bigPrec).Sub(a[0], bigF(want[0])).Float64()
		for n := range row {
			if !sameBits(row[n], want[n]) {
				t.Errorf("erfTable[%d][%d] = %x, want %x", i, n, row[n], want[n])
			}
		}
	}
	// 2/√π = 2√2·φ(0).
	twoInvSqrtPi := new(big.Float).SetPrec(bigPrec).Mul(bigSqrt2, bigInvSqrt2Pi)
	twoInvSqrtPi.Add(twoInvSqrtPi, twoInvSqrtPi)
	fact := bigInt(1)
	for k := range erfSeries {
		if k > 0 {
			fact.Mul(fact, bigInt(int64(k)))
		}
		v := new(big.Float).SetPrec(bigPrec).Quo(twoInvSqrtPi, fact)
		v.Quo(v, bigInt(int64(2*k+1)))
		if k%2 == 1 {
			v.Neg(v)
		}
		if k == 0 {
			v.Sub(v, bigInt(1))
		}
		if w, _ := v.Float64(); !sameBits(erfSeries[k], w) {
			t.Errorf("erfSeries[%d] = %x, want %x", k, erfSeries[k], w)
		}
	}
}

// FuzzErfOracle checks Erf and Erfc against their math/big bounds, and
// their values at NaN and the infinities.
func FuzzErfOracle(f *testing.F) {
	for _, x := range erfEdges() {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		switch {
		case math.IsNaN(x):
			if !math.IsNaN(Erf(x)) || !math.IsNaN(Erfc(x)) {
				t.Fatalf("Erf(NaN) = %v, Erfc(NaN) = %v", Erf(x), Erfc(x))
			}
		case math.IsInf(x, 0):
			if Erf(x) != math.Copysign(1, x) || Erfc(x) != 1-math.Copysign(1, x) {
				t.Fatalf("Erf(%v) = %v, Erfc(%v) = %v", x, Erf(x), x, Erfc(x))
			}
		default:
			checkErfBound(t, x)
			checkErfcBound(t, x)
		}
	})
}
