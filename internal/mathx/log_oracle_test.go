package mathx

// An independent accuracy bound for Log: ln x evaluated in math/big
// (bigLog), against which Log must stay within logBoundULP over a dense
// grid of its whole finite domain, the subnormals, the binade edges and
// the seams of Log's own reduction, and random arguments.

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// logBoundULP is Log's stated error bound (DESIGN §5), in units in the
// last place of the true ln x. The largest error measured is 2.59 ulp,
// at x ≈ 0.7056, just below 2^(-1/2): there ln x = −ln2 + ln(2x) cancels
// to −0.349, and the roundings of both terms (each half an ulp of a
// result twice as large) add up. The first term Log's series omits,
// 2s^23/23, is below 0.01 ulp.
const logBoundULP = 3.0

// bigAtanh returns atanh(s) for |s| <= 1/3 by its Taylor series
// s + s^3/3 + s^5/5 + ..., at 64 guard bits.
func bigAtanh(s *big.Float) *big.Float {
	const prec = bigPrec + 64
	s2 := new(big.Float).SetPrec(prec).Mul(s, s)
	term := new(big.Float).SetPrec(prec).Set(s) // s^(2n+1)
	sum := new(big.Float).SetPrec(prec).Set(s)
	for n := int64(1); ; n++ {
		term.Mul(term, s2)
		t := new(big.Float).SetPrec(prec).Quo(term, new(big.Float).SetInt64(2*n+1))
		if t.Sign() == 0 || t.MantExp(nil) < sum.MantExp(nil)-prec-8 {
			return sum
		}
		sum.Add(sum, t)
	}
}

// bigLn2 is ln 2 = 2 atanh(1/3).
var bigLn2 = func() *big.Float {
	third := new(big.Float).SetPrec(bigPrec+64).Quo(bigInt(1), bigInt(3))
	a := bigAtanh(third)
	return a.Add(a, a)
}()

// bigLog returns ln x for x > 0: x = m·2^e with m in [1, 2), split
// exactly, and ln x = e·ln2 + 2 atanh((m − 1)/(m + 1)), where
// 0 <= (m − 1)/(m + 1) < 1/3; ln 2^e is e·ln2 exactly, and ln 1 is 0.
// (Log splits at 2^(±1/2) instead.)
func bigLog(x *big.Float) *big.Float {
	const prec = bigPrec + 64
	m := new(big.Float).SetPrec(prec)
	e := x.MantExp(m) - 1
	m.SetMantExp(m, 1)
	num := new(big.Float).SetPrec(prec).Sub(m, bigInt(1))
	den := new(big.Float).SetPrec(prec).Add(m, bigInt(1))
	l := bigAtanh(num.Quo(num, den))
	l.Add(l, l)
	el := new(big.Float).SetPrec(prec).Mul(new(big.Float).SetInt64(int64(e)), bigLn2)
	return new(big.Float).SetPrec(bigPrec).Add(l, el)
}

// checkLogBound asserts Log(x) is within logBoundULP of ln x.
func checkLogBound(t *testing.T, x float64) float64 {
	t.Helper()
	got := Log(x)
	want := bigLog(bigF(x))
	e := ulpErr(got, want)
	if !(e <= logBoundULP) {
		t.Errorf("Log(%v) [%#016x] = %.17g: %.3g ulp from ln x = %s, bound %g",
			x, math.Float64bits(x), got, e, want.Text('g', 20), logBoundULP)
	}
	return e
}

// logBoundEdges are the subnormals (the smallest eight, 2^-1074·12345
// and the largest), every power of two from 2^-1074 to 2^1023 and every
// 2^(k+1/2), where Log's reduction changes exponent, each with four
// neighbours either side, the largest double, and the doubles around 1,
// where ln x is nearly 0.
func logBoundEdges() []float64 {
	xs := []float64{math.MaxFloat64, 12345 * 5e-324, math.Float64frombits(1<<52 - 1)}
	for i := uint64(1); i <= 8; i++ {
		xs = append(xs, math.Float64frombits(i))
	}
	for k := -1074; k <= 1023; k++ {
		for _, x0 := range []float64{math.Ldexp(1, k), math.Ldexp(math.Sqrt2, k)} {
			if math.IsInf(x0, 0) || x0 == 0 {
				continue
			}
			lo, hi := x0, x0
			xs = append(xs, x0)
			for i := 0; i < 4; i++ {
				lo = math.Nextafter(lo, 0)
				hi = math.Nextafter(hi, math.Inf(1))
				xs = append(xs, hi)
				if lo > 0 {
					xs = append(xs, lo)
				}
			}
		}
	}
	lo, hi := 1.0, 1.0
	for i := 0; i < 64; i++ {
		lo = math.Nextafter(lo, 0)
		hi = math.Nextafter(hi, 2)
		xs = append(xs, lo, hi)
	}
	return xs
}

func TestLogWithinBound(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	var worst float64
	// Log-uniform over the whole finite domain, and linear over [1/4, 4].
	for i := 0; i < n; i++ {
		u := float64(i) / float64(n)
		worst = max(worst, checkLogBound(t, math.Ldexp(1+u, int(-1074+2098*u))))
		worst = max(worst, checkLogBound(t, 0.25+3.75*u))
	}
	r := rand.New(rand.NewSource(19))
	for i := 0; i < n/2; i++ {
		worst = max(worst, checkLogBound(t, math.Ldexp(1+r.Float64(), r.Intn(2098)-1074)))
		// The finance range: moneyness ratios and uniforms in (0, 1).
		worst = max(worst, checkLogBound(t, 0.2+4.8*r.Float64()))
		worst = max(worst, checkLogBound(t, r.Float64()+0x1p-54))
	}
	for _, x := range logBoundEdges() {
		worst = max(worst, checkLogBound(t, x))
	}
	t.Logf("max %.3f ulp", worst)
}

// The oracle itself: e^(ln x) = x to far beyond double precision.
func TestBigLogInvertsBigExp(t *testing.T) {
	for _, x := range []float64{5e-324, 1e-300, 0.3, 1 - 0x1p-53, 1, 1.5, math.Sqrt2, 100, 1e300} {
		y := bigExp(bigLog(bigF(x)))
		d := new(big.Float).Sub(y, bigF(x))
		if d.Sign() != 0 && d.MantExp(nil) > bigF(x).MantExp(nil)-150 {
			t.Errorf("bigExp(bigLog(%v)) = %s", x, y.Text('g', 50))
		}
	}
}

// FuzzLogOracle checks Log against bigLog over its finite domain.
func FuzzLogOracle(f *testing.F) {
	for _, x := range []float64{5e-324, 1e-300, 0.5, 1, math.Sqrt2, 2, 1e300, math.MaxFloat64} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if !(x > 0 && x <= math.MaxFloat64) {
			return
		}
		checkLogBound(t, x)
	})
}
