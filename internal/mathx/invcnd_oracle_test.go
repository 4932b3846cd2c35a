package mathx

// An independent accuracy authority for InvCND: the standard normal CDF
// evaluated in math/big, and the true quantile of a float64 p found from
// it by Newton's method. InvCND must be within invCNDBoundULP of that
// quantile over the served domain of the RNG substrate, over log-spaced
// tails down to 1e-300, and at the seams between its three rationals.

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// invCNDBoundULP is InvCND's stated error bound (DESIGN §5), in units in
// the last place of the true quantile. The largest error measured is
// 5.95 ulp, in the far lower tail; over the served domain it is 5.85 ulp,
// at |x| just below 1/2, where the ulp halves.
const invCNDBoundULP = 8.0

// bigPrec is the working precision of the oracle, in bits. The series
// for Phi loses about 63 bits to cancellation at x = -9, where Phi is
// 1e-19 against the 1/2 it is summed with, which leaves over 120; the
// exponential squares at 64 guard bits.
const bigPrec = 192

func bigF(x float64) *big.Float { return new(big.Float).SetPrec(bigPrec).SetFloat64(x) }

func bigInt(n int64) *big.Float { return new(big.Float).SetPrec(bigPrec).SetInt64(n) }

// bigAtanInv returns atan(1/n) by its alternating Taylor series.
func bigAtanInv(n int64) *big.Float {
	nn := bigInt(n * n)
	term := new(big.Float).SetPrec(bigPrec).Quo(bigInt(1), bigInt(n)) // 1/n^(2k+1)
	sum := new(big.Float).SetPrec(bigPrec).Set(term)
	for k := int64(1); ; k++ {
		term.Quo(term, nn)
		t := new(big.Float).SetPrec(bigPrec).Quo(term, bigInt(2*k+1))
		if t.Sign() == 0 || t.MantExp(nil) < sum.MantExp(nil)-bigPrec-8 {
			return sum
		}
		if k%2 == 1 {
			sum.Sub(sum, t)
		} else {
			sum.Add(sum, t)
		}
	}
}

// bigInvSqrt2Pi is 1/sqrt(2*pi), with pi from Machin's formula
// pi = 16 atan(1/5) - 4 atan(1/239).
var bigInvSqrt2Pi = func() *big.Float {
	pi := new(big.Float).SetPrec(bigPrec).Mul(bigInt(16), bigAtanInv(5))
	pi.Sub(pi, new(big.Float).SetPrec(bigPrec).Mul(bigInt(4), bigAtanInv(239)))
	s := new(big.Float).SetPrec(bigPrec).Sqrt(pi.Mul(pi, bigInt(2)))
	return s.Quo(bigInt(1), s)
}()

// bigExp returns e^x: x is halved k times to below 2^-8 in magnitude,
// e^(x/2^k) is summed by Taylor series at 64 guard bits, and the sum is
// squared k times.
func bigExp(x *big.Float) *big.Float {
	const prec = bigPrec + 64
	k := max(0, x.MantExp(nil)+8)
	y := new(big.Float).SetPrec(prec).SetMantExp(x, -k)
	sum := new(big.Float).SetPrec(prec).SetInt64(1)
	term := new(big.Float).SetPrec(prec).SetInt64(1)
	for n := int64(1); ; n++ {
		term.Mul(term, y)
		term.Quo(term, new(big.Float).SetInt64(n))
		if term.Sign() == 0 || term.MantExp(nil) < sum.MantExp(nil)-prec-8 {
			break
		}
		sum.Add(sum, term)
	}
	for ; k > 0; k-- {
		sum.Mul(sum, sum)
	}
	return new(big.Float).SetPrec(bigPrec).Set(sum)
}

// bigPDF returns phi(x) = e^(-x^2/2) / sqrt(2 pi).
func bigPDF(x *big.Float) *big.Float {
	e := new(big.Float).SetPrec(bigPrec).Mul(x, x)
	e.Quo(e, bigInt(-2))
	return e.Mul(bigExp(e), bigInvSqrt2Pi)
}

// bigPhi returns the standard normal CDF. For |x| <= 9 it is 1/2 plus
// bigPhiCentre; beyond, it evaluates the upper tail Q(a) = phi(a) / (a +
// 1/(a + 2/(a + 3/(a + ...)))) of a = |x| by Laplace's continued
// fraction, truncated at depth bigCFDepth.
func bigPhi(x *big.Float) *big.Float {
	a := new(big.Float).Abs(x)
	if a.Cmp(bigF(9)) <= 0 {
		c := bigPhiCentre(x)
		return c.Add(c, bigF(0.5))
	}
	q := bigTail(a, bigCFDepth)
	if x.Sign() < 0 {
		return q
	}
	return q.Sub(bigInt(1), q)
}

// bigPhiCentre returns Phi(x) - 1/2 for |x| <= 9 by the series
// phi(x) * sum_n x^(2n+1)/(2n+1)!!, whose terms all share x's sign, so
// it keeps its relative precision however small x is.
func bigPhiCentre(x *big.Float) *big.Float {
	x2 := new(big.Float).SetPrec(bigPrec).Mul(x, x)
	term := new(big.Float).SetPrec(bigPrec).Set(x)
	sum := new(big.Float).SetPrec(bigPrec).Set(x)
	for n := int64(1); term.Sign() != 0; n++ {
		term.Mul(term, x2)
		term.Quo(term, bigInt(2*n+1))
		sum.Add(sum, term)
		if n > 20 && term.MantExp(nil) < sum.MantExp(nil)-bigPrec-8 {
			break
		}
	}
	return sum.Mul(sum, bigPDF(x))
}

// bigCFDepth is the continued fraction's depth; at a >= 9 it is far past
// the depth where the fraction agrees with the series to the working
// precision (TestBigPhiSeriesMeetsFraction).
const bigCFDepth = 200

// bigTail returns Q(a) for a > 0 from the continued fraction, evaluated
// bottom-up from depth n.
func bigTail(a *big.Float, n int64) *big.Float {
	d := new(big.Float).SetPrec(bigPrec).Set(a)
	for k := n; k >= 1; k-- {
		d.Quo(bigInt(k), d)
		d.Add(d, a)
	}
	return d.Quo(bigPDF(a), d)
}

// bigQuantile returns the x with Phi(x) = p exactly, for the float64 p in
// (0, 1), to far beyond double precision: Newton's method on Phi(x) - p,
// started from Abramowitz & Stegun 26.2.23 (absolute error < 4.5e-4).
// Phi(0) = 1/2 by symmetry, and Newton's method would only find 0 to
// within the working precision.
func bigQuantile(p float64) *big.Float {
	if p == 0.5 {
		return bigF(0)
	}
	t := math.Sqrt(-2 * math.Log(min(p, 1-p)))
	x0 := t - (2.515517+0.802853*t+0.010328*t*t)/(1+1.432788*t+0.189269*t*t+0.001308*t*t*t)
	if p < 0.5 {
		x0 = -x0
	}
	x := bigF(x0)
	bp := bigF(p)
	for i := 0; i < 20; i++ {
		f := bigPhi(x)
		f.Sub(f, bp)
		f.Quo(f, bigPDF(x))
		x.Sub(x, f)
		if f.Sign() == 0 || f.MantExp(nil) < x.MantExp(nil)-100 {
			return x
		}
	}
	panic("bigQuantile: Newton did not converge")
}

// ulpErr returns |got - want| in units in the last place of want as a
// double: ulp(w) = 2^(e-53) for w in [2^(e-1), 2^e), and 2^-1074 for
// every subnormal w.
func ulpErr(got float64, want *big.Float) float64 {
	d := new(big.Float).SetPrec(bigPrec).Sub(bigF(got), want)
	if want.Sign() == 0 {
		if d.Sign() == 0 {
			return 0
		}
		return math.Inf(1)
	}
	e := max(want.MantExp(nil), -1021)
	d.SetMantExp(d, 53-e)
	f, _ := d.Float64()
	return math.Abs(f)
}

func checkInvCND(t *testing.T, p float64) float64 {
	t.Helper()
	e := ulpErr(InvCND(p), bigQuantile(p))
	if !(e <= invCNDBoundULP) {
		t.Errorf("InvCND(%v) [%#016x] = %.17g: %.3g ulp from the true quantile %s, bound %g",
			p, math.Float64bits(p), InvCND(p), e, bigQuantile(p).Text('g', 20), invCNDBoundULP)
	}
	return e
}

// invCNDPoints returns the oracle grid: n evenly spaced points over the
// RNG substrate's served domain [2^-54, 1 - 2^-53] with both ends; p and
// 1 - p at 5 points a decade from 0.1 down to 1e-300 (1 - p only while
// it rounds below 1); and the seams.
func invCNDPoints(n int) []float64 {
	ps := invCNDSeams()
	for i := 0; i < n; i++ {
		ps = append(ps, (float64(i)+0.5)/float64(n))
	}
	for k := 5; k <= 300*5; k++ {
		p := math.Pow(10, -float64(k)/5)
		ps = append(ps, p)
		if 1-p < 1 {
			ps = append(ps, 1-p)
		}
	}
	return ps
}

// invCNDSeams returns both ends of the served domain and 16 doubles
// either side of each seam between InvCND's rationals: q = p - 1/2 =
// +-0.425 and r = sqrt(-log(min(p, 1-p))) = 5.
func invCNDSeams() []float64 {
	ps := []float64{0x1p-54, 1 - 0x1p-53}
	for _, seam := range []float64{0.075, 0.925, math.Exp(-25), 1 - math.Exp(-25)} {
		lo, hi := seam, seam
		ps = append(ps, seam)
		for i := 0; i < 16; i++ {
			lo = math.Nextafter(lo, 0)
			hi = math.Nextafter(hi, 1)
			ps = append(ps, lo, hi)
		}
	}
	return ps
}

func TestInvCNDWithinBound(t *testing.T) {
	n := 2048
	if testing.Short() {
		n = 256
	}
	var worst, sum float64
	ps := invCNDPoints(n)
	for _, p := range ps {
		e := checkInvCND(t, p)
		worst = max(worst, e)
		sum += e
	}
	t.Logf("%d points: max %.3f ulp, mean %.3f ulp", len(ps), worst, sum/float64(len(ps)))
}

// Random doubles uniform in (0, 1) and log-uniform in both tails.
func TestInvCNDWithinBoundRandom(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 200
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		checkInvCND(t, r.Float64()*(1-0x1p-53)+0x1p-54)
		p := math.Pow(10, -300*r.Float64())
		checkInvCND(t, p)
		if 1-p < 1 {
			checkInvCND(t, 1-p)
		}
	}
}

// The oracle itself: its series and its continued fraction must agree
// where they meet (TestInvCNDKnownValues checks it against published
// quantiles).
func TestBigPhiSeriesMeetsFraction(t *testing.T) {
	for _, a := range []float64{6, 7.5, 9} {
		x := bigF(-a)
		s := bigPhi(x)
		f := bigTail(bigF(a), bigCFDepth)
		d := new(big.Float).Sub(s, f)
		if d.Sign() != 0 && d.MantExp(nil) > s.MantExp(nil)-110 {
			t.Errorf("Phi(%g): series %s, continued fraction %s", -a, s.Text('g', 40), f.Text('g', 40))
		}
	}
}

func FuzzInvCNDOracle(f *testing.F) {
	for _, p := range invCNDSeams() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p float64) {
		if !(p > 0 && p < 1) || min(p, 1-p) < 1e-300 {
			return
		}
		checkInvCND(t, p)
	})
}
