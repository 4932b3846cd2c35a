// Package mathx implements the special functions that the paper's kernels
// obtain from the Intel Short Vector Math Library (SVML) and Vector Math
// Library (VML): exp, log, erf/erfc, the cumulative normal distribution
// (cnd) and its inverse.
//
// Everything is implemented from scratch (argument reduction + polynomial /
// series / continued-fraction evaluation) and validated against the Go
// standard library to tight tolerances (see mathx_test.go). Two call styles
// mirror the two Intel libraries:
//
//   - SVML style: per-value scalar functions (Exp, Log, Erf, CND, InvCND)
//     that internal/vec applies lane-by-lane inside a vector "instruction".
//   - VML style: batch array functions (ExpArray, CNDArray, ...) that
//     process whole buffers, as used by the advanced Black-Scholes variant.
//
// The paper (Sec. IV-A2) replaces cnd with erf via
// cnd(x) = (1 + erf(x/sqrt2))/2 because erf is cheaper; both forms are
// provided so kernels can express exactly that substitution.
package mathx // finlint:hot — allocation-free loops enforced by internal/lint

import "math"

// Mathematical constants used throughout the derivative-pricing kernels.
const (
	// InvSqrt2 is 1/sqrt(2).
	InvSqrt2 = 0.7071067811865475244008443621048490
	// Sqrt2Pi is sqrt(2*pi).
	Sqrt2Pi = 2.5066282746310005024157652848110453
	// InvSqrt2Pi is 1/sqrt(2*pi).
	InvSqrt2Pi = 0.3989422804014326779399460599343819
	// Ln2 is ln(2).
	Ln2 = 0.6931471805599453094172321214581766
)

// Exp returns e**x, computed from scratch with Cody-Waite argument
// reduction (x = k*ln2 + r, |r| <= ln2/2) and a degree-13 Taylor polynomial
// for exp(r). Maximum observed error is below 1 ulp relative to math.Exp
// over the finance-relevant range (see TestExpAccuracy).
//
// The polynomial is scaled by 2^k. Where 2^k is a normal double the
// scale is built from its exponent bits and applied as one multiply,
// which is exact for a normal product and rounds a subnormal one once,
// as math.Ldexp does; Ldexp remains only for the k at the range edges.
func Exp(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x > 709.782712893384:
		return math.Inf(1)
	case x < -745.1332191019412:
		return 0
	}
	// Cody-Waite split of ln2 keeps the reduction exact in double precision.
	const (
		ln2Hi  = 6.93147180369123816490e-01
		ln2Lo  = 1.90821492927058770002e-10
		invLn2 = 1.44269504088896338700e+00
	)
	k := math.Floor(x*invLn2 + 0.5)
	r := (x - k*ln2Hi) - k*ln2Lo
	// exp(r) by Taylor series; |r| <= 0.3466 so 13 terms reach < 1e-17.
	p := 1.0 + r*(1.0+r*(1.0/2+r*(1.0/6+r*(1.0/24+r*(1.0/120+r*(1.0/720+
		r*(1.0/5040+r*(1.0/40320+r*(1.0/362880+r*(1.0/3628800+
			r*(1.0/39916800+r*(1.0/479001600+r/6227020800))))))))))))
	ki := int(k)
	if ki >= -1022 && ki <= 1023 {
		return p * math.Float64frombits(uint64(ki+1023)<<52)
	}
	return math.Ldexp(p, ki)
}

// Log returns the natural logarithm of x, computed from scratch: x is
// decomposed as m*2^e with m in [sqrt(1/2), sqrt(2)), and log(m) is
// evaluated via the atanh series 2*(s + s^3/3 + s^5/5 + ...) with
// s = (m-1)/(m+1), |s| <= 0.1716.
func Log(x float64) float64 {
	switch {
	case math.IsNaN(x) || x < 0:
		return math.NaN()
	case x == 0: // finlint:ignore floateq IEEE special case: log(+-0) = -Inf exactly
		return math.Inf(-1)
	case math.IsInf(x, 1):
		return x
	}
	m, e := math.Frexp(x) // m in [0.5, 1)
	if m < InvSqrt2 {
		m *= 2
		e--
	}
	s := (m - 1) / (m + 1)
	s2 := s * s
	// 2*atanh(s): odd series; |s|<=0.1716 so s^25 term < 1e-20.
	p := 2 * s * (1 + s2*(1.0/3+s2*(1.0/5+s2*(1.0/7+s2*(1.0/9+s2*(1.0/11+
		s2*(1.0/13+s2*(1.0/15+s2/17))))))))
	return float64(e)*Ln2 + p
}

// Sqrt returns the square root of x via hardware sqrt (Go compiles this to
// a single instruction; both modelled machines also have hardware support).
func Sqrt(x float64) float64 { return math.Sqrt(x) }

// Erf returns the error function of x. It delegates to the standard
// library's Cody-style rational minimax implementation, which is the
// software equivalent of the SVML erf kernel the paper's optimized
// Black-Scholes calls (Sec. IV-A2); reimplementing those 40-year-old
// minimax coefficient tables would add risk without adding fidelity.
func Erf(x float64) float64 { return math.Erf(x) }

// Erfc returns the complementary error function 1-erf(x) with full relative
// accuracy in the positive tail (stdlib Cody-style implementation).
func Erfc(x float64) float64 { return math.Erfc(x) }

// CND returns the standard cumulative normal distribution function
// Phi(x) = P(Z <= x), computed as erfc(-x/sqrt2)/2 for tail accuracy.
// This is the cnd() of the paper's reference Black-Scholes code (Lis. 1).
func CND(x float64) float64 {
	return 0.5 * Erfc(-x*InvSqrt2)
}

// PDF returns the standard normal density phi(x).
func PDF(x float64) float64 {
	return InvSqrt2Pi * Exp(-0.5*x*x)
}

// Acklam's rational approximations for the inverse normal CDF.
var (
	acklamA = [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
	}
	acklamB = [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01,
	}
	acklamC = [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
	}
	acklamD = [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00,
	}
)

// InvCND returns the inverse of the standard normal CDF (the quantile
// function), using Acklam's rational approximation refined by one Halley
// step, giving near machine precision. It is the transform the RNG
// substrate applies to turn uniform variates into normal variates
// (MKL's ICDF method, used for Table II's normally-distributed RNG rates).
func InvCND(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0: // finlint:ignore floateq exact domain endpoint: InvCND(0) = -Inf
		return math.Inf(-1)
	case p == 1: // finlint:ignore floateq exact domain endpoint: InvCND(1) = +Inf
		return math.Inf(1)
	}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * Log(p))
		x = (((((acklamC[0]*q+acklamC[1])*q+acklamC[2])*q+acklamC[3])*q+acklamC[4])*q + acklamC[5]) /
			((((acklamD[0]*q+acklamD[1])*q+acklamD[2])*q+acklamD[3])*q + 1)
	case p > 1-pLow:
		q := math.Sqrt(-2 * Log(1-p))
		x = -(((((acklamC[0]*q+acklamC[1])*q+acklamC[2])*q+acklamC[3])*q+acklamC[4])*q + acklamC[5]) /
			((((acklamD[0]*q+acklamD[1])*q+acklamD[2])*q+acklamD[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		x = (((((acklamA[0]*r+acklamA[1])*r+acklamA[2])*r+acklamA[3])*r+acklamA[4])*r + acklamA[5]) * q /
			(((((acklamB[0]*r+acklamB[1])*r+acklamB[2])*r+acklamB[3])*r+acklamB[4])*r + 1)
	}
	// One Halley refinement against the forward CDF.
	e := CND(x) - p
	u := e * Sqrt2Pi * Exp(0.5*x*x)
	return x - u/(1+x*u/2)
}
