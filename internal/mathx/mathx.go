// Package mathx implements the special functions that the paper's kernels
// obtain from the Intel Short Vector Math Library (SVML) and Vector Math
// Library (VML): exp, log, erf/erfc, the cumulative normal distribution
// (cnd) and its inverse.
//
// Exp, Log and InvCND are implemented from scratch (argument reduction +
// polynomial / series / rational evaluation); Exp and Log are validated
// against the Go standard library to tight tolerances (see mathx_test.go),
// and Exp against a math/big e^x and InvCND against a math/big quantile,
// each to a stated bound in ulps (exp_oracle_test.go,
// invcnd_oracle_test.go). Every product that feeds an add in Exp, Log
// and InvCND is written float64(a*b) + c, which the Go spec forbids
// fusing, so their bits do not depend on the target's multiply-add.
// Two call styles mirror the two Intel libraries:
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
	// InvSqrt2Pi is 1/sqrt(2*pi).
	InvSqrt2Pi = 0.3989422804014326779399460599343819
	// Ln2 is ln(2).
	Ln2 = 0.6931471805599453094172321214581766
)

// Exp returns e**x, computed from scratch with Cody-Waite argument
// reduction (x = k*ln2 + r, |r| <= ln2/2) and a degree-13 Taylor polynomial
// for exp(r). Its stated bound is 1.5 ulp from the true e^x over its
// finite range, asserted against a math/big e^x (exp_oracle_test.go; the
// largest error measured is 1.154 ulp).
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
	k := math.Floor(float64(x*invLn2) + 0.5)
	r := (x - float64(k*ln2Hi)) - float64(k*ln2Lo)
	// exp(r) by Taylor series; |r| <= 0.3466 so 13 terms reach < 1e-17.
	// Horner from the inside out, every product rounded before its add.
	p := 1.0/479001600 + r/6227020800
	p = 1.0/39916800 + float64(r*p)
	p = 1.0/3628800 + float64(r*p)
	p = 1.0/362880 + float64(r*p)
	p = 1.0/40320 + float64(r*p)
	p = 1.0/5040 + float64(r*p)
	p = 1.0/720 + float64(r*p)
	p = 1.0/120 + float64(r*p)
	p = 1.0/24 + float64(r*p)
	p = 1.0/6 + float64(r*p)
	p = 1.0/2 + float64(r*p)
	p = 1.0 + float64(r*p)
	p = 1.0 + float64(r*p)
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
	// 2*atanh(s): odd series; |s|<=0.1716 so s^25 term < 1e-20. Horner
	// from the inside out, every product rounded before its add.
	ts := 2 * s
	q := 1.0/15 + s2/17
	q = 1.0/13 + float64(s2*q)
	q = 1.0/11 + float64(s2*q)
	q = 1.0/9 + float64(s2*q)
	q = 1.0/7 + float64(s2*q)
	q = 1.0/5 + float64(s2*q)
	q = 1.0/3 + float64(s2*q)
	p := float64(ts * (1 + float64(s2*q)))
	return float64(float64(e)*Ln2) + p
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

// InvCND returns the inverse of the standard normal CDF (the quantile
// function): Wichura's algorithm AS241 (PPND16, Applied Statistics 37(3),
// 1988), one rational evaluation with no refinement step. The central
// region |p - 1/2| <= 0.425 is a degree-7/7 rational in 0.180625 - q^2;
// the tails take r = sqrt(-log(min(p, 1-p))) and a degree-7/7 rational in
// r - 1.6 below r = 5, in r - 5 above it. Its stated bound is 8 ulp from
// the true quantile for min(p, 1-p) >= 1e-300, asserted against a math/big
// quantile over a dense grid, log-spaced tails and the seams (the largest
// error measured is 5.95 ulp; invcnd_oracle_test.go). Every product that
// feeds an add is written float64(a*b) + c, which the Go spec forbids
// fusing, and nothing it calls switches on CPU features or fuses, so its
// bits are the same on every amd64 and arm64 CPU. It is the transform the RNG substrate applies to turn uniform
// variates into normal variates (MKL's ICDF method, used for Table II's
// normally-distributed RNG rates).
func InvCND(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0: // finlint:ignore floateq exact domain endpoint: InvCND(0) = -Inf
		return math.Inf(-1)
	case p == 1: // finlint:ignore floateq exact domain endpoint: InvCND(1) = +Inf
		return math.Inf(1)
	}
	q := p - 0.5
	if math.Abs(q) <= 0.425 {
		r := 0.180625 - float64(q*q)
		num := float64(2509.0809287301226727*r) + 33430.575583588128105
		num = float64(num*r) + 67265.770927008700853
		num = float64(num*r) + 45921.953931549871457
		num = float64(num*r) + 13731.693765509461125
		num = float64(num*r) + 1971.5909503065514427
		num = float64(num*r) + 133.14166789178437745
		num = float64(num*r) + 3.387132872796366608
		den := float64(5226.495278852854561*r) + 28729.085735721942674
		den = float64(den*r) + 39307.89580009271061
		den = float64(den*r) + 21213.794301586595867
		den = float64(den*r) + 5394.1960214247511077
		den = float64(den*r) + 687.1870074920579083
		den = float64(den*r) + 42.313330701600911252
		den = float64(den*r) + 1
		return q * num / den
	}
	r := p
	if q > 0 {
		r = 1 - p // exact for p >= 1/2
	}
	r = Sqrt(-Log(r))
	var num, den float64
	if r <= 5 {
		r -= 1.6
		num = float64(7.7454501427834140764e-4*r) + 0.0227238449892691845833
		num = float64(num*r) + 0.24178072517745061177
		num = float64(num*r) + 1.27045825245236838258
		num = float64(num*r) + 3.64784832476320460504
		num = float64(num*r) + 5.7694972214606914055
		num = float64(num*r) + 4.6303378461565452959
		num = float64(num*r) + 1.42343711074968357734
		den = float64(1.05075007164441684324e-9*r) + 5.475938084995344946e-4
		den = float64(den*r) + 0.0151986665636164571966
		den = float64(den*r) + 0.14810397642748007459
		den = float64(den*r) + 0.68976733498510000455
		den = float64(den*r) + 1.6763848301838038494
		den = float64(den*r) + 2.05319162663775882187
		den = float64(den*r) + 1
	} else {
		r -= 5
		num = float64(2.01033439929228813265e-7*r) + 2.71155556874348757815e-5
		num = float64(num*r) + 0.0012426609473880784386
		num = float64(num*r) + 0.026532189526576123093
		num = float64(num*r) + 0.29656057182850489123
		num = float64(num*r) + 1.7848265399172913358
		num = float64(num*r) + 5.4637849111641143699
		num = float64(num*r) + 6.6579046435011037772
		den = float64(2.04426310338993978564e-15*r) + 1.4215117583164458887e-7
		den = float64(den*r) + 1.8463183175100546818e-5
		den = float64(den*r) + 7.868691311456132591e-4
		den = float64(den*r) + 0.0148753612908506148525
		den = float64(den*r) + 0.13692988092273580531
		den = float64(den*r) + 0.59983220655588793769
		den = float64(den*r) + 1
	}
	x := num / den
	if q < 0 {
		return -x
	}
	return x
}
