// Package mathx implements the special functions that the paper's kernels
// obtain from the Intel Short Vector Math Library (SVML) and Vector Math
// Library (VML): exp, log, erf/erfc, the cumulative normal distribution
// (cnd) and its inverse.
//
// Exp, Log, Erf, Erfc and InvCND are implemented from scratch (Exp by
// Tang's table method, Log by an atanh series, Erf by a table of
// per-interval Taylor polynomials, Erfc as a port of the FreeBSD erfc
// whose tail reduces on Exp's table, InvCND by Wichura's rationals);
// each is validated against a math/big authority to a stated bound in
// ulps (exp_oracle_test.go, log_oracle_test.go, erf_oracle_test.go,
// invcnd_oracle_test.go), and against the Go standard library too
// (mathx_test.go). Every product that feeds an add in them is written
// float64(a*b) + c, which the Go spec forbids fusing, so their bits do
// not depend on the target's multiply-add, and none calls a standard
// library function that switches on CPU features.
// Two call styles mirror the two Intel libraries:
//
//   - SVML style: per-value scalar functions (Exp, Log, Erf, CND, InvCND)
//     that internal/vec applies lane-by-lane inside a vector "instruction".
//   - VML style: batch array functions (ExpArray, LogArray, ErfArray, ...)
//     that process whole buffers, as used by the advanced Black-Scholes
//     variant.
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

// Exp returns e**x, computed from scratch by Tang's table method (ACM
// TOMS 15(2), 1989): x = (64m + j)·ln2/64 + r with |r| <= ln2/128, and
// e^x = 2^m · 2^(j/64) · e^r, where 2^(j/64) comes from expTable as a
// hi/lo pair and e^r − 1 from a degree-5 polynomial. Its stated bound is
// 1.5 ulp from the true e^x over its finite range, asserted against a
// math/big e^x (exp_oracle_test.go; the largest error measured is
// 0.76 ulp, where the result is subnormal and rounds twice, and 0.54 ulp
// where it is normal).
//
// The result is scaled by 2^m. Where 2^m is a normal double the scale is
// built from its exponent bits and applied as one multiply, which is
// exact for a normal product and rounds a subnormal one once, as
// math.Ldexp does; Ldexp remains only for the m at the range edges.
func Exp(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x > 709.782712893384:
		return math.Inf(1)
	case x < -745.1332191019412:
		return 0
	}
	t := float64(x*expInvL) + expShift
	k := int(int32(math.Float64bits(t)))
	kf := t - expShift
	r := (x - float64(kf*expL1)) - float64(kf*expL2)
	// Estrin's scheme, every product rounded before its add.
	r2 := r * r
	q := float64(r2*(float64(expC5*r)+expC4)) + (float64(expC3*r) + expC2)
	p := float64(r2*q) + r
	e := &expTable[k&63]
	s := e[0] + (float64(e[0]*p) + e[1])
	m := k >> 6
	if m >= -1022 && m <= 1023 {
		return s * math.Float64frombits(uint64(m+1023)<<52)
	}
	return math.Ldexp(s, m)
}

// Exp's constants, shared with expSum.
const (
	expInvL = 0x1.71547652b82fep+06 // 64/ln2
	// ln2/64 = expL1 + expL2, expL1 with its low 21 bits clear, so
	// k*expL1 is exact for every |k| < 2^21 and x - k*expL1 is exact
	// (Sterbenz).
	expL1 = 0x1.62e42feep-07
	expL2 = 0x1.a39ef35793c76p-39
	// Adding 1.5·2^52 rounds to the nearest integer k, which lands in
	// the low bits of the sum's mantissa.
	expShift = 0x1.8p52
	// e^r − 1 = r + r²·(c2 + c3·r + c4·r² + c5·r³): Taylor to r⁷,
	// Chebyshev-economized to degree 5 on |r| <= ln2/128.
	expC2 = 0x1.ffffffffff57fp-02
	expC3 = 0x1.5555555554dd4p-03
	expC4 = 0x1.55556b330443ep-05
	expC5 = 0x1.111120af69725p-07
)

// expSum returns e^(a+b) by Exp's method, with a+b reduced as one
// argument: k is chosen from a+b and r = ((a − k·L1) + b) − k·L2, so
// Erfc's tail, whose exponent is an exact a plus a small b, costs one
// exponential rather than two and a product. a − k·L1 is exact, by
// Sterbenz, whenever a is within a factor 2 of k·L1, which holds for
// Erfc's |b| < 1 beside a <= −2.1. Its lines after the reduction are
// Exp's: Exp does not call expSum(x, 0), whose two extra adds on the
// dependency chain cost the warm Monte Carlo request 4–6 %, and the
// shared tail is too large to inline, so a helper would cost a call.
func expSum(a, b float64) float64 {
	x := a + b
	switch {
	case math.IsNaN(x):
		return x
	case x > 709.782712893384:
		return math.Inf(1)
	case x < -745.1332191019412:
		return 0
	}
	t := float64(x*expInvL) + expShift
	k := int(int32(math.Float64bits(t)))
	kf := t - expShift
	r := ((a - float64(kf*expL1)) + b) - float64(kf*expL2)
	r2 := r * r
	q := float64(r2*(float64(expC5*r)+expC4)) + (float64(expC3*r) + expC2)
	p := float64(r2*q) + r
	e := &expTable[k&63]
	s := e[0] + (float64(e[0]*p) + e[1])
	m := k >> 6
	if m >= -1022 && m <= 1023 {
		return s * math.Float64frombits(uint64(m+1023)<<52)
	}
	return math.Ldexp(s, m)
}

// expTable holds 2^(j/64), j = 0..63, as the double nearest it and the
// double nearest the remainder. TestExpTable recomputes every literal
// from six square roots of 2^j in math/big.
var expTable = [64][2]float64{
	{0x1p+00, 0x0p+00},
	{0x1.02c9a3e778061p+00, -0x1.19083535b085dp-56},
	{0x1.059b0d3158574p+00, 0x1.d73e2a475b465p-55},
	{0x1.0874518759bc8p+00, 0x1.186be4bb284ffp-57},
	{0x1.0b5586cf9890fp+00, 0x1.8a62e4adc610bp-54},
	{0x1.0e3ec32d3d1a2p+00, 0x1.03a1727c57b53p-59},
	{0x1.11301d0125b51p+00, -0x1.6c51039449b3ap-54},
	{0x1.1429aaea92dep+00, -0x1.32fbf9af1369ep-54},
	{0x1.172b83c7d517bp+00, -0x1.19041b9d78a76p-55},
	{0x1.1a35beb6fcb75p+00, 0x1.e5b4c7b4968e4p-55},
	{0x1.1d4873168b9aap+00, 0x1.e016e00a2643cp-54},
	{0x1.2063b88628cd6p+00, 0x1.dc775814a8495p-55},
	{0x1.2387a6e756238p+00, 0x1.9b07eb6c70573p-54},
	{0x1.26b4565e27cddp+00, 0x1.2bd339940e9d9p-55},
	{0x1.29e9df51fdee1p+00, 0x1.612e8afad1255p-55},
	{0x1.2d285a6e4030bp+00, 0x1.0024754db41d5p-54},
	{0x1.306fe0a31b715p+00, 0x1.6f46ad23182e4p-55},
	{0x1.33c08b26416ffp+00, 0x1.32721843659a6p-54},
	{0x1.371a7373aa9cbp+00, -0x1.63aeabf42eae2p-54},
	{0x1.3a7db34e59ff7p+00, -0x1.5e436d661f5e3p-56},
	{0x1.3dea64c123422p+00, 0x1.ada0911f09ebcp-55},
	{0x1.4160a21f72e2ap+00, -0x1.ef3691c309278p-58},
	{0x1.44e086061892dp+00, 0x1.89b7a04ef80dp-59},
	{0x1.486a2b5c13cdp+00, 0x1.3c1a3b69062fp-56},
	{0x1.4bfdad5362a27p+00, 0x1.d4397afec42e2p-56},
	{0x1.4f9b2769d2ca7p+00, -0x1.4b309d25957e3p-54},
	{0x1.5342b569d4f82p+00, -0x1.07abe1db13cadp-55},
	{0x1.56f4736b527dap+00, 0x1.9bb2c011d93adp-54},
	{0x1.5ab07dd485429p+00, 0x1.6324c054647adp-54},
	{0x1.5e76f15ad2148p+00, 0x1.ba6f93080e65ep-54},
	{0x1.6247eb03a5585p+00, -0x1.383c17e40b497p-54},
	{0x1.6623882552225p+00, -0x1.bb60987591c34p-54},
	{0x1.6a09e667f3bcdp+00, -0x1.bdd3413b26456p-54},
	{0x1.6dfb23c651a2fp+00, -0x1.bbe3a683c88abp-57},
	{0x1.71f75e8ec5f74p+00, -0x1.16e4786887a99p-55},
	{0x1.75feb564267c9p+00, -0x1.0245957316dd3p-54},
	{0x1.7a11473eb0187p+00, -0x1.41577ee04992fp-55},
	{0x1.7e2f336cf4e62p+00, 0x1.05d02ba15797ep-56},
	{0x1.82589994cce13p+00, -0x1.d4c1dd41532d8p-54},
	{0x1.868d99b4492edp+00, -0x1.fc6f89bd4f6bap-54},
	{0x1.8ace5422aa0dbp+00, 0x1.6e9f156864b27p-54},
	{0x1.8f1ae99157736p+00, 0x1.5cc13a2e3976cp-55},
	{0x1.93737b0cdc5e5p+00, -0x1.75fc781b57ebcp-57},
	{0x1.97d829fde4e5p+00, -0x1.d185b7c1b85d1p-54},
	{0x1.9c49182a3f09p+00, 0x1.c7c46b071f2bep-56},
	{0x1.a0c667b5de565p+00, -0x1.359495d1cd533p-54},
	{0x1.a5503b23e255dp+00, -0x1.d2f6edb8d41e1p-54},
	{0x1.a9e6b5579fdbfp+00, 0x1.0fac90ef7fd31p-54},
	{0x1.ae89f995ad3adp+00, 0x1.7a1cd345dcc81p-54},
	{0x1.b33a2b84f15fbp+00, -0x1.2805e3084d708p-57},
	{0x1.b7f76f2fb5e47p+00, -0x1.5584f7e54ac3bp-56},
	{0x1.bcc1e904bc1d2p+00, 0x1.23dd07a2d9e84p-55},
	{0x1.c199bdd85529cp+00, 0x1.11065895048ddp-55},
	{0x1.c67f12e57d14bp+00, 0x1.2884dff483cadp-54},
	{0x1.cb720dcef9069p+00, 0x1.503cbd1e949dbp-56},
	{0x1.d072d4a07897cp+00, -0x1.cbc3743797a9cp-54},
	{0x1.d5818dcfba487p+00, 0x1.2ed02d75b3707p-55},
	{0x1.da9e603db3285p+00, 0x1.c2300696db532p-54},
	{0x1.dfc97337b9b5fp+00, -0x1.1a5cd4f184b5cp-54},
	{0x1.e502ee78b3ff6p+00, 0x1.39e8980a9cc8fp-55},
	{0x1.ea4afa2a490dap+00, -0x1.e9c23179c2893p-54},
	{0x1.efa1bee615a27p+00, 0x1.dc7f486a4b6bp-54},
	{0x1.f50765b6e454p+00, 0x1.9d3e12dd8a18bp-54},
	{0x1.fa7c1819e90d8p+00, 0x1.74853f3a5931ep-55},
}

// Log returns the natural logarithm of x, computed from scratch: x is
// decomposed as m*2^e with m in [sqrt(1/2), sqrt(2)), and log(m) is
// evaluated via the atanh series 2*(s + s^3/3 + ... + s^21/21) with
// s = (m-1)/(m+1), |s| <= 0.1716, where the first omitted term, 2s^23/23,
// is below 0.01 ulp. Its stated bound is 3 ulp from the true ln x,
// asserted against a math/big ln x (log_oracle_test.go; the largest
// error measured is 2.59 ulp, at x just below sqrt(1/2), where
// e*ln2 + log(m) cancels).
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
	// 2*atanh(s): odd series to s^21. Horner from the inside out, every
	// product rounded before its add.
	ts := 2 * s
	q := 1.0/19 + s2/21
	q = 1.0/17 + float64(s2*q)
	q = 1.0/15 + float64(s2*q)
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
