package mathx

import "math"

// Erf returns the error function of x, computed from scratch by a table of
// per-interval polynomials, with no exponential and no divide:
//
//   - |x| < 1/8: the odd series erf(x) = x + x·y(x²), where y(z) =
//     (2/√π − 1) + (2/√π)·Σ (−z)^k / (k!·(2k+1)) for k = 1..7, so tiny
//     and subnormal x keep their relative accuracy;
//   - 1/8 <= |x| < 6: the degree-10 Taylor polynomial of erf at the
//     centre c = (j + ½)/16 of the interval [j/16, (j+1)/16) that holds
//     |x|, in t = |x| − c (exact by Sterbenz), with erf(c) as a hi/lo
//     pair (erfTable); its truncation error is below 0.003 ulp;
//   - |x| >= 6: ±1, since erf(6) = 1 − 2.2e-17 rounds to 1. NaN stays NaN.
//
// The sign comes back by Copysign. Its stated bound is 1 ulp of the true
// erf(x), which is 2⁻⁵³ absolute where |erf(x)| is in [½, 1), asserted
// against a math/big erf (erf_oracle_test.go; the largest error measured
// is 0.81 ulp). Every product that feeds an add is written
// float64(a*b) + c, which the Go spec forbids fusing, so its bits do not
// depend on the target's multiply-add.
func Erf(x float64) float64 {
	ax := math.Abs(x)
	if !(ax < 6) {
		if math.IsNaN(x) {
			return x
		}
		return math.Copysign(1, x)
	}
	if ax < 0x1p-3 {
		// Estrin's scheme for s[2..7], Horner for s[1] and s[0].
		s := &erfSeries
		z := x * x
		z2 := z * z
		q := float64(z2*(float64(z2*(float64(s[7]*z)+s[6]))+(float64(s[5]*z)+s[4]))) + (float64(s[3]*z) + s[2])
		y := float64(z*(float64(z*q)+s[1])) + s[0]
		return x + float64(x*y)
	}
	j := int(ax * 16)
	c := &erfTable[j-2]
	t := ax - float64((float64(j)+0.5)*0x1p-4)
	// Estrin's scheme for c2..c10, Horner for c1 and c0, whose low part
	// joins before the last add.
	t2 := t * t
	t4 := t2 * t2
	lo := float64(t2*(float64(c[5]*t)+c[4])) + (float64(c[3]*t) + c[2])
	hi := float64(t2*(float64(t2*c[10])+(float64(c[9]*t)+c[8]))) + (float64(c[7]*t) + c[6])
	q := float64(t*(float64(t4*hi)+lo)) + c[1]
	return math.Copysign(c[0]+(float64(t*q)+c[11]), x)
}

// Erfc returns the complementary error function 1 − erf(x), with full
// relative accuracy in the positive tail. It is a port of the Go
// standard library's erfc (math/erf.go, copyright 2010 The Go Authors,
// BSD-style license; itself from FreeBSD's s_erf.c, notice below) with
// three changes: every product that feeds an add is written
// float64(a*b) + c; the tail's two exponentials
// e^(−z²−0.5625)·e^((z−x)(z+x)+R/S) are one evaluation of e^(a+b)
// (expSum), which reduces the sum once and rounds once; and [¼, 0.84375)
// subtracts from an exact 1 − x (below). So its bits do not depend on
// the target's multiply-add or on a CPU-switched math.Exp.
// Its stated bound is 2.5 ulp of the true erfc(x), 2^-1074 where that
// is subnormal (erf_oracle_test.go; the largest error measured is 2.24
// ulp, on [0.84375, 1.25), whose rational the port keeps unchanged).
//
// The FreeBSD code came with this notice:
//
//	Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
//	Developed at SunPro, a Sun Microsystems, Inc. business.
//	Permission to use, copy, modify, and distribute this
//	software is freely granted, provided that this notice
//	is preserved.
//
// Method, for |x| in
//
//   - (−0.84375, ¼): erfc(x) = 1 − (x + x·P/Q), P and Q polynomials in
//     x²; [¼, 0.84375): (1 − x) − x·P/Q, where 1 − x is exact from ½
//     up (FreeBSD's ½ − ((x − ½) + x·P/Q) rounds the sum, which is
//     larger than the result, and measures 2.6 ulp there; Go's
//     1 − (½ + …) rounds once more, 3.7 ulp);
//   - [0.84375, 1.25): erfc(x) = (1 − c) − P1(s)/Q1(s), s = |x| − 1, c
//     erf(1) rounded to 24 bits (1 + c + P1/Q1 for x < 0);
//   - [1.25, 28): erfc(x) = e^(−x² − 0.5625 + R/S)/x, R and S
//     polynomials in 1/x² on [1.25, 1/0.35) and [1/0.35, 28), with x² =
//     z² − (z − x)(z + x) for z, x cut to 21 significant bits (z² and
//     −z² − 0.5625 are exact); 2 − erfc(|x|) for x < 0, and 2 for
//     x < −6;
//   - [28, ∞): 0 (erfc(27.3) is already below the least subnormal), or
//     2 for x < 0.
func Erfc(x float64) float64 {
	const (
		erx = 8.45062911510467529297e-01 // 0x3FEB0AC160000000
		// Coefficients for erf in [0, 0.84375].
		pp0 = 1.28379167095512558561e-01  // 0x3FC06EBA8214DB68
		pp1 = -3.25042107247001499370e-01 // 0xBFD4CD7D691CB913
		pp2 = -2.84817495755985104766e-02 // 0xBF9D2A51DBD7194F
		pp3 = -5.77027029648944159157e-03 // 0xBF77A291236668E4
		pp4 = -2.37630166566501626084e-05 // 0xBEF8EAD6120016AC
		qq1 = 3.97917223959155352819e-01  // 0x3FD97779CDDADC09
		qq2 = 6.50222499887672944485e-02  // 0x3FB0A54C5536CEBA
		qq3 = 5.08130628187576562776e-03  // 0x3F74D022C4D36B0F
		qq4 = 1.32494738004321644526e-04  // 0x3F215DC9221C1A10
		qq5 = -3.96022827877536812320e-06 // 0xBED09C4342A26120
		// Coefficients for erf in [0.84375, 1.25].
		pa0 = -2.36211856075265944077e-03 // 0xBF6359B8BEF77538
		pa1 = 4.14856118683748331666e-01  // 0x3FDA8D00AD92B34D
		pa2 = -3.72207876035701323847e-01 // 0xBFD7D240FBB8C3F1
		pa3 = 3.18346619901161753674e-01  // 0x3FD45FCA805120E4
		pa4 = -1.10894694282396677476e-01 // 0xBFBC63983D3E28EC
		pa5 = 3.54783043256182359371e-02  // 0x3FA22A36599795EB
		pa6 = -2.16637559486879084300e-03 // 0xBF61BF380A96073F
		qa1 = 1.06420880400844228286e-01  // 0x3FBB3E6618EEE323
		qa2 = 5.40397917702171048937e-01  // 0x3FE14AF092EB6F33
		qa3 = 7.18286544141962662868e-02  // 0x3FB2635CD99FE9A7
		qa4 = 1.26171219808761642112e-01  // 0x3FC02660E763351F
		qa5 = 1.36370839120290507362e-02  // 0x3F8BEDC26B51DD1C
		qa6 = 1.19844998467991074170e-02  // 0x3F888B545735151D
		// Coefficients for erfc in [1.25, 1/0.35].
		ra0 = -9.86494403484714822705e-03 // 0xBF843412600D6435
		ra1 = -6.93858572707181764372e-01 // 0xBFE63416E4BA7360
		ra2 = -1.05586262253232909814e+01 // 0xC0251E0441B0E726
		ra3 = -6.23753324503260060396e+01 // 0xC04F300AE4CBA38D
		ra4 = -1.62396669462573470355e+02 // 0xC0644CB184282266
		ra5 = -1.84605092906711035994e+02 // 0xC067135CEBCCABB2
		ra6 = -8.12874355063065934246e+01 // 0xC054526557E4D2F2
		ra7 = -9.81432934416914548592e+00 // 0xC023A0EFC69AC25C
		sa1 = 1.96512716674392571292e+01  // 0x4033A6B9BD707687
		sa2 = 1.37657754143519042600e+02  // 0x4061350C526AE721
		sa3 = 4.34565877475229228821e+02  // 0x407B290DD58A1A71
		sa4 = 6.45387271733267880336e+02  // 0x40842B1921EC2868
		sa5 = 4.29008140027567833386e+02  // 0x407AD02157700314
		sa6 = 1.08635005541779435134e+02  // 0x405B28A3EE48AE2C
		sa7 = 6.57024977031928170135e+00  // 0x401A47EF8E484A93
		sa8 = -6.04244152148580987438e-02 // 0xBFAEEFF2EE749A62
		// Coefficients for erfc in [1/0.35, 28].
		rb0 = -9.86494292470009928597e-03 // 0xBF84341239E86F4A
		rb1 = -7.99283237680523006574e-01 // 0xBFE993BA70C285DE
		rb2 = -1.77579549177547519889e+01 // 0xC031C209555F995A
		rb3 = -1.60636384855821916062e+02 // 0xC064145D43C5ED98
		rb4 = -6.37566443368389627722e+02 // 0xC083EC881375F228
		rb5 = -1.02509513161107724954e+03 // 0xC09004616A2E5992
		rb6 = -4.83519191608651397019e+02 // 0xC07E384E9BDC383F
		sb1 = 3.03380607434824582924e+01  // 0x403E568B261D5190
		sb2 = 3.25792512996573918826e+02  // 0x40745CAE221B9F0A
		sb3 = 1.53672958608443695994e+03  // 0x409802EB189D5118
		sb4 = 3.19985821950859553908e+03  // 0x40A8FFB7688C246A
		sb5 = 2.55305040643316442583e+03  // 0x40A3F219CEDF3BE6
		sb6 = 4.74528541206955367215e+02  // 0x407DA874E79FE763
		sb7 = -2.24409524465858183362e+01 // 0xC03670E242712D62
	)
	switch {
	case math.IsNaN(x):
		return x
	case math.IsInf(x, 1):
		return 0
	case math.IsInf(x, -1):
		return 2
	}
	if math.Abs(x) < 0.84375 {
		if math.Abs(x) < 0x1p-56 {
			return 1 - x
		}
		z := x * x
		r := float64(z*pp4) + pp3
		r = float64(z*r) + pp2
		r = float64(z*r) + pp1
		r = float64(z*r) + pp0
		s := float64(z*qq5) + qq4
		s = float64(z*s) + qq3
		s = float64(z*s) + qq2
		s = float64(z*s) + qq1
		s = float64(z*s) + 1
		y := r / s
		if x < 0.25 {
			return 1 - (x + float64(x*y))
		}
		return (1 - x) - float64(x*y)
	}
	sign := x < 0
	x = math.Abs(x)
	if x < 1.25 {
		s := x - 1
		p := float64(s*pa6) + pa5
		p = float64(s*p) + pa4
		p = float64(s*p) + pa3
		p = float64(s*p) + pa2
		p = float64(s*p) + pa1
		p = float64(s*p) + pa0
		q := float64(s*qa6) + qa5
		q = float64(s*q) + qa4
		q = float64(s*q) + qa3
		q = float64(s*q) + qa2
		q = float64(s*q) + qa1
		q = float64(s*q) + 1
		if sign {
			return 1 + erx + p/q
		}
		return 1 - erx - p/q
	}
	if x >= 28 {
		if sign {
			return 2
		}
		return 0
	}
	s := 1 / (x * x)
	var r, q float64
	if x < 1/0.35 {
		r = float64(s*ra7) + ra6
		r = float64(s*r) + ra5
		r = float64(s*r) + ra4
		r = float64(s*r) + ra3
		r = float64(s*r) + ra2
		r = float64(s*r) + ra1
		r = float64(s*r) + ra0
		q = float64(s*sa8) + sa7
		q = float64(s*q) + sa6
		q = float64(s*q) + sa5
		q = float64(s*q) + sa4
		q = float64(s*q) + sa3
		q = float64(s*q) + sa2
		q = float64(s*q) + sa1
		q = float64(s*q) + 1
	} else {
		if sign && x > 6 {
			return 2
		}
		r = float64(s*rb6) + rb5
		r = float64(s*r) + rb4
		r = float64(s*r) + rb3
		r = float64(s*r) + rb2
		r = float64(s*r) + rb1
		r = float64(s*r) + rb0
		q = float64(s*sb7) + sb6
		q = float64(s*q) + sb5
		q = float64(s*q) + sb4
		q = float64(s*q) + sb3
		q = float64(s*q) + sb2
		q = float64(s*q) + sb1
		q = float64(s*q) + 1
	}
	z := math.Float64frombits(math.Float64bits(x) &^ (1<<32 - 1))
	e := expSum(-float64(z*z)-0.5625, float64((z-x)*(z+x))+r/q)
	if sign {
		return 2 - e/x
	}
	return e / x
}

// erfSeries holds the coefficients of Erf's series below 1/8, each the
// double nearest it: 2/√π − 1, then (2/√π)·(−1)^k / (k!·(2k+1)) for
// k = 1..7. TestErfTable recomputes them in math/big.
var erfSeries = [8]float64{
	0x1.06eba8214db69p-03,
	-0x1.812746b0379e7p-02,
	0x1.ce2f21a042be2p-04,
	-0x1.b82ce31288b51p-06,
	0x1.565bcd0e6a53fp-08,
	-0x1.c02db40040b86p-11,
	0x1.f9a326f9b89b7p-14,
	-0x1.f4d25c3e0c2ebp-17,
}

// erfTable holds, for each interval [j/16, (j+1)/16), j = 2..95, the
// Taylor coefficients of erf at its centre c = (j + ½)/16: erf(c), then
// erf⁽ⁿ⁾(c)/n! = (2/√π)·(−1)ⁿ⁻¹·Hₙ₋₁(c)·e^(−c²)/n! for n = 1..10 (Hₙ
// the physicists' Hermite polynomials), each the double nearest it, and
// last the double nearest erf(c) minus the first. TestErfTable recomputes
// every literal in math/big.
var erfTable = [94][12]float64{
	{0x1.662a0bdf7a89fp-03, 0x1.19e5e92b964abp+00, -0x1.605f63767bdd6p-03, -0x1.6582e9b69c9acp-02, 0x1.5aa32b580e2eap-04, 0x1.97594c25a1706p-04, -0x1.c69c625d3b6d6p-06, -0x1.6fa7f7f0703dcp-06, 0x1.bf1cdc320d9e4p-08, 0x1.0e6e15a3efb7p-08, -0x1.5fc026664ec27p-10, -0x1.ef80fee2b133cp-59},
	{0x1.f190aa85540e2p-03, 0x1.135e3075d076bp+00, -0x1.e1e4d4ce2ccfbp-03, -0x1.4c04e66e0d59cp-02, 0x1.d2855d59990c6p-04, 0x1.659a35f29f6ddp-04, -0x1.2cf626743c137p-05, -0x1.2ef4193d1c84ap-06, 0x1.231a416f74e6p-07, 0x1.9ea861a5d5a1ap-09, -0x1.c24b8a95ea5eep-10, -0x1.e521a09cb1b7dp-57},
	{0x1.3c9aa8b84bedap-02, 0x1.0ae54fa490723p+00, -0x1.2c41f99922807p-02, -0x1.2b900b640a202p-02, 0x1.1c6c7eef8f2ebp-03, 0x1.277ad7822588ep-04, -0x1.66c9b1f0773b7p-05, -0x1.bf7e7cb9d806fp-07, 0x1.52ff342577637p-07, 0x1.074d3ea39f81ep-09, -0x1.ffc017414b07cp-10, 0x1.38e845397242dp-58},
	{0x1.7e15944d9d3e4p-02, 0x1.00abcf3e187a9p+00, -0x1.60ec3cf561a89p-02, -0x1.05599bafe4ecdp-02, 0x1.451ef6280d21cp-03, 0x1.c06c6e435165cp-05, -0x1.8e2d73338066ap-05, -0x1.0ea4a66be12c7p-07, 0x1.6c8dad9dfc8d3p-07, 0x1.8c6f86e3dd32fp-11, -0x1.0a0d3e5b765f3p-09, -0x1.95fdc3865d9b7p-57},
	{0x1.bccfec24855b8p-02, 0x1.e9d5a8e4c934ep-01, -0x1.8dfd9939e37afp-02, -0x1.b588d8dc5bb93p-03, 0x1.62338788af9e4p-03, 0x1.26cf85bc6251p-05, -0x1.a1bcaaadf9b4dp-05, -0x1.5b4a7759cb5eap-09, 0x1.6ee0d1c179205p-07, -0x1.03d1ee98bb736p-11, -0x1.ff3a25dee9a19p-10, -0x1.47292aeeaa2fap-56},
	{0x1.f86faa9428f9dp-02, 0x1.cfc41e36c7df9p-01, -0x1.b2c7dc535b619p-02, -0x1.5a9de93f9c0d1p-03, 0x1.7317958d257edp-03, 0x1.133e02ab57e13p-06, -0x1.a155bbff2475ep-05, 0x1.7204a625822b1p-09, 0x1.5ae0108ee15dfp-07, -0x1.b0f56adafca62p-10, -0x1.c4be6add6ee16p-10, 0x1.99988b110a612p-56},
	{0x1.1855a5fd3dd5p-01, 0x1.b3aafcc27502ep-01, -0x1.cee5ac8e9c531p-02, -0x1.fa02983c853cbp-04, 0x1.77cd75ec71e97p-03, -0x1.fa6f82fbb5d9fp-10, -0x1.8e0db524c81dcp-05, 0x1.00bf7366f74adp-07, 0x1.3316e4cbda1dp-07, -0x1.58b50ce93cab7p-09, -0x1.6b7fc6911233cp-10, 0x1.8f68268624501p-55},
	{0x1.32a54cb8db67bp-01, 0x1.96164fafd8de3p-01, -0x1.e23a7ea0d187ep-02, -0x1.3f5ee1564be41p-04, 0x1.70e469de059e7p-03, -0x1.3da6878b1601bp-06, -0x1.6a0d073ecb04p-05, 0x1.8cf08575fbdbfp-07, 0x1.f6d13715c2f87p-08, -0x1.b96b2bac2cacap-09, -0x1.f971aaaa528f6p-11, -0x1.96263537d4d65p-57},
	{0x1.4b13713ad3513p-01, 0x1.7791b886e7403p-01, -0x1.ecef42310f844p-02, -0x1.15c3c5ce705cdp-05, 0x1.5f6890aff98fcp-03, -0x1.1da642fad787fp-05, -0x1.38599103c4a6dp-05, 0x1.fa4f3bca1aa94p-07, 0x1.7152f8fa6e155p-08, -0x1.f5840c7474d81p-09, -0x1.05f71473d3d79p-11, 0x1.e941d89557082p-57},
	{0x1.61955607dd15dp-01, 0x1.58a445da7c74cp-01, -0x1.ef6c246a12e7ep-02, 0x1.e83e0da030501p-08, 0x1.44cc65df8aba5p-03, -0x1.87d3c8dd7af2ep-05, -0x1.f9271a25f6a3dp-06, 0x1.2252368b2ae92p-06, 0x1.c0a3b546bdb2ep-09, -0x1.05a259c9e4148p-08, -0x1.22738f087b746p-15, 0x1.98fddd4f54897p-55},
	{0x1.762870f720c6fp-01, 0x1.39ccc1b136d5ap-01, -0x1.ea4feea4e5addp-02, 0x1.715e595343362p-05, 0x1.22cdbdb4cce39p-03, -0x1.da50ae5494465p-05, -0x1.75578f3e30674p-06, 0x1.35331b5e89cadp-06, 0x1.39c7ec725becep-10, -0x1.fc37138b356f3p-09, 0x1.9c22c43371c78p-12, 0x1.118a1b821cf7cp-55},
	{0x1.88d1cd474a2ep-01, 0x1.1b7e98fe26217p-01, -0x1.de65a22ce0587p-02, 0x1.40686a3f3dc32p-04, 0x1.f6b0cb6927bcfp-04, -0x1.09c7caecdcbd8p-04, -0x1.da668fc2db935p-07, 0x1.364e735a3699bp-06, -0x1.d40d5497244bp-11, -0x1.ccc24c5c5bad5p-09, 0x1.8a38b8a0528e6p-11, 0x1.6f57a1a45df78p-55},
	{0x1.999d4192a5715p-01, 0x1.fc3ee5d1524bp-02, -0x1.cc990045b293fp-02, 0x1.b37338e6ac819p-04, 0x1.a0d11fe9bd454p-04, -0x1.19bb2ca3885ccp-04, -0x1.a0b7db1325892p-08, 0x1.274a5a689a95ap-06, -0x1.649ed3b0d13d9p-09, -0x1.838573c7ff37p-09, 0x1.0b465bfe7a77bp-10, -0x1.c8871576d5306p-55},
	{0x1.a89c850b7d54dp-01, 0x1.c40b0729ed548p-02, -0x1.b5eaaef09de9dp-02, 0x1.0847c7dad86b1p-03, 0x1.47de0a4f7b901p-04, -0x1.1d9de8b54e881p-04, 0x1.33252a6791a56p-10, 0x1.0ab3e3b3edd8p-06, -0x1.12d28b6e23ed9p-08, -0x1.288b662c0610ep-09, 0x1.36571d962302ap-10, -0x1.e274069b9af78p-55},
	{0x1.b5e62fce16095p-01, 0x1.8eed36b886d93p-02, -0x1.9b64a06e4b1p-02, 0x1.2bb6e2c74d4fep-03, 0x1.dee322c06360ap-05, -0x1.169960d5a948ap-04, 0x1.feab4a742cec1p-08, 0x1.c76eb949ab10cp-07, -0x1.5842f0a2e142ap-08, -0x1.88e0a7329f2b3p-10, 0x1.45d6d34ae380ap-10, 0x1.bc3da0f1d0e78p-56},
	{0x1.c194b1d49a184p-01, 0x1.5d4fd33729015p-02, -0x1.7e0f4f0454d97p-02, 0x1.444bc66c35bc3p-03, 0x1.356dbb542cb81p-05, -0x1.0643de6e8a06p-04, 0x1.b2e1f8689e99fp-07, 0x1.6ba6d94a3cf53p-07, -0x1.814017016f981p-08, -0x1.7e435ad5f2e17p-11, 0x1.3bc40d956646cp-10, -0x1.6776b69476ba6p-57},
	{0x1.cbc54b476248dp-01, 0x1.2f7cc3fe6f423p-02, -0x1.5ee8429e30a49p-02, 0x1.52a8395f9626ep-03, 0x1.313759f197a47p-06, -0x1.dcf844d8f8d98p-05, 0x1.1e45f26b17623p-06, 0x1.091cb53598fa7p-07, -0x1.8ea51f67ebe98p-08, -0x1.56ce94486ac92p-17, 0x1.1c19a85d69f6cp-10, 0x1.1a504adde06a6p-55},
	{0x1.d4970f9ce00d9p-01, 0x1.059f59af7a906p-02, -0x1.3eda354ddd5ffp-02, 0x1.57b85ad436065p-03, 0x1.8e90c2a154b7fp-10, -0x1.a2893b28e9386p-05, 0x1.4d6af44a48e12p-06, 0x1.4ccee5911fdc8p-08, -0x1.83306d9f9abf5p-08, 0x1.41354f864864p-11, 0x1.d85fe1976acbap-11, -0x1.56704fcbdd47dp-56},
	{0x1.dc29fb60715afp-01, 0x1.bf8e1b1ca2279p-03, -0x1.1eb7095e57e16p-02, 0x1.549ea6f7a013cp-03, -0x1.b10f20d12a11bp-07, -0x1.61420b5b26b3ep-05, 0x1.677b7f2469de2p-06, 0x1.24f98c3fd74d6p-09, -0x1.630cad956fa78p-08, 0x1.226d647c07e0bp-10, 0x1.641d85dd7fbcep-11, 0x1.ab00e1d243bb7p-55},
	{0x1.e29e22a89d766p-01, 0x1.7bd5c7df3fe9cp-03, -0x1.fe674493fde22p-03, 0x1.4a9feacf7e22p-03, -0x1.a0082c90a0f1p-06, -0x1.1cf0e7655281ap-05, 0x1.6e3396e8cd5cfp-06, -0x1.3a2d69e6d7646p-12, -0x1.334a5f89c0655p-08, 0x1.7e506026de7fbp-10, 0x1.cf15530e65d9dp-12, 0x1.bcc9ef4df6e3fp-55},
	{0x1.e812fc64db369p-01, 0x1.3fda6bc016994p-03, -0x1.c1cb27861fc79p-03, 0x1.3b1051230b98p-03, -0x1.1e645a2a663c1p-05, -0x1.b1f643b1359c6p-06, 0x1.64297daf8becp-06, -0x1.3e36624a5589ap-09, -0x1.f2b1269ecdcb5p-09, 0x1.b36e890745711p-10, 0x1.b6c7b98a1aa34p-13, 0x1.3c65eda8c4505p-55},
	{0x1.eca6ccd709544p-01, 0x1.0b3f52ce8c383p-03, -0x1.8885019f5df29p-03, 0x1.274275fc87eacp-03, -0x1.57f7386bfca8ep-05, -0x1.30769f4596edp-06, 0x1.4c823166dce8cp-06, -0x1.0c2c9cc2c498dp-08, -0x1.7512ff48292edp-09, 0x1.c41d52585e757p-10, -0x1.47c221b2ca825p-21, 0x1.f3df164d9badap-57},
	{0x1.f0762fde45ee6p-01, 0x1.bb1c972f23e5p-04, -0x1.5341e3c0177b6p-03, 0x1.107929f6e7527p-03, -0x1.7e1b362eafc7fp-05, -0x1.73b61e485ae1cp-07, 0x1.2aa76417a1be6p-06, -0x1.59a38b686cba1p-08, -0x1.eeb2576b68a22p-10, 0x1.b52a1bf3fd80cp-10, -0x1.6f7c03e36ac26p-13, 0x1.9c3551b59fc73p-55},
	{0x1.f39bc242e43e6p-01, 0x1.6c7e64e7281cbp-04, -0x1.2274b86833f6ep-03, 0x1.efb890e5b6631p-04, -0x1.92c7dbb8800f6p-05, -0x1.45477088118d2p-08, 0x1.02047aa9ce18bp-06, -0x1.888356ea394e6p-08, -0x1.0310520a0991fp-10, 0x1.8d0a27c4654b5p-10, -0x1.4200a19bccd56p-12, -0x1.dbade2f2295e3p-55},
	{0x1.f62fe80272419p-01, 0x1.297db960e4f63p-04, -0x1.ecb83b087b37bp-04, 0x1.bce18363bbbb7p-04, -0x1.985aaf978774p-05, 0x1.cd95f2ac8c96dp-12, 0x1.ab9d42e505531p-07, -0x1.9b93422908a7cp-08, -0x1.9b0d8d5c040e2p-13, 0x1.53067dbd42795p-10, -0x1.9caba9af08c8cp-12, -0x1.b7c25ec8b416fp-55},
	{0x1.f848acb544e95p-01, 0x1.e1d4cf1e2450ap-05, -0x1.9e12e1fde7354p-04, 0x1.8a27806de834fp-04, -0x1.91674e13a24cdp-05, 0x1.3bc75e8fa20ecp-08, 0x1.51b4d075ee6e4p-07, -0x1.96dc7ba236da7p-08, 0x1.e17885adfabc3p-12, 0x1.0e794fd6e32aap-10, -0x1.c97f130e38d71p-12, -0x1.b27a62d67b274p-55},
	{0x1.f9f9ba8d3c733p-01, 0x1.83298d717210ep-05, -0x1.58d101f909971p-04, 0x1.58f1456f7db5ep-04, -0x1.808d17b33c31fp-05, 0x1.0c1bdce6710d1p-07, 0x1.f5ff1c3dc91ap-08, -0x1.7f26b8534615cp-08, 0x1.f8692df59a132p-11, 0x1.8c59b56cc396bp-11, -0x1.cdbeea23c0b78p-12, 0x1.cd57612f5f4f7p-55},
	{0x1.fb54641aebbc9p-01, 0x1.34ac36ad8dafep-05, -0x1.1c8ec267fe9e2p-04, 0x1.2a52c5d83c051p-04, -0x1.68541b2c04ea9p-05, 0x1.5afe42214b417p-07, 0x1.56303be1c8a73p-08, -0x1.597eacbfefd2bp-08, 0x1.57b3a452a3e64p-10, 0x1.ff9576cdb2d61p-12, -0x1.b10e8131a3d47p-12, -0x1.79972bf893ddbp-55},
	{0x1.fc67bcf2d7b8fp-01, 0x1.e85c449e377f3p-06, -0x1.d177f166cce53p-05, 0x1.fe23b75845ce1p-05, -0x1.4b120f9dde3cp-05, 0x1.8d9906d12ba63p-07, 0x1.9201b7b454313p-09, -0x1.2aceabbfc291ep-08, 0x1.8d50166166d0fp-10, 0x1.0065f0686f1cap-12, -0x1.7c490f4dca3b1p-12, -0x1.0d273418771a5p-55},
	{0x1.fd40bd6d7a785p-01, 0x1.7f5188610ddc8p-06, -0x1.7954423f89a51p-05, 0x1.af5baae337ae8p-05, -0x1.2ad77b77d2437p-05, 0x1.a7b8c4a8c6b64p-07, 0x1.4593aebb99ad7p-10, -0x1.ef1cef1ad5cep-09, 0x1.a19c43a3ee1acp-10, 0x1.3adc5e56ed709p-15, -0x1.3876e69c186d7p-12, 0x1.60d428f21fbb8p-55},
	{0x1.fdea6e062d0c9p-01, 0x1.2a875b5ffab56p-06, -0x1.2f3178cd7aa03p-05, 0x1.68d1c45b96f01p-05, -0x1.09648dd331c11p-05, 0x1.ad8b148079603p-07, -0x1.f00fa67ebe88ap-13, -0x1.871876029dbb9p-09, 0x1.9a7e67be0d4dp-10, -0x1.0998ce97eff93p-13, -0x1.dbea249809c87p-13, -0x1.64c6b684260bcp-56},
	{0x1.fe6e1742f7cf6p-01, 0x1.cd5ec93c12432p-07, -0x1.e2ff3aaae31e4p-06, 0x1.2aa4e58242523p-05, -0x1.d049824fc47cap-06, 0x1.a34eda0fb3216p-07, -0x1.682d8cfac8335p-10, -0x1.239bf2d7c03e3p-09, 0x1.7e75974b08278p-10, -0x1.022f5fd15d054p-12, -0x1.47b651f27b342p-13, -0x1.cebcf3e303f16p-55},
	{0x1.fed37386190fbp-01, 0x1.61beae53b72b7p-07, -0x1.7d6193f2417adp-06, 0x1.e947279e4a44p-06, -0x1.90603010923dbp-06, 0x1.8d14d4bd9c81ap-07, -0x1.1f795af53f4efp-09, -0x1.9222e9b7efe98p-10, 0x1.53fad4664275bp-10, -0x1.52daef8a44c87p-12, -0x1.7e8746101775p-14, 0x1.72b16817d4f0fp-55},
	{0x1.ff20e0a7ba8c2p-01, 0x1.0d1d69569b82dp-07, -0x1.2a8ca0dc14852p-06, 0x1.8cc071b719c47p-06, -0x1.54a148886f143p-06, 0x1.6e91361de8e7ap-07, -0x1.65c02de45b821p-09, -0x1.e94b0474fcee9p-11, 0x1.21062b0c0714cp-10, -0x1.7bbd36b872b6ep-12, -0x1.2826efc98b5cp-15, -0x1.03f8b2fd7d512p-57},
	{0x1.ff5b8fb26f5f6p-01, 0x1.9646f35a76624p-08, -0x1.cf68ed932f081p-07, 0x1.3e8735b5b73b4p-06, -0x1.1e1611aabd28fp-06, 0x1.4afd8cd0f813fp-07, -0x1.8c72003a09b22p-09, -0x1.c6a71752a9772p-12, 0x1.d575138f2cebap-11, -0x1.8392a82f5025fp-12, 0x1.3d2ecfb676a04p-17, -0x1.7e918d19780fdp-55},
	{0x1.ff87b1913e853p-01, 0x1.30499b503957fp-08, -0x1.6496420203331p-07, 0x1.fa73d7eb1b712p-07, -0x1.daa3005c2dc23p-07, 0x1.250942c315ddcp-07, -0x1.997578c7d9ec2p-09, -0x1.3903ddc0ea04fp-15, 0x1.6a6d7e0ecfeeap-11, -0x1.71ebbd0812e87p-12, 0x1.644c37e7582a3p-15, -0x1.3ca99c8d2cea5p-56},
	{0x1.ffa89fe5b3625p-01, 0x1.c4412bf4b8f0bp-09, -0x1.100f34713740dp-07, 0x1.8ebda0768e8e9p-07, -0x1.850c68e8e66dep-07, 0x1.fdac8345ffa47p-08, -0x1.929de6f287807p-09, 0x1.10c7146833c3bp-12, 0x1.070dc03ed36e8p-11, -0x1.4e5c86e5ac2ep-12, 0x1.0d866131d57fbp-14, 0x1.934b204fa7706p-55},
	{0x1.ffc10194fcb64p-01, 0x1.4d78bba8ca5fdp-09, -0x1.9ba107a459ce4p-08, 0x1.36f273fbd909cp-07, -0x1.3b38708f7b9bp-07, 0x1.b3fdff1ddeb2bp-08, -0x1.7d55d56a3ef1dp-09, 0x1.eae5e24d5bf4fp-12, 0x1.5ebdd55388943p-12, -0x1.1fdf82d06ccf2p-12, 0x1.3f2216097b76ep-14, 0x1.ea147ac20184fp-55},
	{0x1.ffd2eae369a07p-01, 0x1.e7f232d9e263p-10, -0x1.34c7442de142bp-08, 0x1.e066bed09942fp-08, -0x1.f914f2c60c37dp-08, 0x1.6f4662f6be647p-08, -0x1.5e664585b01aap-09, 0x1.3a1598ce4699fp-11, 0x1.9657fa6defeecp-13, -0x1.d8db2c9ab88a8p-13, 0x1.4e4a02b2b8bdp-14, -0x1.83b0b306f73d7p-57},
	{0x1.ffdff92db56e5p-01, 0x1.6235fbd7a4345p-10, -0x1.cb5e029ba8f3dp-09, 0x1.6fa4c7ef470e7p-08, -0x1.903a08305ea8cp-08, 0x1.30f12c8400179p-08, -0x1.39d769ac96352p-09, 0x1.5d7942eed576cp-11, 0x1.5329371f5bcb6p-14, -0x1.718ea30e5a428p-13, 0x1.431ecabfb747fp-14, -0x1.8aeef06f8b149p-56},
	{0x1.ffe96a78a04a9p-01, 0x1.fe41cd9bb4eeep-11, -0x1.52d7b2896626ap-09, 0x1.16c192d8803d9p-08, -0x1.39bfce9b4ea0bp-08, 0x1.f376a554ed56fp-09, -0x1.12e67cbb0835bp-09, 0x1.66d6e3486ab1ap-11, -0x1.54daddbec3b28p-18, -0x1.10cf51e84e26fp-13, 0x1.25a5d206197a4p-14, -0x1.2816fccca0095p-55},
	{0x1.fff0312b010b5p-01, 0x1.6caa0d3582fe9p-11, -0x1.efb729f4be121p-10, 0x1.a2da7cec0155dp-09, -0x1.e6c27ad2b222fp-09, 0x1.93b1f34b2152bp-09, -0x1.d8179ccc11a89p-10, 0x1.5cf51ca63ebecp-11, -0x1.16dab230dd345p-14, -0x1.7659280514d91p-14, 0x1.fa407e6f13e68p-15, 0x1.155deb2d93f68p-55},
	{0x1.fff50456dab8cp-01, 0x1.0295ef6591848p-11, -0x1.679880e93e5c4p-10, 0x1.37d38e3a705a8p-09, -0x1.75b371a26483cp-09, 0x1.4231c3bfee1dep-09, -0x1.8e184d47ed8p-10, 0x1.45d5b433e7709p-11, -0x1.bf8f1f20f6cfbp-14, -0x1.cc79b85fd7d65p-15, 0x1.9f4587232aa8bp-15, -0x1.a197ab9f52a4fp-58},
	{0x1.fff86cfd3e657p-01, 0x1.6be02102b352p-12, -0x1.02b15777eb7c5p-10, 0x1.cc1d886874d4dp-10, -0x1.1bff7066467a9p-09, 0x1.fc0f76c956e3dp-10, -0x1.4a222862f90aep-10, 0x1.2688860400a6bp-11, -0x1.0fa2d34d24a2dp-13, -0x1.cb616af67580cp-16, 0x1.43ccbc0dd53ebp-15, -0x1.2e06af13b7209p-56},
	{0x1.fffad0b901755p-01, 0x1.fc0d55470cf51p-13, -0x1.7121aff59f6a1p-11, 0x1.506d6992fc8f3p-10, -0x1.ab596015fc6e6p-10, 0x1.8bdd79a0a9afp-10, -0x1.0d88da9a94441p-10, 0x1.031cdbc989ff4p-11, -0x1.22fcb12671bdbp-13, -0x1.b34b82ef58641p-18, 0x1.dd1a227c08b2bp-16, 0x1.70d5c6bd7b275p-57},
	{0x1.fffc7a37857d2p-01, 0x1.5feada379d8b7p-13, -0x1.05304df546ed8p-11, 0x1.e79c081b79ea6p-11, -0x1.3e5dc1062dff1p-10, 0x1.30eb20ccd1222p-10, -0x1.b1b06c1a9ab62p-11, 0x1.bd52f9ad1dc24p-12, -0x1.214b603d05d95p-13, 0x1.1ac202c0bd766p-17, 0x1.477f4b13ca621p-16, -0x1.97b31125dd25ap-56},
	{0x1.fffd9fdeabccep-01, 0x1.e3bcf436a1a95p-14, -0x1.6e95311166825p-12, 0x1.5e3edf674e2cap-11, -0x1.d5be6d15ac109p-11, 0x1.d07da13e7c605p-11, -0x1.58106cc48eb8ap-11, 0x1.76c83edb482d6p-12, -0x1.111dfd774cc68p-13, 0x1.31cf1258aef5fp-16, 0x1.9612c39d25885p-17, 0x1.0c43c38b1d741p-55},
	{0x1.fffe68f4fa777p-01, 0x1.49e17724f4d41p-14, -0x1.fe48c44d2ab81p-13, 0x1.f2bd95d72a517p-12, -0x1.57389188a72bbp-11, 0x1.5decc405a2204p-11, -0x1.0d559cf04d47bp-11, 0x1.35838ef55ffd2p-12, -0x1.efd7ac18e5a0dp-14, 0x1.90a278f3be9f9p-16, 0x1.a2d3592fd11bp-18, 0x1.2f2176070778ep-60},
	{0x1.fffef1960d85dp-01, 0x1.be6abbb10a5aap-15, -0x1.60403819b22b8p-13, 0x1.5fff1dde5304ap-12, -0x1.f0c93c73e7fc2p-12, 0x1.04cbf67b04634p-11, -0x1.a0489350bd80dp-12, 0x1.f66b4fb65dcb5p-13, -0x1.b410db86974d5p-14, 0x1.b9ddb3017a23bp-16, 0x1.f29d154ffbc82p-20, -0x1.f7cc780a237bap-55},
	{0x1.ffff4db27f146p-01, 0x1.2bb5cc22e5db6p-15, -0x1.e258948829ed1p-14, 0x1.ec8a8e59d9d41p-13, -0x1.6425722b9f1f9p-12, 0x1.80a83a7115cc1p-12, -0x1.3dbb93752a497p-12, 0x1.913b2ed0e365ep-13, -0x1.75639c61776fep-14, 0x1.bc2b9a274237p-16, -0x1.469db522f7874p-20, 0x1.ddecdd6d729f6p-55},
	{0x1.ffff8b500e77cp-01, 0x1.8f4ccca7fc90dp-16, -0x1.478cffe1cd2edp-14, 0x1.559f04ad4de53p-13, -0x1.f9e163b15c443p-13, 0x1.18bda8b8cc10cp-12, -0x1.df381bd3e185bp-13, 0x1.3b94f4694e719p-13, -0x1.385f307d640b4p-14, 0x1.a42dedad77fe8p-16, -0x1.ace4ab3e43f0cp-19, -0x1.1014e1f7cc69bp-56},
	{0x1.ffffb43555b5fp-01, 0x1.07ebd2a2d2844p-16, -0x1.b93e442837f52p-15, 0x1.d5cf1514977e4p-14, -0x1.63f5eb46874f1p-13, 0x1.95a0411e7173ap-13, -0x1.652e5f2c75092p-13, 0x1.e950dcef974fcp-14, -0x1.ffeb7215e383cp-15, 0x1.7c30c85f11c24p-16, -0x1.20f2372922afp-18, 0x1.c17f83c5c2d0ap-55},
	{0x1.ffffcf23ff5fcp-01, 0x1.5a2adfa0b4bc4p-17, -0x1.26c8826ed9e85p-15, 0x1.40473571d537fp-14, -0x1.f057dbf3657c9p-14, 0x1.2217929ff05aep-13, -0x1.073240163609cp-13, 0x1.762758715b4c5p-14, -0x1.9ba2396973759p-15, 0x1.4c28c3e7798f9p-16, -0x1.3fb30873fe82dp-18, -0x1.b18a8b1c01178p-55},
	{0x1.ffffe0bd3e852p-01, 0x1.c282cd3957edap-18, -0x1.86ad6df7ba401p-16, 0x1.b0f313eeb65aep-15, -0x1.56e457745d482p-14, 0x1.9ad1f65a72e01p-14, -0x1.7f92ad8659d0ep-14, 0x1.1a5578f060b5ep-14, -0x1.4548ced07818cp-15, 0x1.19e319a9fc26fp-16, -0x1.3f9c2a537c4bbp-18, -0x1.d7ece48eb2a5p-58},
	{0x1.ffffec2641a9ep-01, 0x1.22df298214423p-18, -0x1.00c902a4d5e27p-16, 0x1.22234eb745952p-15, -0x1.d57a2be01de03p-15, 0x1.200c2ffacaa99p-14, -0x1.147585d3742acp-14, 0x1.a4b07bc40554dp-15, -0x1.f9d09587b5d75p-16, 0x1.d2a535156b055p-17, -0x1.2b722f39d636ap-18, -0x1.e7ba4fdd8fb93p-55},
	{0x1.fffff37d63a36p-01, 0x1.74adc8f4064d3p-19, -0x1.4ed4228b3da96p-17, 0x1.81918baca19a6p-16, -0x1.3e81c09c29629p-15, 0x1.9004afecfcd9cp-15, -0x1.8a40e183d930fp-15, 0x1.359243c3869dap-15, -0x1.834b95af66852p-16, 0x1.79d1a17c85b68p-17, -0x1.0bb465291db58p-18, -0x1.753e324286e6bp-57},
	{0x1.fffff82cdcf1bp-01, 0x1.d9c73698fb1dcp-20, -0x1.b11017e7d5893p-18, 0x1.fc0dfadc2c735p-17, -0x1.ac4e1aa49980ap-16, 0x1.131810ab0cea4p-15, -0x1.1629d94b96792p-15, 0x1.c22a7363543b3p-16, -0x1.24444bc61cca3p-16, 0x1.2bde78ed15236p-17, -0x1.cd72d8132c599p-19, 0x1.046bbe9a11838p-55},
	{0x1.fffffb248c39dp-01, 0x1.2acee2f5ecdb8p-20, -0x1.15cc5700a2341p-18, 0x1.4be757b934876p-17, -0x1.1d6ab6f8cbfc3p-16, 0x1.76c5a3031abfap-16, -0x1.847332575e7e9p-16, 0x1.437f264b54207p-16, -0x1.b305e7ea0c7f4p-17, 0x1.d3634fbd93391p-18, -0x1.81e3caf111c07p-19, 0x1.9b9a417112087p-55},
	{0x1.fffffd01f36afp-01, 0x1.75fa8dbc84becp-21, -0x1.6186d9fc357c5p-19, 0x1.ae02322e088ccp-18, -0x1.79082befd4f56p-17, 0x1.f9c26e20a4046p-17, -0x1.0c768236315eep-16, 0x1.cba71a8ed8f51p-17, -0x1.3f75bf4cf3efp-17, 0x1.661dc8f0e2042p-18, -0x1.3a7abd937adfep-19, -0x1.d41915db16d51p-55},
	{0x1.fffffe2ba0ea5p-01, 0x1.d06ad6ecdf971p-22, -0x1.be46aa879edb2p-20, 0x1.143860c49d1bep-18, -0x1.edabcbc3e60a1p-18, 0x1.52139c878146cp-17, -0x1.6f567cd9e55dp-17, 0x1.42ebd62151ae7p-17, -0x1.cf2f0a061465bp-18, 0x1.0e0e3e2d91a86p-18, -0x1.f50bc4de8e8c5p-20, -0x1.26cd790893493p-55},
	{0x1.fffffee3cc32cp-01, 0x1.1e1e857adc568p-22, -0x1.1769ce59fb2c8p-20, 0x1.5fe5d4756089p-19, -0x1.405da04876021p-18, 0x1.bfc96a92d04ebp-18, -0x1.f19ff5e45fc3cp-18, 0x1.c0c4db581ddadp-18, -0x1.4b9df739f8a25p-18, 0x1.9133e9b099612p-19, -0x1.871012500ba62p-20, 0x1.e429188c25b27p-56},
	{0x1.ffffff54dab72p-01, 0x1.5dcd669f2cd34p-23, -0x1.5b11cbd1ee799p-21, 0x1.bc91a6b1c19d6p-20, -0x1.9c2c5d12df9p-19, 0x1.25d1e3c672ee8p-18, -0x1.4dbe26c8d0a3p-18, 0x1.347bbd5d9a5b7p-18, -0x1.d51d3201f72c3p-19, 0x1.25c44b59c6da8p-19, -0x1.2b8f03b493cbfp-20, -0x1.a443df641c094p-55},
	{0x1.ffffff99b79d2p-01, 0x1.a854ea14102a8p-24, -0x1.aba593e8384aep-22, 0x1.167c252a457c1p-20, -0x1.06d78ca042594p-19, 0x1.7e0f59fc13c3cp-19, -0x1.bb4d483775aa6p-19, 0x1.a39f4316251bp-19, -0x1.47e83b474a779p-19, 0x1.a8505e571e19fp-20, -0x1.c3071e5361a0ep-21, -0x1.58ff1c4273d76p-56},
	{0x1.ffffffc355dfdp-01, 0x1.febc107d5efaap-25, -0x1.055a3c70279a4p-22, 0x1.59ff37766ebaap-21, -0x1.4c53adb9dcb0dp-20, 0x1.ec4924282f2bfp-20, -0x1.23927ad6e706bp-19, 0x1.1a6e0ce5d038bp-19, -0x1.c523a00a4c55bp-20, 0x1.2e659c938d5b8p-20, -0x1.4e0f0e3f05937p-21, 0x1.88cb60fd8541cp-57},
	{0x1.ffffffdc4ad7ap-01, 0x1.30f93c3699078p-25, -0x1.3ce2f890bb01dp-23, 0x1.aa5010863cb4ep-22, -0x1.a08ef1ca16292p-21, 0x1.3a4a6af2b777dp-20, -0x1.7be1e8321e6cdp-20, 0x1.78477f9a1b7e9p-20, -0x1.3593068b63311p-20, 0x1.a9858fcca8fb3p-21, -0x1.e749c2f231af1p-22, -0x1.d75de78779663p-55},
	{0x1.ffffffeb24467p-01, 0x1.6961b8d641d06p-26, -0x1.7d2510f1f969dp-24, 0x1.0476b165acaa1p-22, -0x1.02d3a3b9d1b6fp-21, 0x1.8db3567a5198p-21, -0x1.ea3ef4e1ecf36p-21, 0x1.f03b172701cd5p-21, -0x1.a250d4cd03694p-21, 0x1.27ae82ffb9f57p-21, -0x1.5e3a75aa33425p-22, 0x1.bff89ef337f19p-55},
	{0x1.fffffff3e8892p-01, 0x1.a8e405e651ab6p-27, -0x1.c6c40e5083697p-25, 0x1.3ba47a1751665p-23, -0x1.3ee334beefa5dp-22, 0x1.f2bf9e69e163p-22, -0x1.395c08ab289a6p-21, 0x1.43ee563891805p-21, -0x1.178f166d0307fp-21, 0x1.95f72207a6129p-22, -0x1.f06b105f94331p-23, 0x1.befbf8d26e5c1p-58},
	{0x1.fffffff90b2e3p-01, 0x1.efac5187b2863p-28, -0x1.0d229044adeeep-25, 0x1.7b5bc9db481f1p-24, -0x1.8588212e67288p-23, 0x1.35f42dafddcf4p-22, -0x1.8cd98864b8351p-22, 0x1.a2b8684d082fp-22, -0x1.71aa3652a3fc4p-22, 0x1.1369557d3cb34p-22, -0x1.5b174c3eb47e7p-23, -0x1.d82d94a90edd4p-56},
	{0x1.fffffffc0748fp-01, 0x1.1edfa3c5f5ccap-28, -0x1.3c025a6810c37p-26, 0x1.c42f78a0990bep-25, -0x1.d7c6c3583c86cp-24, 0x1.7dd6ccb35042bp-23, -0x1.f1ec2f6866e11p-23, 0x1.0bf7ab9152a1ep-22, -0x1.e3ab098a5d25ap-23, 0x1.7161d310bea09p-23, -0x1.df10ab46fba95p-24, 0x1.6ef7a9caf1ec9p-57},
	{0x1.fffffffdbff2ap-01, 0x1.4979ac8b28927p-29, -0x1.7015eec377539p-27, 0x1.0b487791595c8p-25, -0x1.1b44b64c3cdc9p-24, 0x1.d23ff3ec1295fp-24, -0x1.357d673b42871p-23, 0x1.53a573b7f0718p-23, -0x1.39211c963981dp-23, 0x1.e9d332e2d4b5bp-24, -0x1.46723af5ac26cp-24, 0x1.49438981074bfp-56},
	{0x1.fffffffebc1a9p-01, 0x1.77756ec9f78fap-30, -0x1.a9530780ca70bp-28, 0x1.3962ecb10e64cp-26, -0x1.51494525df342p-25, 0x1.1a2961b6a4661p-24, -0x1.7d35cd08f3156p-24, 0x1.aa5983b4abf1ep-24, -0x1.91494d8c2d8c8p-24, 0x1.412bf64121c3dp-24, -0x1.b771b4e5a1fb4p-25, 0x1.e0e5facabea72p-56},
	{0x1.ffffffff4b453p-01, 0x1.a887bd2b4404dp-31, -0x1.e78be33fb01d8p-29, 0x1.6c6ef0b686c13p-27, -0x1.8e36e9a44cc0ap-26, 0x1.5286ee3476028p-25, -0x1.d14639551744dp-25, 0x1.090911a5c938ap-24, -0x1.fd0d35f68e564p-25, 0x1.a0966755e30cbp-25, -0x1.243de11452245p-25, 0x1.59b25048a5adap-55},
	{0x1.ffffffff9bec8p-01, 0x1.dc479de0ef001p-32, -0x1.1535aee3eb1b1p-29, 0x1.a4547ed26541fp-28, -0x1.d2308d0deb9c8p-27, 0x1.929d46a52f04dp-26, -0x1.195dbfd1ed94cp-25, 0x1.466323bb3bcdcp-25, -0x1.3fa47558ae6b5p-25, 0x1.0b46e4403e2e2p-25, -0x1.802712981f0a2p-26, -0x1.6755054655a1bp-56},
	{0x1.ffffffffc901cp-01, 0x1.0916f04b6e18bp-32, -0x1.38b90f78fbe12p-30, 0x1.e0d7765327992p-29, -0x1.0e9760d0ac874p-27, 0x1.daad91106f7a4p-27, -0x1.513c51b62b55dp-26, 0x1.8e2816ccca1b4p-26, -0x1.8d6f8287b1b53p-26, 0x1.535606383f7e1p-26, -0x1.f32fb35f9c366p-27, 0x1.9c951c943881dp-57},
	{0x1.ffffffffe202dp-01, 0x1.24caf2c32af14p-33, -0x1.5dfa962d49546p-31, 0x1.10ca1ff2b034ep-29, -0x1.377c7e98de3bbp-28, 0x1.156649dcc74b8p-27, -0x1.9092f4d6aeedbp-27, 0x1.e12a4da48415dp-27, -0x1.e94e37c537417p-27, 0x1.aa53c50c38231p-27, -0x1.40b010e983531p-27, 0x1.a54841f5667f2p-55},
	{0x1.ffffffffefc57p-01, 0x1.40dfd87456f4cp-34, -0x1.848f101ce14c6p-32, 0x1.32fed47f8ebc9p-30, -0x1.638ff4a6981fdp-29, 0x1.416d25116bdd7p-28, -0x1.d78fb229a624p-28, 0x1.2009de1b81ee9p-27, -0x1.2a45b227b4655p-27, 0x1.090ca821d55b1p-27, -0x1.977b1e96fd978p-28, -0x1.8225a9658f48dp-57},
	{0x1.fffffffff748ep-01, 0x1.5ce9ab1670dd2p-35, -0x1.abf69bd9866f4p-33, 0x1.56ae1e8abce9p-31, -0x1.927ca04d1b713p-30, 0x1.713d3b01418f3p-29, -0x1.1318f5d4273eep-28, 0x1.55abb3193e728p-28, -0x1.68218991c99d4p-28, 0x1.4634f4f126c8cp-28, -0x1.001133a03925dp-28, 0x1.ae15e3604479fp-57},
	{0x1.fffffffffb5bp-01, 0x1.7872d9fa10aadp-36, -0x1.d39eaac4a0b43p-34, 0x1.7b67ab8af4bc5p-32, -0x1.c3ced54e6aa51p-31, 0x1.a4875d81e79f8p-30, -0x1.3e213e6a5980dp-29, 0x1.91915d79cca1ap-29, -0x1.aea6e02b14709p-29, 0x1.8d6dc557e255cp-29, -0x1.3e6270b3c3dd5p-29, -0x1.50fb1911906e4p-55},
	{0x1.fffffffffd8b3p-01, 0x1.92ff33023d5bdp-37, -0x1.fae4fe28d12d7p-35, 0x1.a0a80964d8caep-33, -0x1.f6f47be47aa2ap-32, 0x1.dad968c324bep-31, -0x1.6ca68a8578804p-30, 0x1.d3a7ce7658d89p-30, -0x1.fe1561b8d4373p-30, 0x1.df5e6355dbfe4p-30, -0x1.87aee8fbc27c4p-30, -0x1.5182469c21372p-57},
	{0x1.fffffffffeb6p-01, 0x1.ac0f5f3229372p-38, -0x1.108dc99cf03e2p-35, 0x1.c5db17016c62fp-34, -0x1.159f41ea08ab1p-32, 0x1.09ced3e32b2a9p-31, -0x1.9e4dacd860232p-31, 0x1.0dd5fed637acep-30, -0x1.2b3ac24909bddp-30, 0x1.1e3e3c25774fep-30, -0x1.dcd3de009719fp-31, -0x1.4d3f53e684c68p-56},
	{0x1.ffffffffff542p-01, 0x1.c324c20e337dcp-39, -0x1.22c6b11327301p-36, 0x1.ea5f66f89f9d5p-35, -0x1.2ff1e0a81d3e6p-33, 0x1.270ddbd0d82c1p-32, -0x1.d2992b5222d8bp-32, 0x1.3492fc37d4814p-31, -0x1.5bc7590e067bfp-31, 0x1.527ef338c5387p-31, -0x1.1f3f1f41d42fcp-31, 0x1.b57ed63ed8087p-57},
	{0x1.ffffffffffa73p-01, 0x1.d7c593130dd0bp-40, -0x1.33c1e2f16e032p-37, 0x1.06c53fdc7635ep-35, -0x1.4a029a8792fa3p-34, 0x1.44bd8619c5577p-33, -0x1.0474ac344f72ap-32, 0x1.5db2d560438a6p-32, -0x1.906f76a187184p-32, 0x1.8c659ac17f8a2p-32, -0x1.568cfd534acaap-32, -0x1.6fead614b795fp-56},
	{0x1.ffffffffffd27p-01, 0x1.e9810295890ecp-41, -0x1.43262ab4b77acp-38, 0x1.1756eae582bd3p-36, -0x1.6359d5b0d44e1p-35, 0x1.626391b1900aap-34, -0x1.203efc65096edp-33, 0x1.88c0e6edfc52fp-33, -0x1.c8ca563e47693p-33, 0x1.cbb9bbde5f30ap-33, -0x1.9460be649bc2ap-33, 0x1.19e1a84064c3cp-56},
	{0x1.ffffffffffe8dp-01, 0x1.f7f338086a86bp-42, -0x1.509f766d9f27fp-39, 0x1.268e278ee0a38p-37, -0x1.7b7b43e9a4237p-36, 0x1.7f7aad9d636p-35, -0x1.3c3cc6a1aa18cp-34, 0x1.b52ca9d660407p-34, -0x1.0222e4bc4dc87p-33, 0x1.0808a638fdad1p-33, -0x1.d89725e23e4f4p-34, 0x1.e766e2c80135cp-58},
	{0x1.fffffffffff45p-01, 0x1.01647ba798745p-42, -0x1.5be1cf20840d3p-40, 0x1.3418096323cecp-38, -0x1.91e9beb94e3a4p-37, 0x1.9b762250ed191p-36, -0x1.57f3209af6d1fp-35, 0x1.e24bc45fa28bfp-35, -0x1.21132711bd421p-34, 0x1.2c66c12dcaae3p-34, -0x1.116afcc600ca9p-34, -0x1.5948eec884dfap-55},
	{0x1.fffffffffffa2p-01, 0x1.04e15ecc7f3f6p-43, -0x1.64ac1f9b95f8ap-41, 0x1.3fa8302ae20aap-39, -0x1.a62b70897acadp-38, 0x1.b5c6191326f37p-37, -0x1.72de3204d30cap-36, 0x1.07aec04057e5bp-35, -0x1.40c48a0e4f461p-35, 0x1.528cded6a8233p-35, -0x1.394394c94db7ep-35, 0x1.d07509a1a9433p-57},
	{0x1.fffffffffffd1p-01, 0x1.065b9616170d4p-44, -0x1.6acaa58a8be05p-42, 0x1.48fb92d09877ep-40, -0x1.b7ce1a1ead01cp-39, 0x1.cddc55157d8dcp-38, -0x1.8c751cb2087a4p-37, 0x1.1dc7ce2e7245ep-36, -0x1.60b4080926d3p-36, 0x1.79f6700237b95p-36, -0x1.636b1ad628e03p-36, 0x1.3b6fc0b729758p-55},
	{0x1.fffffffffffe9p-01, 0x1.05ca50205d26ap-45, -0x1.6e18ec0d4244p-43, 0x1.4fdb0511052bfp-41, -0x1.c66b3f3fea78ap-40, 0x1.e33127fb0786ep-39, -0x1.a42e6952d695fp-38, 0x1.3302296771e2dp-37, -0x1.80500ce6edb33p-37, 0x1.a206a46e7f8d4p-37, -0x1.8f58221bcf769p-37, -0x1.5fe91226dd51ap-58},
	{0x1.ffffffffffff5p-01, 0x1.0330f0fd69921p-46, -0x1.6e8334c657489p-44, 0x1.541d56105d6abp-42, -0x1.d1ac042ae075dp-41, 0x1.f54864a8e083bp-40, -0x1.b984c725f17cdp-39, 0x1.46ecb1c8cc3e3p-38, -0x1.9efc797d4dcbbp-38, 0x1.ca0bc45bca122p-38, -0x1.bc63a08850e55p-38, -0x1.238f8ed17d9b4p-55},
	{0x1.ffffffffffffbp-01, 0x1.fd3de10d62855p-48, -0x1.6c073be0916d5p-45, 0x1.55a8eab9e6eacp-43, -0x1.d94c87c1c2147p-42, 0x1.01db0808a2548p-40, -0x1.cbfbe4a9f1094p-40, 0x1.5917e72fe74ebp-39, -0x1.bc177898d9baap-39, 0x1.f143d8c00b46cp-39, -0x1.e9cc17fac9beep-39, -0x1.efa4d64f59f62p-55},
	{0x1.ffffffffffffdp-01, 0x1.f05e82aae2bb9p-49, -0x1.66b44c6d7dd99p-46, 0x1.5474bd9d0d91p-44, -0x1.dd1e8c33185d2p-43, 0x1.07114857a6607p-41, -0x1.db252298b3cc2p-41, 0x1.6919f20e59115p-40, -0x1.d6fef2ff3bc09p-40, 0x1.0b713f39ab0e7p-39, -0x1.0b5d2b261ff08p-39, 0x1.6be96953fe014p-55},
	{0x1.fffffffffffffp-01, 0x1.e00e9148a1d25p-50, -0x1.5eaaa4200e34ap-47, 0x1.5088b65676d11p-45, -0x1.dd0b48e0fba89p-44, 0x1.0a271159d501ep-42, -0x1.e6a3e1bd51e07p-42, 0x1.7692a3260547bp-41, -0x1.ef166229d53a2p-41, 0x1.1d0bd535b0289p-40, -0x1.2123d70a7f054p-40, -0x1.0fecc5ed770dep-55},
	{0x1.fffffffffffffp-01, 0x1.ccaaea71ab0dfp-51, -0x1.541a2f15eb495p-48, 0x1.49fd53e8647ebp-46, -0x1.d9144beee54p-45, 0x1.0b09b019fba1ep-43, -0x1.ee312fc55c626p-43, 0x1.812f347c3122cp-42, -0x1.01e65bc2d4784p-41, 0x1.2d0b88aac04fdp-41, -0x1.35c2b758d759fp-41, 0x1.989c6c5d51227p-55},
	{0x1p+00, 0x1.b69f10b0191b5p-52, -0x1.4740ad7362bb6p-49, 0x1.40faaf0a489f7p-47, -0x1.d1535f4c89962p-46, 0x1.09b45cb7b2994p-44, -0x1.f19e9eea833b2p-44, 0x1.88ad97221859bp-43, -0x1.0a51046396da1p-42, 0x1.3b0feaaf00632p-42, -0x1.48c2a459deb6p-42, -0x1.21fb7a81c5444p-55},
}
