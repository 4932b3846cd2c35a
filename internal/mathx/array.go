package mathx

// VML-style batch functions. The Intel Vector Math Library exposes
// whole-array transcendentals (vdExp, vdLn, vdErf, vdCdfNorm, ...); the
// paper's advanced Black-Scholes variant calls these on SOA buffers
// (Sec. IV-A2/3, "Advanced (Using VML)" in Fig. 4). Each function requires
// len(dst) >= len(src) and processes src[i] -> dst[i].
//
// All array functions tolerate dst == src (in-place operation), which the
// kernels use to avoid temporary buffers.

// ExpArray computes dst[i] = e**src[i].
func ExpArray(dst, src []float64) {
	_ = dst[len(src)-1]
	for i, x := range src {
		dst[i] = Exp(x)
	}
}

// LogArray computes dst[i] = ln(src[i]).
func LogArray(dst, src []float64) {
	_ = dst[len(src)-1]
	for i, x := range src {
		dst[i] = Log(x)
	}
}

// SqrtArray computes dst[i] = sqrt(src[i]).
func SqrtArray(dst, src []float64) {
	_ = dst[len(src)-1]
	for i, x := range src {
		dst[i] = Sqrt(x)
	}
}

// InvArray computes dst[i] = 1/src[i].
func InvArray(dst, src []float64) {
	_ = dst[len(src)-1]
	for i, x := range src {
		dst[i] = 1 / x
	}
}

// ErfArray computes dst[i] = erf(src[i]).
func ErfArray(dst, src []float64) {
	_ = dst[len(src)-1]
	for i, x := range src {
		dst[i] = Erf(x)
	}
}
