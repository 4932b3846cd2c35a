package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

// relErr returns |got-want| / max(|want|, floor).
func relErr(got, want, floor float64) float64 {
	d := math.Abs(got - want)
	m := math.Abs(want)
	if m < floor {
		m = floor
	}
	return d / m
}

func TestExpAccuracy(t *testing.T) {
	for x := -700.0; x <= 700; x += 0.373 {
		if e := relErr(Exp(x), math.Exp(x), 1e-300); e > 4e-16 {
			t.Fatalf("Exp(%g): rel err %g", x, e)
		}
	}
}

func TestExpSpecials(t *testing.T) {
	if Exp(0) != 1 {
		t.Fatal("Exp(0) != 1")
	}
	if !math.IsInf(Exp(1000), 1) {
		t.Fatal("Exp(1000) not +Inf")
	}
	if Exp(-1000) != 0 {
		t.Fatal("Exp(-1000) != 0")
	}
	if !math.IsNaN(Exp(math.NaN())) {
		t.Fatal("Exp(NaN) not NaN")
	}
}

func TestLogAccuracy(t *testing.T) {
	for _, x := range []float64{1e-300, 1e-10, 0.1, 0.5, 0.99, 1, 1.01, 2, math.E, 10, 1e5, 1e300} {
		if e := relErr(Log(x), math.Log(x), 1e-300); e > 4e-16 && math.Abs(Log(x)-math.Log(x)) > 1e-16 {
			t.Fatalf("Log(%g) = %g, want %g", x, Log(x), math.Log(x))
		}
	}
	for x := 0.001; x < 100; x *= 1.0173 {
		if e := relErr(Log(x), math.Log(x), 1e-12); e > 1e-14 {
			t.Fatalf("Log(%g): rel err %g", x, e)
		}
	}
}

func TestLogSpecials(t *testing.T) {
	if Log(1) != 0 {
		t.Fatal("Log(1) != 0")
	}
	if !math.IsInf(Log(0), -1) {
		t.Fatal("Log(0) not -Inf")
	}
	if !math.IsNaN(Log(-1)) {
		t.Fatal("Log(-1) not NaN")
	}
	if !math.IsInf(Log(math.Inf(1)), 1) {
		t.Fatal("Log(+Inf) not +Inf")
	}
	if !math.IsNaN(Log(math.NaN())) {
		t.Fatal("Log(NaN) not NaN")
	}
}

// Property: Exp(Log(x)) == x to high relative accuracy.
func TestExpLogRoundTripQuick(t *testing.T) {
	f := func(u uint32) bool {
		x := 1e-6 + float64(u)/float64(math.MaxUint32)*1e6
		return relErr(Exp(Log(x)), x, 1e-12) < 1e-13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestErfAgainstStdlib(t *testing.T) {
	for x := -6.0; x <= 6.0; x += 0.0137 {
		if e := math.Abs(Erf(x) - math.Erf(x)); e > 1e-15 {
			t.Fatalf("Erf(%g) = %.17g, want %.17g (abs err %g)", x, Erf(x), math.Erf(x), e)
		}
	}
}

func TestErfcAgainstStdlib(t *testing.T) {
	// Relative accuracy must hold deep into the tail, where the advanced
	// Black-Scholes erf substitution operates.
	for x := -10.0; x <= 26.0; x += 0.0731 {
		if e := relErr(Erfc(x), math.Erfc(x), 1e-300); e > 2e-14 {
			t.Fatalf("Erfc(%g) = %g, want %g (rel err %g)", x, Erfc(x), math.Erfc(x), e)
		}
	}
}

func TestErfSpecials(t *testing.T) {
	if Erf(0) != 0 || Erf(math.Inf(1)) != 1 || Erf(math.Inf(-1)) != -1 {
		t.Fatal("Erf specials wrong")
	}
	if Erfc(math.Inf(1)) != 0 || Erfc(math.Inf(-1)) != 2 {
		t.Fatal("Erfc specials wrong")
	}
	if !math.IsNaN(Erf(math.NaN())) || !math.IsNaN(Erfc(math.NaN())) {
		t.Fatal("Erf/Erfc(NaN) not NaN")
	}
}

// Property: Erf is odd and bounded in [-1, 1].
func TestErfOddQuick(t *testing.T) {
	f := func(v int32) bool {
		x := float64(v) / float64(math.MaxInt32) * 8
		if math.Abs(Erf(x)+Erf(-x)) > 1e-16 {
			return false
		}
		return Erf(x) >= -1 && Erf(x) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCNDKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if e := math.Abs(CND(c.x) - c.want); e > 1e-15 {
			t.Fatalf("CND(%g) = %.17g, want %.17g", c.x, CND(c.x), c.want)
		}
	}
}

// The paper's substitution cnd(x) = (1+erf(x/sqrt2))/2 must agree with the
// direct erfc form to absolute precision (Sec. IV-A2: "this substitution
// provides the same accuracy").
func TestCNDErfSubstitution(t *testing.T) {
	for x := -8.0; x <= 8.0; x += 0.0193 {
		if e := math.Abs(CND(x) - 0.5*(1+Erf(x*InvSqrt2))); e > 5e-16 {
			t.Fatalf("CND vs erf substitution at %g differ by %g", x, e)
		}
	}
}

// Property: CND(x) + CND(-x) == 1 (symmetry used by call/put parity).
func TestCNDSymmetryQuick(t *testing.T) {
	f := func(v int32) bool {
		x := float64(v) / float64(math.MaxInt32) * 10
		return math.Abs(CND(x)+CND(-x)-1) < 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCNDMonotone(t *testing.T) {
	prev := -1.0
	for x := -10.0; x <= 10.0; x += 0.01 {
		v := CND(x)
		if v < prev {
			t.Fatalf("CND not monotone at %g", x)
		}
		prev = v
	}
}

func TestPDF(t *testing.T) {
	if e := math.Abs(PDF(0) - InvSqrt2Pi); e > 1e-16 {
		t.Fatalf("PDF(0) = %g", PDF(0))
	}
	if e := relErr(PDF(1), 0.24197072451914337, 1e-300); e > 1e-14 {
		t.Fatalf("PDF(1) = %g", PDF(1))
	}
}

func TestInvCNDRoundTrip(t *testing.T) {
	for p := 1e-12; p < 1; p = p*1.5 + 1e-4 {
		x := InvCND(p)
		if e := math.Abs(CND(x) - p); e > 1e-13*p+1e-16 {
			t.Fatalf("CND(InvCND(%g)) = %g (err %g)", p, CND(x), e)
		}
	}
}

func TestInvCNDKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.8413447460685429, 1},
	}
	for _, c := range cases {
		if e := math.Abs(InvCND(c.p) - c.want); e > 1e-11 {
			t.Fatalf("InvCND(%g) = %.17g, want %.17g", c.p, InvCND(c.p), c.want)
		}
	}
}

func TestInvCNDSpecials(t *testing.T) {
	if !math.IsInf(InvCND(0), -1) || !math.IsInf(InvCND(1), 1) {
		t.Fatal("InvCND boundary values wrong")
	}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if !math.IsNaN(InvCND(p)) {
			t.Fatalf("InvCND(%g) should be NaN", p)
		}
	}
}

// Property: InvCND is antisymmetric about p = 1/2.
func TestInvCNDAntisymmetricQuick(t *testing.T) {
	f := func(u uint32) bool {
		p := (float64(u)/float64(math.MaxUint32))*0.98 + 0.01
		return math.Abs(InvCND(p)+InvCND(1-p)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSqrt(t *testing.T) {
	if Sqrt(4) != 2 || Sqrt(2) != math.Sqrt2 {
		t.Fatal("Sqrt wrong")
	}
}

func TestArrayFunctions(t *testing.T) {
	src := []float64{0.1, 0.5, 1, 2, 3}
	dst := make([]float64, len(src))

	ExpArray(dst, src)
	for i, x := range src {
		if dst[i] != Exp(x) {
			t.Fatalf("ExpArray[%d] mismatch", i)
		}
	}
	LogArray(dst, src)
	for i, x := range src {
		if dst[i] != Log(x) {
			t.Fatalf("LogArray[%d] mismatch", i)
		}
	}
	SqrtArray(dst, src)
	for i, x := range src {
		if dst[i] != Sqrt(x) {
			t.Fatalf("SqrtArray[%d] mismatch", i)
		}
	}
	InvArray(dst, src)
	for i, x := range src {
		if dst[i] != 1/x {
			t.Fatalf("InvArray[%d] mismatch", i)
		}
	}
	ErfArray(dst, src)
	for i, x := range src {
		if dst[i] != Erf(x) {
			t.Fatalf("ErfArray[%d] mismatch", i)
		}
	}
}

func TestArrayInPlace(t *testing.T) {
	buf := []float64{1, 2, 3}
	want := []float64{Exp(1), Exp(2), Exp(3)}
	ExpArray(buf, buf)
	for i := range buf {
		if buf[i] != want[i] {
			t.Fatalf("in-place ExpArray[%d] = %g, want %g", i, buf[i], want[i])
		}
	}
}

func BenchmarkExp(b *testing.B) {
	x := 0.5
	var s float64
	for i := 0; i < b.N; i++ {
		s += Exp(x)
	}
	_ = s
}

func BenchmarkCND(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s += CND(0.3)
	}
	_ = s
}

func BenchmarkInvCND(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s += InvCND(0.3)
	}
	_ = s
}
