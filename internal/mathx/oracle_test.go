package mathx

// Exp's bits are pinned by golden hashes and its accuracy by the math/big
// bound of exp_oracle_test.go. The hashes cover the edges where the
// reduction and the scaling could go wrong and a dense grid past both
// thresholds, so a later accidental bit move fails here even when it stays
// within the bound; TestExpTable holds the table to its definition.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// expEdges are the inputs where the reduction and the scaling could
// part from e^x: signed zero, subnormal inputs, NaN and the infinities,
// both thresholds and their neighbours, and the x at which the 2^k of a
// ln2-wide reduction crosses into and out of the range where it is a
// normal double (k = -1023..-1020 and 1022..1024), each boundary with its
// neighbours on both sides.
func expEdges() []float64 {
	const invLn2 = 1.44269504088896338700e+00
	xs := []float64{
		0, math.Copysign(0, -1),
		5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
		math.SmallestNonzeroFloat64 * 12345, -math.SmallestNonzeroFloat64 * 12345,
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64,
		709.782712893384, -745.1332191019412,
		709.78, 709.7827128933839, -745.13, -708.3964185322641, -708.4,
		1e-300, -1e-300, 1, -1, 0.5, -0.5,
	}
	for _, th := range []float64{709.782712893384, -745.1332191019412} {
		lo, hi := th, th
		for i := 0; i < 8; i++ {
			lo = math.Nextafter(lo, math.Inf(-1))
			hi = math.Nextafter(hi, math.Inf(1))
			xs = append(xs, lo, hi)
		}
	}
	for k := -1080.0; k <= 1025; k++ {
		if k > -1019 && k < 1021 {
			continue
		}
		for _, x0 := range []float64{(k - 0.5) / invLn2, k * Ln2} {
			lo, hi := x0, x0
			xs = append(xs, x0)
			for i := 0; i < 64; i++ {
				lo = math.Nextafter(lo, math.Inf(-1))
				hi = math.Nextafter(hi, math.Inf(1))
				xs = append(xs, lo, hi)
			}
		}
	}
	return xs
}

// expGrid is a dense grid over [-746, 710], past both thresholds, plus
// random bit patterns over the whole double range and random arguments
// in the grid's range.
func expGrid() []float64 {
	const n = 1 << 22
	const lo, hi = -746.0, 710.0
	xs := make([]float64, 0, n+1+2<<20)
	for i := 0; i <= n; i++ {
		xs = append(xs, lo+(hi-lo)*float64(i)/n)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<20; i++ {
		xs = append(xs, math.Float64frombits(r.Uint64()), lo+(hi-lo)*r.Float64())
	}
	return xs
}

// expHash returns the SHA-256 of Exp's result bits over xs.
func expHash(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(Exp(x)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The goldens of the table-method Exp. A change that moves them moves
// every served price that calls Exp; it must re-derive the served goldens
// (the root closedform_golden_test.go and mcgolden_test.go, and
// internal/scenario/golden_test.go) with them.
const (
	expEdgesGolden = "b06639792324c457e5facac5a1c447b3a1e9176ecc0ad8936bbb18244161ce04"
	expGridGolden  = "3c8be5969249f0cb30b25ce1ebb26a90ebf3920037c964ed61455154032260dd"
)

func TestExpGoldenEdges(t *testing.T) {
	if got := expHash(expEdges()); got != expEdgesGolden {
		t.Fatalf("SHA-256 of Exp over the edges = %s, golden %s", got, expEdgesGolden)
	}
}

func TestExpGoldenGrid(t *testing.T) {
	if got := expHash(expGrid()); got != expGridGolden {
		t.Fatalf("SHA-256 of Exp over the grid = %s, golden %s", got, expGridGolden)
	}
}

// TestExpTable recomputes expTable: 2^(j/64) as six square roots of 2^j
// at bigPrec bits, its nearest double, and the nearest double to what
// is left.
func TestExpTable(t *testing.T) {
	for j, e := range expTable {
		y := new(big.Float).SetPrec(bigPrec).SetMantExp(bigF(1), j)
		for i := 0; i < 6; i++ {
			y.Sqrt(y)
		}
		hi, _ := y.Float64()
		lo, _ := y.Sub(y, bigF(hi)).Float64()
		if !sameBits(e[0], hi) || !sameBits(e[1], lo) {
			t.Errorf("expTable[%d] = {%x, %x}, want {%x, %x}", j, e[0], e[1], hi, lo)
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzExpOracle checks Exp against the math/big bound of
// exp_oracle_test.go over its finite range, and its special values
// everywhere else.
func FuzzExpOracle(f *testing.F) {
	for _, x := range expEdges() {
		f.Add(x)
	}
	for _, x := range expBoundEdges() {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		got := Exp(x)
		switch {
		case math.IsNaN(x):
			if !math.IsNaN(got) {
				t.Fatalf("Exp(NaN) = %v", got)
			}
		case x > 710:
			if !math.IsInf(got, 1) {
				t.Fatalf("Exp(%v) = %v, want +Inf", x, got)
			}
		case x < -746:
			if !sameBits(got, 0) {
				t.Fatalf("Exp(%v) = %v, want +0", x, got)
			}
		default:
			checkExpBound(t, x)
		}
	})
}
