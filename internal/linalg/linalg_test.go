package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCholeskyKnown(t *testing.T) {
	a := [][]float64{{4, 2}, {2, 5}}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{2, 0}, {1, 2}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(l[i][j]-want[i][j]) > 1e-14 {
				t.Fatalf("L[%d][%d] = %g, want %g", i, j, l[i][j], want[i][j])
			}
		}
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	if _, err := Cholesky([][]float64{{1, 2}, {2, 1}}); err != ErrNotSPD {
		t.Fatalf("indefinite matrix: %v", err)
	}
	if _, err := Cholesky([][]float64{{0, 0}, {0, 1}}); err != ErrNotSPD {
		t.Fatalf("singular matrix: %v", err)
	}
	if _, err := Cholesky([][]float64{{1, 0}}); err == nil {
		t.Fatal("non-square accepted")
	}
}

// Property: L L^T reconstructs A for random SPD matrices A = B B^T + I.
func TestCholeskyReconstructQuick(t *testing.T) {
	f := func(b00, b01, b10, b11 float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0.5
			}
			return math.Mod(x, 10)
		}
		b := [][]float64{{clamp(b00), clamp(b01)}, {clamp(b10), clamp(b11)}}
		a := make([][]float64, 2)
		for i := range a {
			a[i] = make([]float64, 2)
			for j := range a[i] {
				for k := 0; k < 2; k++ {
					a[i][j] += b[i][k] * b[j][k]
				}
				if i == j {
					a[i][j]++
				}
			}
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				var s float64
				for k := 0; k < 2; k++ {
					s += l[i][k] * l[j][k]
				}
				if math.Abs(s-a[i][j]) > 1e-9*(1+math.Abs(a[i][j])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveSPD(t *testing.T) {
	a := [][]float64{{4, 2, 0}, {2, 5, 1}, {0, 1, 3}}
	want := []float64{1, -2, 3}
	b := []float64{0, -5, 7} // a·want
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// y = 2 + 3u - u^2 fitted with basis {1, u, u^2} must recover exactly.
	var x [][]float64
	var y []float64
	for u := 0.0; u <= 2; u += 0.1 {
		x = append(x, []float64{1, u, u * u})
		y = append(y, 2+3*u-u*u)
	}
	c, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(c[i]-want[i]) > 1e-6 {
			t.Fatalf("c[%d] = %g, want %g", i, c[i], want[i])
		}
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Noisy linear data: fitted slope/intercept near truth.
	var x [][]float64
	var y []float64
	noise := []float64{0.01, -0.02, 0.015, -0.005, 0.02, -0.01}
	for i := 0; i < 60; i++ {
		u := float64(i) / 10
		x = append(x, []float64{1, u})
		y = append(y, 1.5+0.7*u+noise[i%len(noise)])
	}
	c, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c[0]-1.5) > 0.05 || math.Abs(c[1]-0.7) > 0.02 {
		t.Fatalf("fit = %v", c)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(nil, nil); err == nil {
		t.Fatal("empty design accepted")
	}
	if _, err := LeastSquares([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged design accepted")
	}
}
