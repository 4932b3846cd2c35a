// Package linalg provides the small dense linear algebra the Monte Carlo
// extensions need: Cholesky factorization (correlated multi-asset path
// generation) and symmetric-positive-definite solves (the least-squares
// regression of Longstaff-Schwartz). Matrices are row-major [][]float64;
// sizes here are tiny (basis functions, asset counts), so clarity beats
// blocking.
package linalg

import (
	"errors"
	"math"
)

// ErrNotSPD is returned when a matrix is not symmetric positive definite.
var ErrNotSPD = errors.New("linalg: matrix not symmetric positive definite")

// Cholesky returns the lower-triangular L with A = L L^T. A must be
// symmetric positive definite; A is not modified.
func Cholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		if len(a[i]) != n {
			return nil, errors.New("linalg: matrix not square")
		}
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 {
					return nil, ErrNotSPD
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, nil
}

// SolveSPD solves A x = b for symmetric positive definite A via Cholesky
// (forward + back substitution).
func SolveSPD(a [][]float64, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	n := len(b)
	// Forward: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l[i][k] * y[k]
		}
		y[i] = s / l[i][i]
	}
	// Back: L^T x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l[k][i] * x[k]
		}
		x[i] = s / l[i][i]
	}
	return x, nil
}

// LeastSquares fits coefficients c minimizing ||X c - y||^2 by the normal
// equations (X^T X) c = X^T y, with a tiny ridge term for numerical safety
// when columns are nearly collinear. X is row-major (one row per
// observation).
func LeastSquares(x [][]float64, y []float64) ([]float64, error) {
	if len(x) == 0 {
		return nil, errors.New("linalg: empty design matrix")
	}
	p := len(x[0])
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	xty := make([]float64, p)
	for r, row := range x {
		if len(row) != p {
			return nil, errors.New("linalg: ragged design matrix")
		}
		for i := 0; i < p; i++ {
			for j := 0; j <= i; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y[r]
		}
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			xtx[i][j] = xtx[j][i]
		}
		xtx[i][i] += 1e-10 * (1 + xtx[i][i]) // ridge
	}
	return SolveSPD(xtx, xty)
}
