package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	lu    *Dense // packed L (unit lower) and U (upper)
	pivot []int  // row permutation
	sign  int    // permutation parity: +1 or −1
}

// FactorLU computes the LU factorization of the square matrix a with partial
// pivoting. It returns ErrSingular when a pivot underflows working
// precision.
func FactorLU(a *Dense) (*LU, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("mat: FactorLU requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	lu := a.Clone()
	pivot := make([]int, n)
	sign := 1
	for i := range pivot {
		pivot[i] = i
	}
	d := lu.data
	for k := 0; k < n; k++ {
		// Find pivot row.
		p, max := k, math.Abs(d[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(d[i*n+k]); v > max {
				p, max = i, v
			}
		}
		if max < 1e-300 {
			return nil, fmt.Errorf("factor LU at column %d: %w", k, ErrSingular)
		}
		if p != k {
			swapRows(lu, p, k)
			pivot[p], pivot[k] = pivot[k], pivot[p]
			sign = -sign
		}
		rk := d[k*n : (k+1)*n]
		pkk := rk[k]
		for i := k + 1; i < n; i++ {
			ri := d[i*n : (i+1)*n]
			m := ri[k] / pkk
			ri[k] = m
			if IsZero(m) {
				continue
			}
			for j := k + 1; j < n; j++ {
				ri[j] = ri[j] - m*rk[j]
			}
		}
	}
	return &LU{lu: lu, pivot: pivot, sign: sign}, nil
}

func swapRows(m *Dense, i, j int) {
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// SolveVec solves A·x = b for a single right-hand side.
func (f *LU) SolveVec(b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, fmt.Errorf("mat: LU solve length mismatch: %d vs %d", len(b), n)
	}
	x := make([]float64, n)
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	d := f.lu.data
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		var s float64
		for j, v := range d[i*n : i*n+i] {
			s += v * x[j]
		}
		x[i] -= s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		ri := d[i*n : (i+1)*n]
		var s float64
		for j := i + 1; j < n; j++ {
			s += ri[j] * x[j]
		}
		if math.Abs(ri[i]) < 1e-300 {
			return nil, ErrSingular
		}
		x[i] = (x[i] - s) / ri[i]
	}
	return x, nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.lu.rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// SolveVec solves A·x = b directly (factor + solve).
func SolveVec(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b)
}

// Det returns the determinant of a square matrix (0 when singular).
func Det(a *Dense) float64 {
	f, err := FactorLU(a)
	if err != nil {
		return 0
	}
	return f.Det()
}
