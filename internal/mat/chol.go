package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by FactorCholesky when the input is not
// symmetric positive definite to working precision.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky holds a lower-triangular Cholesky factor: A = L·Lᵀ. The upper
// factor Lᵀ is materialized once at factorization time so both triangular
// solves in SolveVecTo stream rows contiguously instead of striding down a
// column.
type Cholesky struct {
	l  *Dense
	lt *Dense
}

// FactorCholesky computes the Cholesky factorization of a symmetric positive
// definite matrix. Only the lower triangle of a is read.
func FactorCholesky(a *Dense) (*Cholesky, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("mat: FactorCholesky requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	l := New(n, n)
	ld, ad := l.data, a.data
	for j := 0; j < n; j++ {
		lj := ld[j*n : j*n+j]
		var d float64
		for _, v := range lj {
			d += v * v
		}
		d = ad[j*n+j] - d
		if d <= 0 {
			return nil, fmt.Errorf("factor Cholesky at column %d: %w", j, ErrNotPositiveDefinite)
		}
		ljj := math.Sqrt(d)
		ld[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			var s float64
			for k, v := range ld[i*n : i*n+j] {
				s += v * lj[k]
			}
			ld[i*n+j] = (ad[i*n+j] - s) / ljj
		}
	}
	return &Cholesky{l: l, lt: l.T()}, nil
}

// SolveVec solves A·x = b using the factorization.
func (c *Cholesky) SolveVec(b []float64) ([]float64, error) {
	x := make([]float64, len(b))
	if err := c.SolveVecTo(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveVecTo solves A·x = b into dst without allocating. dst and b may
// alias.
//
//eucon:noalloc
func (c *Cholesky) SolveVecTo(dst, b []float64) error {
	n := c.l.rows
	if len(b) != n {
		return fmt.Errorf("mat: Cholesky solve length mismatch: %d vs %d", len(b), n) //eucon:alloc-ok error path only; the hot path never formats
	}
	if len(dst) != n {
		return fmt.Errorf("mat: Cholesky solve destination length mismatch: %d vs %d", len(dst), n) //eucon:alloc-ok error path only; the hot path never formats
	}
	copy(dst, b)
	// Indexing l.data directly keeps the two triangular solves free of
	// per-element bounds-checked accessor calls; the arithmetic and its
	// order are unchanged, so solutions stay bit-identical.
	ld := c.l.data
	// L·y = b, overwriting dst with y.
	for i := 0; i < n; i++ {
		row := ld[i*n : i*n+i]
		s := dst[i]
		for j, v := range row {
			s -= v * dst[j]
		}
		dst[i] = s / ld[i*n+i]
	}
	// Lᵀ·x = y, overwriting dst with x. Row i only reads dst[j] for j > i,
	// which already hold final x values; the cached transpose makes row i
	// of Lᵀ contiguous.
	ltd := c.lt.data
	for i := n - 1; i >= 0; i-- {
		row := ltd[i*n+i+1 : (i+1)*n]
		s := dst[i]
		for j, v := range row {
			s -= v * dst[i+1+j]
		}
		dst[i] = s / ld[i*n+i]
	}
	return nil
}
