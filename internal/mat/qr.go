package mat

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization of an m×n matrix with m ≥ n:
// A = Q·R with Q orthogonal (stored implicitly as Householder vectors) and R
// upper triangular. Storage follows the LINPACK convention: the strict upper
// triangle of qr holds R, each column k at and below the diagonal holds the
// Householder vector v_k, and rdiag holds R's diagonal.
type QR struct {
	qr    *Dense
	rdiag []float64
}

// FactorQR computes the QR factorization of a. It requires rows ≥ cols.
func FactorQR(a *Dense) (*QR, error) {
	m, n := a.Dims()
	if m < n {
		return nil, fmt.Errorf("mat: FactorQR requires rows >= cols, got %dx%d", m, n)
	}
	qr := a.Clone()
	rdiag := make([]float64, n)
	// The factorization walks the backing array directly: column k of row i
	// is d[i*n+k]. Operation order is the textbook element-wise one, so the
	// factor is a pure function of the input bits.
	d := qr.data
	end := m * n
	for k := 0; k < n; k++ {
		var norm float64
		for o := k * n; o < end; o += n {
			norm = math.Hypot(norm, d[o+k])
		}
		if IsZero(norm) {
			rdiag[k] = 0
			continue
		}
		if d[k*n+k] < 0 {
			norm = -norm
		}
		for o := k * n; o < end; o += n {
			d[o+k] = d[o+k] / norm
		}
		d[k*n+k] = d[k*n+k] + 1
		for j := k + 1; j < n; j++ {
			var s float64
			for o := k * n; o < end; o += n {
				s += d[o+k] * d[o+j]
			}
			s = -s / d[k*n+k]
			for o := k * n; o < end; o += n {
				d[o+j] = d[o+j] + s*d[o+k]
			}
		}
		rdiag[k] = -norm
	}
	return &QR{qr: qr, rdiag: rdiag}, nil
}

// SolveLeastSquares returns argmin‖Ax − b‖₂ via the factorization. It
// returns ErrSingular when R is rank-deficient to working precision.
func (f *QR) SolveLeastSquares(b []float64) ([]float64, error) {
	m, n := f.qr.Dims()
	if len(b) != m {
		return nil, fmt.Errorf("mat: QR solve length mismatch: %d vs %d", len(b), m)
	}
	x := make([]float64, n)
	if err := f.SolveLeastSquaresTo(x, make([]float64, m), b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveLeastSquaresTo computes argmin‖Ax − b‖₂ into x (length cols) using
// scratch (length rows) for the Qᵀ·b product: the allocation-free variant
// of SolveLeastSquares for analysis loops that re-solve against one
// factorization. The arithmetic is identical to SolveLeastSquares, so both
// produce bit-identical solutions.
//
//eucon:noalloc
func (f *QR) SolveLeastSquaresTo(x, scratch, b []float64) error {
	m, n := f.qr.Rows(), f.qr.Cols()
	if len(b) != m || len(scratch) != m {
		return fmt.Errorf("mat: QR solve length mismatch: %d/%d vs %d", len(b), len(scratch), m) //eucon:alloc-ok error path
	}
	if len(x) != n {
		return fmt.Errorf("mat: QR solution length mismatch: %d vs %d", len(x), n) //eucon:alloc-ok error path
	}
	y := scratch
	copy(y, b)
	qr := f.qr.data
	// Apply Qᵀ to b by applying each Householder reflector in order.
	for k := 0; k < n; k++ {
		vk := qr[k*n+k]
		if IsZero(f.rdiag[k]) || IsZero(vk) {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += qr[i*n+k] * y[i]
		}
		s = -s / vk
		for i := k; i < m; i++ {
			y[i] += s * qr[i*n+k]
		}
	}
	// Back-substitute R·x = y[:n].
	scale := f.maxRDiag()
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		ri := qr[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		d := f.rdiag[i]
		if math.Abs(d) < 1e-13*scale || IsZero(d) {
			return fmt.Errorf("least-squares back-substitution at column %d: %w", i, ErrSingular) //eucon:alloc-ok error path
		}
		x[i] = s / d
	}
	return nil
}

//eucon:noalloc
func (f *QR) maxRDiag() float64 {
	max := 1.0
	for _, v := range f.rdiag {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// LeastSquares solves argmin‖Ax − b‖₂ directly (factor + solve).
func LeastSquares(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorQR(a)
	if err != nil {
		return nil, err
	}
	return f.SolveLeastSquares(b)
}
