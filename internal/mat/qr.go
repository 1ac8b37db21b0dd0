package mat

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization of an m×n matrix with m ≥ n:
// A = Q·R with Q orthogonal (stored implicitly as Householder vectors) and R
// upper triangular. Storage is column-major: column j holds R's column j
// above the diagonal and the Householder vector v_j at and below it, and
// rdiag holds R's diagonal.
//
// The factorization is built one column at a time (left-looking): a column
// is reflected by every earlier Householder vector in order and then
// contributes its own. A column's factor depends only on the columns before
// it, so a QR can also be kept across changes to the matrix it describes:
// Stage and Commit append a column, Truncate drops the columns from some
// position on. A factor kept that way holds the bits FactorQR would produce
// for the same columns, because both run the same two kernels (reflect and
// householder) in the same order. A zero QR is ready for Reset.
type QR struct {
	m, n  int       // rows; columns factored so far
	v     []float64 // column j is v[j*m : (j+1)*m]
	rdiag []float64
}

// FactorQR computes the QR factorization of a. It requires rows ≥ cols.
func FactorQR(a *Dense) (*QR, error) {
	m, n := a.Dims()
	if m < n {
		return nil, fmt.Errorf("mat: FactorQR requires rows >= cols, got %dx%d", m, n)
	}
	f := &QR{m: m, v: make([]float64, m*n), rdiag: make([]float64, n)}
	for j := 0; j < n; j++ {
		col := f.v[j*m : (j+1)*m]
		for i := range col {
			col[i] = a.data[i*n+j]
		}
		f.applyQT(col)
		f.Commit()
	}
	return f, nil
}

// Reset empties f and sets its row count, keeping its storage for the
// columns to come.
//
//eucon:noalloc
func (f *QR) Reset(m int) {
	f.m, f.n = m, 0
}

// Cols reports how many columns f has factored.
//
//eucon:noalloc
func (f *QR) Cols() int { return f.n }

// Truncate drops every column from k on, leaving the factor of the first k.
//
//eucon:noalloc
func (f *QR) Truncate(k int) {
	if k < f.n {
		f.n = k
	}
}

// Stage copies col (length m) into the slot after the last factored column
// and applies Qᵀ to it in place: the reflection of every factored column, in
// order. The returned slot is both Qᵀ·col, ready for SolveR, and the
// left-looking state of col as the next column, which Commit turns into its
// factor. The slot stays valid until the next Stage, Commit or Reset. The
// storage grows, keeping the factored columns, when the slot does not fit.
//
//eucon:noalloc
func (f *QR) Stage(col []float64) []float64 {
	m := f.m
	if len(col) != m {
		panic(fmt.Sprintf("mat: QR.Stage column length %d, want %d", len(col), m)) //eucon:alloc-ok panic path only; the hot path never formats
	}
	if (f.n+1)*m > len(f.v) || f.n >= len(f.rdiag) {
		f.grow(f.n + 1) //eucon:alloc-ok storage grows only when a factor outgrows every earlier one
	}
	slot := f.v[f.n*m : (f.n+1)*m]
	copy(slot, col)
	f.applyQT(slot)
	return slot
}

// grow makes room for at least cols columns, doubling (up to m columns) so
// a factor kept across many appends reallocates a logarithmic number of
// times.
func (f *QR) grow(cols int) {
	c := max(cols, min(2*len(f.rdiag), f.m))
	v := make([]float64, c*f.m)
	copy(v, f.v[:f.n*f.m])
	rdiag := make([]float64, c)
	copy(rdiag, f.rdiag[:f.n])
	f.v, f.rdiag = v, rdiag
}

// Commit forms the Householder vector of the staged column and makes it
// column n of the factor. The slot must hold what Stage returned.
//
//eucon:noalloc
func (f *QR) Commit() {
	j, m := f.n, f.m
	f.rdiag[j] = householder(f.v[j*m:(j+1)*m], j)
	f.n++
}

// applyQT overwrites x (length m) with Qᵀ·x by applying each factored
// column's reflector in order. A reflector whose column was zero below the
// diagonal is the identity and is skipped.
//
//eucon:noalloc
func (f *QR) applyQT(x []float64) {
	m := f.m
	for k := 0; k < f.n; k++ {
		v := f.v[k*m : (k+1)*m]
		if IsZero(f.rdiag[k]) || IsZero(v[k]) {
			continue
		}
		reflect(v, x, k)
	}
}

// reflect applies the Householder reflector I − v·vᵀ/v[k] (v nonzero only
// at rows k and below) to x: the one update that both factors a column and
// applies Qᵀ to a right-hand side.
//
//eucon:noalloc
func reflect(v, x []float64, k int) {
	x = x[:len(v)]
	var s float64
	for i := k; i < len(v); i++ {
		s += v[i] * x[i]
	}
	s = -s / v[k]
	for i := k; i < len(v); i++ {
		x[i] = x[i] + s*v[i]
	}
}

// householder turns x[k:] into the Householder vector that maps it onto a
// multiple of the k-th unit vector and returns R's diagonal entry. A column
// that is zero from row k down is left untouched and yields 0.
//
//eucon:noalloc
func householder(x []float64, k int) float64 {
	var norm float64
	for i := k; i < len(x); i++ {
		norm = math.Hypot(norm, x[i])
	}
	if IsZero(norm) {
		return 0
	}
	if x[k] < 0 {
		norm = -norm
	}
	for i := k; i < len(x); i++ {
		x[i] = x[i] / norm
	}
	x[k] = x[k] + 1
	return -norm
}

// SolveLeastSquaresTo computes argmin‖Ax − b‖₂ into x (length cols) using
// scratch (length rows) for the Qᵀ·b product, without allocating, so
// analysis loops can re-solve against one factorization. It returns
// ErrSingular when R is rank-deficient to working precision.
//
//eucon:noalloc
func (f *QR) SolveLeastSquaresTo(x, scratch, b []float64) error {
	m, n := f.m, f.n
	if len(b) != m || len(scratch) != m {
		return fmt.Errorf("mat: QR solve length mismatch: %d/%d vs %d", len(b), len(scratch), m) //eucon:alloc-ok error path
	}
	if len(x) != n {
		return fmt.Errorf("mat: QR solution length mismatch: %d vs %d", len(x), n) //eucon:alloc-ok error path
	}
	y := scratch
	copy(y, b)
	f.applyQT(y)
	if i := f.backSubstitute(x, y); i >= 0 {
		return fmt.Errorf("least-squares back-substitution at column %d: %w", i, ErrSingular) //eucon:alloc-ok error path
	}
	return nil
}

// SolveR solves R·x = y[:Cols()] by back-substitution, x of length Cols().
// It reports false when R is singular to working precision, the case in
// which SolveLeastSquaresTo returns ErrSingular.
//
//eucon:noalloc
func (f *QR) SolveR(x, y []float64) bool {
	return f.backSubstitute(x[:f.n], y) < 0
}

// backSubstitute solves R·x = y[:n] and returns −1, or the first column
// (from the last) whose diagonal is too small to divide by.
//
//eucon:noalloc
func (f *QR) backSubstitute(x, y []float64) int {
	m, n := f.m, f.n
	scale := f.maxRDiag()
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.v[j*m+i] * x[j]
		}
		d := f.rdiag[i]
		if math.Abs(d) < 1e-13*scale || IsZero(d) {
			return i
		}
		x[i] = s / d
	}
	return -1
}

//eucon:noalloc
func (f *QR) maxRDiag() float64 {
	max := 1.0
	for _, v := range f.rdiag[:f.n] {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// SameBits reports whether f and g factor the same number of rows and
// columns into identical bits: every stored reflector, every entry of R
// and R's diagonal.
func (f *QR) SameBits(g *QR) bool {
	if f.m != g.m || f.n != g.n {
		return false
	}
	a, b := f.v[:f.n*f.m], g.v[:g.n*g.m]
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	for i := 0; i < f.n; i++ {
		if math.Float64bits(f.rdiag[i]) != math.Float64bits(g.rdiag[i]) {
			return false
		}
	}
	return true
}
