// Package mat implements the dense linear algebra kernel used throughout the
// EUCON reproduction: real matrices and vectors, LU / Cholesky / QR
// factorizations, linear least squares, and eigenvalue computation for the
// small systems that arise in model predictive utilization control.
//
// The package replaces the MATLAB runtime the original paper relied on. It
// is deliberately dense-only and allocation-explicit: the matrices in this
// domain are tiny (tens of rows), so clarity and numerical robustness are
// preferred over asymptotic cleverness.
package mat

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Dense is a dense, row-major real matrix.
//
// The zero value is an empty (0×0) matrix. All operations that return a new
// matrix allocate; in-place variants are documented as such.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// New returns a zero-filled r×c matrix.
// It panics if r or c is negative; a zero dimension yields an empty matrix.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("mat: negative dimension")
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewFromRows builds a matrix from row slices. All rows must have equal
// length. The data is copied.
func NewFromRows(rows [][]float64) (*Dense, error) {
	r := len(rows)
	if r == 0 {
		return New(0, 0), nil
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("mat: ragged rows: row 0 has %d columns, row %d has %d", c, i, len(row))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// MustFromRows is NewFromRows that panics on ragged input. It is intended
// for literal matrices in tests and examples.
func MustFromRows(rows [][]float64) *Dense {
	m, err := NewFromRows(rows)
	if err != nil {
		panic(err)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Dense {
	m := New(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
//
//eucon:noalloc
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
//
//eucon:noalloc
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
//
//eucon:noalloc
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

//eucon:noalloc
func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of bounds for %dx%d matrix", i, j, m.rows, m.cols)) //eucon:alloc-ok panic path only; the hot path never formats
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// RowView returns row i as a slice aliasing the matrix storage: no copy is
// made, and writes through the slice mutate the matrix. Intended for
// read-mostly hot loops (dot products against constraint rows).
//
//eucon:noalloc
func (m *Dense) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of bounds for %dx%d matrix", i, m.rows, m.cols)) //eucon:alloc-ok panic path only; the hot path never formats
	}
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// RowPrefix returns the first k rows of m as a matrix aliasing m's storage:
// no copy is made, row i of the view is row i of m, and writes through
// either mutate both. It lets a caller that solves against a leading block
// of a constraint matrix (mpc's rate box inside its full constraint set)
// hand out that block under the parent's row numbering.
func (m *Dense) RowPrefix(k int) *Dense {
	if k < 0 || k > m.rows {
		panic(fmt.Sprintf("mat: RowPrefix %d out of bounds for %dx%d matrix", k, m.rows, m.cols))
	}
	return &Dense{rows: k, cols: m.cols, data: m.data[: k*m.cols : k*m.cols]}
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of bounds for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Add returns m + b. Dimensions must match.
func (m *Dense) Add(b *Dense) *Dense {
	m.checkSameDims(b, "Add")
	out := m.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out
}

func (m *Dense) checkSameDims(b *Dense, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: %s dimension mismatch: %dx%d vs %dx%d", op, m.rows, m.cols, b.rows, b.cols))
	}
}

// Scale returns s·m.
func (m *Dense) Scale(s float64) *Dense {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// Mul returns the matrix product m·b. m's column count must equal b's row
// count.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch: %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k, mv := range mi {
			if IsZero(mv) {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range bk {
				oi[j] += mv * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·v. len(v) must equal the
// column count.
func (m *Dense) MulVec(v []float64) []float64 {
	if m.cols != len(v) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch: %dx%d · %d-vector", m.rows, m.cols, len(v)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, mv := range mi {
			s += mv * v[j]
		}
		out[i] = s
	}
	return out
}

// MulVecTo computes the matrix-vector product m·v into dst, which must
// have length equal to the row count. It performs no allocation; dst may
// not alias v.
//
//eucon:noalloc
func (m *Dense) MulVecTo(dst, v []float64) {
	if m.cols != len(v) {
		panic(fmt.Sprintf("mat: MulVecTo dimension mismatch: %dx%d · %d-vector", m.rows, m.cols, len(v))) //eucon:alloc-ok panic path only; the hot path never formats
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("mat: MulVecTo destination length %d, want %d", len(dst), m.rows)) //eucon:alloc-ok panic path only; the hot path never formats
	}
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, mv := range mi {
			s += mv * v[j]
		}
		dst[i] = s
	}
}

// Slice returns a copy of the submatrix with rows [r0,r1) and columns
// [c0,c1).
func (m *Dense) Slice(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("mat: Slice [%d:%d, %d:%d] out of bounds for %dx%d matrix", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.data[(i-r0)*out.cols:(i-r0+1)*out.cols], m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return out
}

// StackV vertically stacks matrices with equal column counts.
func StackV(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return New(0, 0)
	}
	cols := ms[0].cols
	rows := 0
	for _, m := range ms {
		if m.cols != cols {
			panic(fmt.Sprintf("mat: StackV column mismatch: %d vs %d", cols, m.cols))
		}
		rows += m.rows
	}
	out := New(rows, cols)
	at := 0
	for _, m := range ms {
		copy(out.data[at:at+len(m.data)], m.data)
		at += len(m.data)
	}
	return out
}

// MaxAbs returns the largest absolute element value, or 0 for an empty
// matrix.
func (m *Dense) MaxAbs() float64 {
	var max float64
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Equal reports whether m and b have the same shape and all elements within
// tol of each other.
func (m *Dense) Equal(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(m.rows))
	sb.WriteByte('x')
	sb.WriteString(strconv.Itoa(m.cols))
	sb.WriteString(" [")
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			sb.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(strconv.FormatFloat(m.data[i*m.cols+j], 'g', 6, 64))
		}
	}
	sb.WriteByte(']')
	return sb.String()
}
