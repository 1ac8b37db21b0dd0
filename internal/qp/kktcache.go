package qp

import (
	"math"

	"github.com/rtsyslab/eucon/internal/mat"
)

// rowForm holds a matrix's nonzeros by row: row i's are
// vals[start[i]:start[i+1]], in columns cols[start[i]:start[i+1]],
// ascending. The solver keeps one for each matrix its loop multiplies
// vectors by: A (in kktCache), H, C and Cᵀ (in an LSI).
//
// Its kernels (rowDot, addRow, mulVecTo) visit a row's nonzeros in column
// order, as mat.Dot and Dense.MulVecTo visit every entry, and their
// results are bit for bit the dense ones whenever the vector is finite. A
// sum that starts at +0 is never −0: round-to-nearest gives +0 for every
// exact zero sum except (−0) + (−0). A skipped term mᵢⱼ·vⱼ with mᵢⱼ = ±0
// and vⱼ finite is ±0, and s + (±0) = s for every s but −0, so leaving it
// out changes no bit. A non-finite vⱼ at a zero coefficient is where the
// two part: the dense term 0·±Inf or 0·NaN is NaN, which the row form
// never forms.
type rowForm struct {
	start []int
	cols  []int
	vals  []float64
}

// newRowForm returns m's nonzeros by row, sized to their count exactly.
func newRowForm(m *mat.Dense) rowForm {
	rows := m.Rows()
	nnz := 0
	for i := 0; i < rows; i++ {
		for _, v := range m.RowView(i) {
			if v != 0 { //eucon:float-exact the zero pattern: a term with an exact ±0 coefficient adds nothing (see rowForm)
				nnz++
			}
		}
	}
	r := rowForm{start: make([]int, rows+1), cols: make([]int, 0, nnz), vals: make([]float64, 0, nnz)}
	for i := 0; i < rows; i++ {
		for j, v := range m.RowView(i) {
			if v != 0 { //eucon:float-exact the zero pattern, as counted above
				r.cols = append(r.cols, j)
				r.vals = append(r.vals, v)
			}
		}
		r.start[i+1] = len(r.cols)
	}
	return r
}

// rowDot returns mᵢ·v summed over row i's nonzeros in column order: for a
// finite v, the bits of mat.Dot(mᵢ, v).
//
//eucon:noalloc
func (r *rowForm) rowDot(i int, v []float64) float64 {
	lo, hi := r.start[i], r.start[i+1]
	cols := r.cols[lo:hi]
	vals := r.vals[lo:hi]
	vals = vals[:len(cols)] // lets the compiler drop the vals[k] bounds check
	var s float64
	for k, j := range cols {
		s += vals[k] * v[j]
	}
	return s
}

// addRow adds y·mᵢ to dst over row i's nonzeros: for a finite y, the bits
// of dst[j] += mᵢⱼ·y over every column j.
//
//eucon:noalloc
func (r *rowForm) addRow(dst []float64, i int, y float64) {
	lo, hi := r.start[i], r.start[i+1]
	cols := r.cols[lo:hi]
	vals := r.vals[lo:hi]
	vals = vals[:len(cols)] // as in rowDot
	for k, j := range cols {
		dst[j] += vals[k] * y
	}
}

// mulVecTo sets dst[i] = rowDot(i, v) for every row: for a finite v, the
// bits of Dense.MulVecTo.
//
//eucon:noalloc
func (r *rowForm) mulVecTo(dst, v []float64) {
	for i := range dst {
		dst[i] = r.rowDot(i, v)
	}
}

// kktCache holds what an active-set iteration would otherwise re-derive
// from two constants, the Hessian factor and the constraint matrix: A's
// row form, the vectors H⁻¹·aᵢ and the entries aᵢ·H⁻¹·aⱼ of the Schur
// complement. The two tables are indexed by constraint row number and
// filled on first use by the calls solveKKT would make every iteration
// (the factor's SolveVecTo on the row, the row's product with a solved
// row), so a stored value has the bits a recomputation would. The two
// orders of a pair are separate entries: aᵢ·H⁻¹aⱼ and aⱼ·H⁻¹aᵢ can differ
// in the last bit.
//
// The row form serves every product of a constraint row with a vector that
// is not a Cholesky solve: the start's feasibility and activity tests, the
// line search, the independence test's residual, the KKT right-hand side
// and the Schur entries.
//
// A cache describes one constraint storage, identified by the address of
// its first element (holding it also keeps the storage alive), so a
// row-prefix view shares its parent's row form and tables. The row form is
// built when a storage is first bound; the tables are allocated when a row
// first enters a working set. "Unset" is NaN — an entry of gram, the first
// element of a row of hinv — so there is no side table; a value that
// really is NaN is recomputed on every use, which yields the same NaN.
type kktCache struct {
	base    *float64
	m, n    int       // table dimensions: rows of the storage, variables
	rowForm           // A's nonzeros
	hinv    []float64 // m×n, row i = H⁻¹·aᵢ
	gram    []float64 // m×m, entry (i, j) = aᵢ·H⁻¹·aⱼ
}

// bind points the cache at the constraint matrix of the coming solve. The
// row form and tables survive when a is the storage they describe or a row
// prefix of it; otherwise they are dropped and the row form is rebuilt.
//
//eucon:noalloc
func (c *kktCache) bind(a *mat.Dense) {
	if a == nil || a.Rows() == 0 {
		return // no row to test or to enter a working set
	}
	m, n := a.Rows(), a.Cols()
	var base *float64 // nil for a matrix without columns: every row is empty
	if n > 0 {
		base = &a.RowView(0)[0]
	}
	if base == c.base && n == c.n && m <= c.m {
		return
	}
	*c = kktCache{base: base, m: m, n: n, rowForm: newRowForm(a)} //eucon:alloc-ok the row form is built once per constraint storage
}

// solveRows makes sure H⁻¹·a_w is in hinv for every working row.
//
//eucon:noalloc
func (c *kktCache) solveRows(hchol *mat.SPDFactor, a *mat.Dense, working []int) error {
	if c.hinv == nil {
		c.hinv = make([]float64, c.m*c.n) //eucon:alloc-ok the tables are made once per constraint storage
		c.gram = make([]float64, c.m*c.m) //eucon:alloc-ok the tables are made once per constraint storage
		nan := math.NaN()
		for i := 0; i < c.m; i++ {
			c.hinv[i*c.n] = nan
		}
		for i := range c.gram {
			c.gram[i] = nan
		}
	}
	for _, w := range working {
		row := c.hinv[w*c.n : (w+1)*c.n]
		if !math.IsNaN(row[0]) {
			continue
		}
		// SolveVecTo fails only on a length mismatch, before it writes, so a
		// failed row stays unset.
		if err := hchol.SolveVecTo(row, a.RowView(w)); err != nil {
			return err
		}
	}
	return nil
}

// gramRow fills dst[j] = a_w·H⁻¹·a_working[j], the row of the Schur
// complement that belongs to working row w. solveRows must have covered
// working.
//
//eucon:noalloc
func (c *kktCache) gramRow(dst []float64, w int, working []int) {
	g := c.gram[w*c.m : (w+1)*c.m]
	for j, wj := range working {
		if math.IsNaN(g[wj]) {
			g[wj] = c.rowDot(w, c.hinv[wj*c.n:(wj+1)*c.n])
		}
		dst[j] = g[wj]
	}
}
