package qp

import (
	"math"

	"github.com/rtsyslab/eucon/internal/mat"
)

// kktCache holds what an active-set iteration would otherwise re-derive
// from two constants, the Hessian factor and the constraint matrix: the
// vectors H⁻¹·aᵢ and the entries aᵢ·H⁻¹·aⱼ of the Schur complement. Both
// tables are indexed by constraint row number and filled on first use by
// the calls solveKKT would make every iteration (the factor's SolveVecTo on
// the row, mat.Dot of a row with a solved row), so a stored value has the
// bits a recomputation would. The two orders of a pair are separate
// entries: Dot(aᵢ, H⁻¹aⱼ) and Dot(aⱼ, H⁻¹aᵢ) can differ in the last bit.
//
// A cache describes one constraint storage, identified by the address of
// its first element (holding it also keeps the storage alive), so a
// row-prefix view shares its parent's tables. Nothing is allocated until a
// row first enters a working set. "Unset" is NaN — an entry of gram, the
// first element of a row of hinv — so there is no side table; a value that
// really is NaN is recomputed on every use, which yields the same NaN.
type kktCache struct {
	base *float64
	m, n int       // table dimensions: rows of the storage, variables
	hinv []float64 // m×n, row i = H⁻¹·aᵢ
	gram []float64 // m×m, entry (i, j) = Dot(aᵢ, H⁻¹·aⱼ)
}

// bind points the cache at the constraint matrix of the coming solve. The
// tables survive when a is the storage they describe or a row prefix of it
// and are dropped otherwise.
//
//eucon:noalloc
func (c *kktCache) bind(a *mat.Dense) {
	if a == nil || a.Rows() == 0 || a.Cols() == 0 {
		return // no row can enter a working set
	}
	base := &a.RowView(0)[0]
	if base == c.base && a.Cols() == c.n && a.Rows() <= c.m {
		return
	}
	*c = kktCache{base: base, m: a.Rows(), n: a.Cols()}
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

// gramRow fills dst[j] = Dot(a_w, H⁻¹·a_working[j]), the row of the Schur
// complement that belongs to working row w. solveRows must have covered
// working.
//
//eucon:noalloc
func (c *kktCache) gramRow(dst []float64, a *mat.Dense, w int, working []int) {
	g := c.gram[w*c.m : (w+1)*c.m]
	for j, wj := range working {
		if math.IsNaN(g[wj]) {
			g[wj] = mat.Dot(a.RowView(w), c.hinv[wj*c.n:(wj+1)*c.n])
		}
		dst[j] = g[wj]
	}
}
