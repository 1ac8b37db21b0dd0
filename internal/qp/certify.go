package qp

import (
	"math"

	"github.com/rtsyslab/eucon/internal/mat"
)

// Certificate holds the four KKT residuals of a candidate primal-dual pair
// (x, λ) for the QP ½xᵀHx + fᵀx subject to A·x ≤ b. H is positive
// definite, so the residuals all vanish exactly when x is the optimum and
// λ its multipliers, however x was found: small residuals are a proof of
// optimality that does not trust the solver that produced x.
type Certificate struct {
	// Primal is the worst constraint violation ‖(A·x − b)₊‖∞.
	Primal float64
	// Dual is the most negative multiplier, ‖λ₋‖∞.
	Dual float64
	// Complementarity is maxᵢ |λᵢ·(aᵢ·x − bᵢ)|.
	Complementarity float64
	// Stationarity is ‖H·x + f + Aᵀλ‖∞.
	Stationarity float64
}

// Certify evaluates the KKT conditions of the QP at (x, λ), with one
// multiplier per row of a in the sign convention of LSI.Multipliers (a nil
// a takes none). It is pure, allocates nothing, and costs O(n² + mn). A
// non-finite input yields a NaN or infinite residual, which fails any bound.
//
//eucon:noalloc
func Certify(h *mat.Dense, f []float64, a *mat.Dense, b, x, lambda []float64) Certificate {
	var c Certificate
	m := 0
	if a != nil {
		m = a.Rows()
	}
	for i := 0; i < m; i++ {
		r := mat.Dot(a.RowView(i), x) - b[i]
		c.Primal = math.Max(c.Primal, r)
		c.Dual = math.Max(c.Dual, -lambda[i])
		c.Complementarity = math.Max(c.Complementarity, math.Abs(lambda[i]*r))
	}
	for j := range x {
		v := mat.Dot(h.RowView(j), x) + f[j]
		for i := 0; i < m; i++ {
			v += a.At(i, j) * lambda[i]
		}
		c.Stationarity = math.Max(c.Stationarity, math.Abs(v))
	}
	return c
}
