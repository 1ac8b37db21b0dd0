package mpc

import "github.com/rtsyslab/eucon/internal/mat"

// NominalProblem exposes the least-squares stack, the full constraint
// matrix and the right-hand sides the most recent StepTo filled, so the
// external test package can hand the controller's own problems to qp.
func (c *Controller) NominalProblem() (cmat *mat.Dense, d []float64, a *mat.Dense, b []float64) {
	return c.cmat, c.dbuf, c.aFull, c.bFull
}

// LastSolution exposes the stacked solution of the most recent StepTo that
// solved and the nominal solver's multipliers, by row of the constraint
// variant its last iterative solve was handed. After an interior step the
// multipliers are an earlier solve's: the step's own are all zero.
func (c *Controller) LastSolution() (x, lambda []float64) { return c.z0, c.lsi.Multipliers() }

// StartFor fills the constraint right-hand side for the measurements u and
// the applied rates, then picks the iterative solve's start into z0 as
// StepTo would: the constraint variant, and whether it is the relaxed one.
func (c *Controller) StartFor(z0, u, rates []float64) (a *mat.Dense, b []float64, relaxed bool) {
	c.fillConstraintRHS(u, rates)
	return c.start(z0, rates)
}
