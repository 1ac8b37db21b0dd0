package qp

import (
	"fmt"
	"math"

	"github.com/rtsyslab/eucon/internal/mat"
)

// regularization added to CᵀC so the least-squares Hessian is strictly
// positive definite even when C is rank deficient (common in EUCON: more
// tasks than processors makes F wide).
const lsiRegularization = 1e-8

// LSI is a reusable solver for inequality-constrained least-squares
// problems sharing one stacked matrix C:
//
//	minimize  ‖C·x − d‖₂²
//	subject to A·x ≤ b
//
// Building an LSI once and calling Solve per right-hand side caches
// H = 2·(CᵀC + εI), its Cholesky factorization, and the nonzeros of H, C
// and Cᵀ by row (the products H·x, Cᵀ·d and C·x walk only those) across
// solves, and reuses all solver scratch buffers — the MPC controller's
// steady-state hot path. An LSI additionally warm-starts each solve from the previous
// solve's active set, and its iterative solves share a kktCache: what an
// active-set iteration derives from H and a constraint row alone is
// computed the first time that row is in a working set and looked up
// afterwards. It is not safe for concurrent use; independent goroutines
// must each own an LSI.
type LSI struct {
	c     *mat.Dense // the stack; its dimensions check d and x0
	h     *mat.Dense
	hchol *mat.SPDFactor
	// Row forms of H, C (the true least-squares objective) and Cᵀ (f).
	hrows, crows, ctrows rowForm

	f     []float64 // −2·Cᵀd scratch
	resid []float64 // C·x − d scratch
	warm  []int     // previous solve's active set
	ws    workspace
	opts  Options

	// Scratch for SolveInteriorTo, sized once at construction so the
	// interior solve performs zero allocations.
	ig, ihg, ip []float64
}

// NewLSI prepares a reusable solver for the fixed stack C. The matrix is
// captured by reference; callers must not mutate it afterwards.
func NewLSI(c *mat.Dense, opts Options) (*LSI, error) {
	n := c.Cols()
	ct := c.T()
	// H = 2·(CᵀC + εI), f = −2·Cᵀd: the factor 2 keeps ½xᵀHx + fᵀx equal to
	// ‖Cx − d‖² − ‖d‖².
	h := ct.Mul(c).Scale(2)
	scale := math.Max(1, h.MaxAbs())
	for i := 0; i < n; i++ {
		h.Set(i, i, h.At(i, i)+lsiRegularization*scale)
	}
	// FactorSPD detects band structure in H (via a fill-reducing ordering of
	// its exact-zero pattern) and selects an O(n·bw²) banded factorization
	// when it pays; small or unstructured Hessians stay on the exact dense
	// path, so existing workloads are bit-identical by construction.
	hchol, err := mat.FactorSPD(h)
	if err != nil {
		return nil, fmt.Errorf("qp: factor least-squares Hessian: %v: %w", err, ErrSingular)
	}
	return &LSI{
		c:      c,
		h:      h,
		hchol:  hchol,
		hrows:  newRowForm(h),
		crows:  newRowForm(c),
		ctrows: newRowForm(ct),
		f:      make([]float64, n),
		resid:  make([]float64, c.Rows()),
		ws:     workspace{keepLambda: true},
		opts:   opts,
		ig:     make([]float64, n),
		ihg:    make([]float64, n),
		ip:     make([]float64, n),
	}, nil
}

// Solve minimizes ‖C·x − d‖² subject to A·x ≤ b from the starting point
// x0, which must be feasible: a start that violates the constraints by
// more than feasTol (1e-9) returns ErrInfeasible and a nil Result. The
// constraint matrix may differ between calls; the warm-start active set is
// only reused when it stays meaningful for the caller's constraint
// ordering.
//
// Like C, a constraint matrix is captured by reference and must not be
// mutated after it has been passed in: the solver remembers the matrix's
// nonzeros by row, and H⁻¹·aᵢ and aᵢ·H⁻¹·aⱼ for the rows that have entered
// a working set, keyed on the matrix storage, and reuses them for as long
// as the same storage (or a mat.Dense.RowPrefix view of it, under the same
// row numbers) keeps being passed, to Solve or to SolveInteriorTo. Handing
// in a different matrix drops what was remembered.
func (s *LSI) Solve(d []float64, a *mat.Dense, b []float64, x0 []float64) (*Result, error) {
	n := s.c.Cols()
	if len(d) != s.c.Rows() {
		return nil, fmt.Errorf("qp: d has length %d, want %d", len(d), s.c.Rows())
	}
	if len(x0) != n {
		return nil, fmt.Errorf("qp: x0 has length %d, want %d", len(x0), n)
	}
	s.ctrows.mulVecTo(s.f, d)
	for i := range s.f {
		s.f[i] *= -2
	}
	res, err := solveActiveSet(s.h, &s.hrows, s.hchol, s.f, a, b, x0, s.warm, s.opts, &s.ws)
	if res == nil {
		return nil, err
	}
	// Report the true least-squares objective rather than the QP form, on
	// an iteration-capped Result too.
	s.crows.mulVecTo(s.resid, res.X)
	var obj float64
	for i, v := range s.resid {
		r := v - d[i]
		obj += r * r
	}
	res.Objective = obj
	if err != nil {
		return res, err
	}
	s.warm = append(s.warm[:0], res.Active...)
	return res, nil
}

// Multipliers returns the Lagrange multipliers of the most recent Solve's
// last KKT solve, one per row of the constraint matrix that Solve was
// handed and zero off its working set, in Certify's sign convention
// (H·x + f + Aᵀλ = 0 at a converged solution). The slice aliases the
// receiver's storage and is overwritten by the next Solve. SolveInteriorTo
// leaves it alone: its solution has no active constraint, so its
// multipliers are zero.
//
//eucon:noalloc
func (s *LSI) Multipliers() []float64 { return s.ws.lambda }

// ResetWarmStart drops the remembered active set (e.g. when the caller
// switches to a constraint system with different row meaning).
//
//eucon:noalloc
func (s *LSI) ResetWarmStart() { s.warm = s.warm[:0] }

// Structured reports whether the cached Hessian factorization uses the
// banded backend, and at what half bandwidth (0 when dense).
func (s *LSI) Structured() (banded bool, bandwidth int) {
	return s.hchol.IsBanded(), s.hchol.Bandwidth()
}

// SolveInteriorTo attempts the interior fast path of Solve for the
// starting point x0 = 0: the solve that the active-set loop would complete
// with an empty working set in one unblocked Newton step, accepted at the
// next iteration by the full-step rule. This is the steady-state case of
// the EUCON controller — no rate bound or output constraint active — and
// what the controller's explicit mode counts as a hit (internal/empc).
//
// When it reports ok, x holds bit-for-bit the iterate that
// Solve(d, a, b, 0) would have returned in Result.X, iters the iteration
// count that Result would carry, and the warm-start set has been cleared
// exactly as that Solve would leave it (the interior solve has an empty
// active set). When it reports !ok, the receiver and x are untouched apart
// from scratch buffers and the caller must run the full Solve, which will
// reproduce every guard decision made here.
//
// Bit-identity argument, guard by guard, against solveActiveSet:
//
//  1. Feasibility and seeding both evaluate mat.Dot(a_i, x0) with x0 = 0.
//     Every term a_ij·0 is ±0 and the +0-initialized accumulator stays +0
//     (IEEE: +0 + ±0 = +0), so Dot is exactly +0, the row-i violation is
//     exactly −b_i, and the seeding activity test is exactly |b_i| ≤ tol.
//     Requiring a finite b_i > tol for every row therefore reproduces
//     "finite, feasible start (feasTol = tol = 1e-9) and nothing seeds the
//     working set" without touching the matrix; a NaN or +Inf b_i fails
//     the test, as it fails Solve.
//  2. With an empty working set, iteration 0 computes g = H·0 + f. Each
//     H·0 row sum is exactly +0 (same argument), so g_i = 0 + f_i, then
//     p = −H⁻¹g via the cached Cholesky factor — replicated literally. f is
//     −2·Cᵀd over Cᵀ's row form, the kernel Solve uses.
//  3. The line search evaluates step = (b_i − Dot(a_i, x))/denom at x = 0;
//     b_i − (+0) == b_i for every float64, so step = b_i/denom bitwise.
//     Any blocking step < 1 means the iterative path would add a
//     constraint: not interior, fall back. Both paths form denom = a_i·p
//     over a_i's nonzeros only (kktCache.rowDot), and for a finite p that
//     is Dot(a_i, p) bit for bit: the +0-initialized sum is never −0, so
//     each skipped term a_ij·p_j = ±0 (a_ij = ±0, p_j finite) leaves it
//     unchanged. The paths share the kernel, so a non-finite p_j at a zero
//     coefficient, where the dense term would be NaN, is skipped by both.
//
// The unblocked step x_i = 0 + 1.0·p_i is replicated literally. Iteration
// 1 then cannot fail: the Cholesky solve errs only on a length mismatch,
// the empty working set gives the KKT step with no factor of S, and the
// full-step rule sends it to the multiplier check, which an empty working
// set passes. So solveActiveSet returns this x with one iteration.
//
//eucon:noalloc
func (s *LSI) SolveInteriorTo(x []float64, d []float64, a *mat.Dense, b []float64) (iters int, ok bool) {
	n := len(s.ip)
	if len(x) != n || len(d) != s.c.Rows() || a == nil || a.Cols() != n {
		return 0, false
	}
	m := a.Rows()
	if len(b) != m {
		return 0, false
	}
	// Bound before any guard, so the storage the controller's first step
	// hands in is the one the row form and tables describe.
	rows := &s.ws.cache
	rows.bind(a)
	maxIter := s.opts.MaxIter
	if maxIter <= 0 {
		maxIter = 50*(n+m) + 100 // mirrors Options.withDefaults
	}
	if maxIter < 2 {
		// The accepting iteration 1 would be past the cap.
		return 0, false
	}
	// Guard 1: finite and strictly feasible, nothing seeds the working set.
	// Checked before the right-hand-side work so misses stay cheap.
	for i := 0; i < m; i++ {
		if !(b[i] > tol && b[i] <= math.MaxFloat64) {
			return 0, false
		}
	}
	// f = −2·Cᵀd, exactly as Solve fills it.
	s.ctrows.mulVecTo(s.f, d)
	for i := range s.f {
		s.f[i] *= -2
	}
	// Iteration 0 from x = 0: g = H·0 + f, p = −H⁻¹g.
	g, hg, p := s.ig, s.ihg, s.ip
	for i := range g {
		g[i] = 0 + s.f[i]
	}
	if s.hchol.SolveVecTo(hg, g) != nil {
		return 0, false // the iterative path fails the same way
	}
	for i := range p {
		p[i] = -hg[i]
	}
	if mat.NormInf(p) <= tol*1 { // scale = 1 + ‖x‖∞ with x = 0
		// Converged at the origin with no working constraints.
		for i := range x {
			x[i] = 0
		}
		s.warm = s.warm[:0]
		return 0, true
	}
	// Guard 3: the full Newton step must be unblocked by every constraint.
	for i := 0; i < m; i++ {
		denom := rows.rowDot(i, p)
		if denom <= tol {
			continue
		}
		if b[i]/denom < 1 {
			return 0, false
		}
	}
	// Unblocked step: x = 0 + 1.0·p, elementwise as the solver writes it.
	for i := range x {
		x[i] = 0 + 1.0*p[i]
	}
	s.warm = s.warm[:0]
	return 1, true
}

// SolveLSI solves the inequality-constrained least-squares problem
//
//	minimize  ‖C·x − d‖₂²
//	subject to A·x ≤ b
//
// the same problem MATLAB's lsqlin solves, from the feasible starting point
// x0 (ErrInfeasible otherwise; see LSI.Solve). Callers solving the same C
// repeatedly should build an LSI instead.
func SolveLSI(c *mat.Dense, d []float64, a *mat.Dense, b []float64, x0 []float64, opts Options) (*Result, error) {
	s, err := NewLSI(c, opts)
	if err != nil {
		return nil, err
	}
	return s.Solve(d, a, b, x0)
}
