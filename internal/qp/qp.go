// Package qp implements a dense primal active-set solver for strictly
// convex quadratic programs and inequality-constrained least-squares
// problems. It is the Go replacement for the MATLAB lsqlin solver that the
// EUCON paper's controller used (an active-set method in the style of Gill,
// Murray and Wright, "Practical Optimization").
//
// Problems have the form
//
//	minimize   ½·xᵀHx + fᵀx
//	subject to A·x ≤ b
//
// with H symmetric positive definite. Constrained least squares
// (min ‖Cx − d‖₂² s.t. Ax ≤ b) is handled by SolveLSI, which forms
// H = CᵀC + εI to guarantee strict convexity; callers that solve the same
// C against many right-hand sides (the MPC hot path) should build an LSI
// once and reuse it, which caches H and its Cholesky factorization and
// keeps per-solve work allocation-light. Every solve starts from a
// caller-supplied feasible point and never leaves the feasible region; a
// start that violates A·x ≤ b by more than feasTol, or a start or b with a
// non-finite entry, is rejected with ErrInfeasible. There is no phase-1:
// the EUCON controller constructs its starts analytically (internal/mpc).
//
// An iteration stops stepping on its working list when the KKT step is
// small (‖p‖∞ ≤ tol·(1 + ‖x‖∞)) or when the previous iteration took the
// whole step on the same list, blocked by no row: x is then that list's
// minimizer up to rounding, and the multipliers decide between converging
// and dropping a row. Without the second test, a step that rounding keeps
// just above the tolerance is taken again and again on one list, a crawl
// that ends only at the iteration cap.
//
// Internally each active-set iteration solves the equality-constrained
// subproblem through the Schur complement S = Aw·H⁻¹·Awᵀ of the cached H
// factorization, so the per-iteration dense solve is k×k (k = working-set
// size, at most the variable count) instead of (n+k)×(n+k). H and A do not
// change between iterations — through an LSI, not between solves either —
// so the columns H⁻¹·aᵢ and the entries aᵢ·H⁻¹·aⱼ are each derived once
// (kktCache) and an iteration assembles S by lookup. The Householder QR of
// Awᵀ that decides whether a candidate row is independent is kept across
// iterations as well: an add appends one column, a drop refactors only the
// columns behind the dropped one, and the test itself reflects the
// candidate through the kept columns in O(n·k). A is sparse by
// construction (a rate-box row has at most M nonzeros, an output row is a
// row of F), so the cache also keeps its nonzeros by row, built once per
// constraint storage, as an LSI keeps those of H, C and Cᵀ: the start's
// feasibility and activity tests, the line search, the independence test's
// residual, the KKT right-hand side and the products H·x, Cᵀ·d and C·x walk
// only those. An iteration also reuses what did not move: g = H·x + f and
// H⁻¹·g are formed again only after a step that changed a bit of x (a drop
// or a zero step leaves them), and the LU of S is kept with the working
// list it factors, so an iteration on the same list only solves with it.
// What an iteration still pays for, once x has moved, is the Cholesky solve
// for H⁻¹·g and the product H·x; the O(k³) LU of S after every add or drop;
// the independence test's QR column on an add; and the line search. The
// workspace reserves the kept QR and the LU at the variable count, the most
// rows a working set can hold, so a working set that grows row by row from
// a small seed never regrows either mid-solve. The kept factor and the LU
// run FactorQR's and FactorLU's own kernels in their order, a reused value
// is a function of bits that did not change, and a sum over a row's
// nonzeros has the bits of the dense sum for a finite vector, so every
// decision and every iterate is, bit for bit, what from-scratch FactorQR
// and FactorLU calls, a fresh H⁻¹·g and dense products every iteration
// give; and a warm iterative solve allocates only the Result it returns.
//
// Certify checks a solution independently of how it was found: with the
// multipliers an LSI keeps (LSI.Multipliers), four KKT residuals that all
// vanish at the optimum and nowhere else.
package qp

import (
	"errors"
	"fmt"
	"math"

	"github.com/rtsyslab/eucon/internal/mat"
)

// ErrInfeasible is returned when the starting point violates the
// constraints by more than feasTol, or when the start or the right-hand
// side b has a non-finite entry.
var ErrInfeasible = errors.New("qp: infeasible starting point")

// feasTol is how far a starting point may violate A·x ≤ b.
const feasTol = 1e-9

// tol is the activity and optimality tolerance of the active-set loop.
const tol = 1e-9

// ErrMaxIterations is returned when the active-set loop fails to converge;
// the best iterate found so far accompanies the error in Result.X.
var ErrMaxIterations = errors.New("qp: active-set iteration limit reached")

// ErrSingular is returned when a linear system at the heart of the solve
// (the Hessian's Cholesky factorization, or a KKT system with an empty
// working set) is numerically singular. Callers that need to keep a control
// loop alive should treat it as "this problem cannot be solved as posed"
// and hold their previous output.
var ErrSingular = errors.New("qp: numerically singular system")

// Status classifies a solve that produced an iterate (see Result.Status),
// so the best iterate and the failure class arrive together on the hot path
// without error unwrapping. The other failures (ErrInfeasible, ErrSingular)
// have no iterate and return a nil Result.
//
//eucon:exhaustive
type Status int

const (
	// StatusOK: converged to a KKT point within tolerance.
	StatusOK Status = iota
	// StatusIterationCapped: the iteration limit was hit; Result.X holds
	// the best iterate and Result.Stationarity its convergence measure.
	StatusIterationCapped
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusIterationCapped:
		return "iteration-capped"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Options tunes the solver. The zero value selects sensible defaults.
type Options struct {
	// MaxIter caps active-set iterations. Default: 50·(n + rows(A)) + 100.
	MaxIter int
}

func (o Options) withDefaults(n, m int) Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 50*(n+m) + 100
	}
	return o
}

// Result reports a solve outcome.
type Result struct {
	// X is the minimizer (or best iterate on error).
	X []float64
	// Objective is ½xᵀHx + fᵀx at X; LSI.Solve reports ‖C·x − d‖² instead,
	// converged or iteration-capped.
	Objective float64
	// Iterations is the number of active-set iterations performed.
	Iterations int
	// Active lists the indices of constraints active at X.
	Active []int
	// Status classifies the outcome (see Status). A non-OK status always
	// travels with the matching sentinel error, but the Result still holds
	// the best iterate found, so degradation policies can decide whether it
	// is usable.
	Status Status
	// Stationarity is the scaled norm of the last KKT step,
	// ‖p‖∞ / (1 + ‖x‖∞) — the solver's own convergence measure. At a
	// converged solution it is at most the tolerance, unless the solve
	// converged by the full-step rule (see the package doc), when it may
	// read above it: what rounding left of a step already taken. For an
	// iteration-capped solve it quantifies how far from stationary the best
	// iterate is (math.Inf(1) when no KKT step ever succeeded).
	Stationarity float64
}

// workspace holds the per-solve scratch buffers so repeated solves through
// an LSI allocate (almost) nothing, and the kktCache that outlives them. A
// zero workspace is ready for use; ensure sizes it on demand.
type workspace struct {
	x, g, hg, p []float64
	// excess holds aᵢ·x0 − bᵢ for every row: the start's feasibility test
	// and the seeding activity test read it, x not moving in between.
	excess    []float64
	working   []int
	inWorking []bool
	cache     kktCache
	stats     solveStats

	// qr is the Householder QR of Awᵀ, one column per working row in
	// working-set order, kept across iterations: a drop truncates it at the
	// dropped position and the next independence test factors the working
	// rows it lacks. y and r are that test's least-squares solution and
	// residual.
	qr   mat.QR
	y, r []float64
	// lu factors the Schur complement S of solveKKT for the working rows
	// in factored, in order (empty: no factor), so an iteration on the same
	// list solves with it again. S's right-hand side and multipliers live
	// in rhs and mult.
	lu        mat.LU
	factored  []int
	rhs, mult []float64

	// lambda holds the multipliers of the last KKT solve scattered by
	// constraint row (zero off the working set). Only an LSI keeps them
	// (keepLambda): its buffer is sized once, while a one-shot Solve would
	// allocate it per call.
	lambda     []float64
	keepLambda bool
}

// solveStats counts what one solveActiveSet call did to its working set.
// The counters are diagnostics read through export_test.go; nothing on the
// solve path depends on them.
type solveStats struct {
	warmOffered  int // in-range warm-start rows tried at the start point
	warmAdmitted int // of those, rows active there and admitted
	seeded       int // working-set size at entry, admitted warm rows included
	adds         int // blocking rows added by the line search
	drops        int // rows dropped: negative multiplier or degenerate KKT system
	hgKept       int // iterations that reused H⁻¹·g: x did not move since it was formed
	luKept       int // iterations that reused the LU of S: same working list as the last factor
}

func (ws *workspace) ensure(n, m int) {
	if cap(ws.x) < n {
		ws.x = make([]float64, n)
		ws.g = make([]float64, n)
		ws.hg = make([]float64, n)
		ws.p = make([]float64, n)
		ws.y = make([]float64, n)
		ws.r = make([]float64, n)
		ws.rhs = make([]float64, n)
		ws.mult = make([]float64, n)
	}
	ws.x = ws.x[:n]
	ws.g = ws.g[:n]
	ws.hg = ws.hg[:n]
	ws.p = ws.p[:n]
	ws.r = ws.r[:n]
	// A working set never exceeds the variable count: reserve the kept QR
	// and the Schur LU at that size up front, so a working set that grows
	// row by row never reallocates either mid-solve.
	ws.qr.Reset(n)
	ws.qr.Reserve(n)
	ws.lu.Reset(n)
	if cap(ws.factored) < n {
		ws.factored = make([]int, 0, n)
	}
	ws.factored = ws.factored[:0]
	if cap(ws.inWorking) < m {
		ws.inWorking = make([]bool, m)
		ws.excess = make([]float64, m)
	}
	ws.inWorking = ws.inWorking[:m]
	ws.excess = ws.excess[:m]
	for i := range ws.inWorking {
		ws.inWorking[i] = false
	}
	if ws.working == nil {
		ws.working = make([]int, 0, n)
	}
	ws.working = ws.working[:0]
	ws.stats = solveStats{}
	if ws.keepLambda {
		if cap(ws.lambda) < m {
			ws.lambda = make([]float64, m)
		}
		ws.lambda = ws.lambda[:m]
		clear(ws.lambda)
	}
}

// Solve minimizes ½xᵀHx + fᵀx subject to a·x ≤ b, starting from x0. H must
// be symmetric positive definite and x0 feasible: a start that violates the
// constraints by more than feasTol returns ErrInfeasible.
func Solve(h *mat.Dense, f []float64, a *mat.Dense, b []float64, x0 []float64, opts Options) (*Result, error) {
	n := len(f)
	if h.Rows() != n || h.Cols() != n {
		return nil, fmt.Errorf("qp: H is %dx%d, want %dx%d", h.Rows(), h.Cols(), n, n)
	}
	hchol, err := mat.FactorSPDDense(h)
	if err != nil {
		return nil, fmt.Errorf("qp: factor H: %v: %w", err, ErrSingular)
	}
	hrows := newRowForm(h)
	return solveActiveSet(h, &hrows, hchol, f, a, b, x0, nil, opts, &workspace{})
}

// solveActiveSet is the primal active-set loop behind Solve and LSI.Solve.
// hrows is h's row form and hchol its (possibly banded) factorization; ws
// supplies reusable scratch. warm lists constraint indices to try first
// when seeding the working set (the active set of the previous, similar
// solve). Only constraints that are actually active at the starting point
// are admitted, so warm starting changes the search order but never
// correctness. Out-of-range indices are ignored.
func solveActiveSet(h *mat.Dense, hrows *rowForm, hchol *mat.SPDFactor, f []float64, a *mat.Dense, b []float64, x0 []float64, warm []int, opts Options, ws *workspace) (*Result, error) {
	n := len(f)
	m := 0
	if a != nil {
		m = a.Rows()
		if a.Cols() != n {
			return nil, fmt.Errorf("qp: A has %d columns, want %d", a.Cols(), n)
		}
		if len(b) != m {
			return nil, fmt.Errorf("qp: b has length %d, want %d", len(b), m)
		}
	}
	if len(x0) != n {
		return nil, fmt.Errorf("qp: x0 has length %d, want %d", len(x0), n)
	}
	opts = opts.withDefaults(n, m)

	// A NaN passes every comparison below and mat.NormInf skips it, so a
	// non-finite start or bound would otherwise be taken for feasible.
	if !mat.VecFinite(x0) || !mat.VecFinite(b[:m]) {
		return nil, fmt.Errorf("qp: non-finite start or right-hand side: %w", ErrInfeasible)
	}
	ws.ensure(n, m)
	rows := &ws.cache
	rows.bind(a)
	st := &ws.stats
	x := ws.x
	copy(x, x0)
	excess := ws.excess
	var v float64
	for i := 0; i < m; i++ {
		excess[i] = rows.rowDot(i, x) - b[i]
		if excess[i] > v {
			v = excess[i]
		}
	}
	if v > feasTol {
		return nil, fmt.Errorf("qp: x0 violates constraints by %g: %w", v, ErrInfeasible)
	}

	// Working set: indices of constraints treated as equalities. Seed with
	// constraints active at x0, trying the caller's warm-start set first so
	// a solve that resembles the previous one starts from (nearly) the
	// optimal working set.
	working := ws.working
	inWorking := ws.inWorking
	seed := func(i int) bool {
		if len(working) >= n || inWorking[i] {
			return false
		}
		if math.Abs(excess[i]) <= tol && ws.addIfIndependent(a, working, i) {
			working = append(working, i)
			inWorking[i] = true
			return true
		}
		return false
	}
	for _, i := range warm {
		if i >= 0 && i < m {
			st.warmOffered++
			if seed(i) {
				st.warmAdmitted++
			}
		}
	}
	for i := 0; i < m; i++ {
		seed(i)
	}
	st.seeded = len(working)

	iter := 0
	stationarity := math.Inf(1) // scaled norm of the most recent KKT step
	// g = H·x + f, H⁻¹·g and 1 + ‖x‖∞ are functions of x: they are formed
	// again only after a step that changed a bit of x, never after a drop,
	// a zero step or a step that rounds away.
	moved, scale := true, 0.0
	// full: the last iteration took the whole KKT step, blocked by no row,
	// on the working list this one solves, so this one checks the
	// multipliers whatever ‖p‖ reads (the full-step rule, package doc).
	full := false
	for ; iter < opts.MaxIter; iter++ {
		var err error
		if moved {
			hrows.mulVecTo(ws.g, x)
			for i := range ws.g {
				ws.g[i] += f[i]
			}
			if err = hchol.SolveVecTo(ws.hg, ws.g); err != nil {
				err = fmt.Errorf("solve KKT system: %w", err)
			}
			moved, scale = err != nil, 1+mat.NormInf(x)
		} else {
			st.hgKept++
		}
		var p, lambda []float64
		if err == nil {
			p, lambda, err = solveKKT(hchol, a, working, ws.hg, ws)
		}
		if err != nil {
			// Degenerate working set: drop the most recently added
			// constraint and retry.
			if len(working) == 0 {
				return nil, fmt.Errorf("qp: KKT solve failed with empty working set: %v: %w", err, ErrSingular)
			}
			last := working[len(working)-1]
			working = working[:len(working)-1]
			inWorking[last] = false
			ws.qr.Truncate(len(working))
			st.drops++
			full = false
			continue
		}
		if ws.keepLambda {
			clear(ws.lambda)
			for wi, w := range working {
				ws.lambda[w] = lambda[wi]
			}
		}
		pNorm := mat.NormInf(p)
		stationarity = pNorm / scale
		if full || pNorm <= tol*scale {
			// Stationary on the working set: check multipliers.
			minIdx, minVal := -1, -tol
			for wi, l := range lambda {
				if l < minVal {
					minIdx, minVal = wi, l
				}
			}
			if minIdx < 0 {
				return result(h, f, x, iter, working, StatusOK, stationarity), nil
			}
			// Drop the constraint with the most negative multiplier.
			dropped := working[minIdx]
			working = append(working[:minIdx], working[minIdx+1:]...)
			inWorking[dropped] = false
			ws.qr.Truncate(minIdx)
			st.drops++
			full = false
			continue
		}
		// Line search to the nearest blocking constraint.
		alpha, blocking := 1.0, -1
		for i := 0; i < m; i++ {
			if inWorking[i] {
				continue
			}
			denom := rows.rowDot(i, p)
			if denom <= tol {
				continue
			}
			step := (b[i] - rows.rowDot(i, x)) / denom
			if step < alpha {
				alpha, blocking = step, i
			}
		}
		if alpha < 0 {
			alpha = 0
		}
		full = blocking < 0 // no row blocked, so α = 1
		for i := range x {
			xi := x[i] + alpha*p[i]
			moved = moved || math.Float64bits(xi) != math.Float64bits(x[i])
			x[i] = xi
		}
		if blocking >= 0 && len(working) < n {
			if ws.addIfIndependent(a, working, blocking) {
				working = append(working, blocking)
				inWorking[blocking] = true
				st.adds++
			} else if mat.IsZero(alpha) {
				// Degenerate zero step onto a dependent constraint: give the
				// multiplier check a chance by treating it as stationary next
				// round; avoid infinite loops via the iteration cap.
				continue
			}
		}
	}
	return result(h, f, x, iter, working, StatusIterationCapped, stationarity), ErrMaxIterations
}

// result copies the iterate out of the workspace into a caller-owned
// Result.
func result(h *mat.Dense, f, x []float64, iter int, working []int, status Status, stationarity float64) *Result {
	return &Result{
		X:            mat.VecClone(x),
		Objective:    objective(h, f, x),
		Iterations:   iter,
		Active:       append([]int(nil), working...),
		Status:       status,
		Stationarity: stationarity,
	}
}

// addIfIndependent reports whether row idx of a is linearly independent of
// the rows already in the working set (so the KKT system stays nonsingular)
// and, when it is, appends the row's column to the kept factor ws.qr; the
// caller then appends idx to the working set.
//
// The test is the least-squares problem min‖Awᵀy − aᵢ‖: a tiny residual
// means aᵢ ∈ span(rows of Aw). Its arithmetic is FactorQR of Awᵀ followed by
// SolveLeastSquaresTo and the residual's norm, in that order, but the
// reflectors of the working rows are the kept ones, so a test costs
// O(n·k) instead of a fresh O(n·k²) factorization, and Qᵀ·aᵢ, which the
// test forms anyway, is the new column's state before its own reflector.
//
//eucon:noalloc
func (ws *workspace) addIfIndependent(a *mat.Dense, working []int, idx int) bool {
	f := &ws.qr
	for j := f.Cols(); j < len(working); j++ { // the rows a drop cut off
		f.Stage(a.RowView(working[j]))
		f.Commit()
	}
	ai := a.RowView(idx)
	z := f.Stage(ai)
	k := len(working)
	if k == 0 {
		if !(mat.Norm2(ai) > 0) {
			return false
		}
		f.Commit()
		return true
	}
	// A rank-deficient basis fails the back-substitution; the row is then
	// admitted and the KKT fallback handles the degenerate system.
	if y := ws.y[:k]; f.SolveR(y, z) {
		// r = Awᵀ·y, each entry summed over the working rows in order as
		// Dense.MulVec sums a row, then ‖r − aᵢ‖ as Norm2 forms it. The sum
		// runs over the nonzeros, which for a finite y gives the same bits
		// (see kktCache).
		r := ws.r
		clear(r)
		for j, w := range working {
			ws.cache.addRow(r, w, y[j])
		}
		var ss float64
		for i, v := range ai {
			d := r[i] - v
			ss += d * d
		}
		if !(math.Sqrt(ss) > 1e-9*(1+mat.Norm2(ai))) {
			return false
		}
	}
	f.Commit()
	return true
}

// solveKKT solves the equality-constrained subproblem
//
//	min ½pᵀHp + gᵀp  s.t.  Aw·p = 0
//
// from hg = H⁻¹·g, returning the step p and the Lagrange multipliers of
// the working constraints. It uses the Schur complement S = Aw·H⁻¹·Awᵀ, so
// the only dense solve is k×k; the H⁻¹·a_w columns and the entries of S
// are constants of (H, A) and come from ws.cache, which derives each one
// once. S is assembled and factored in workspace storage, and only when
// the working list differs from the one the kept factor describes, so a
// warm call allocates nothing. Both returned slices alias workspace
// storage valid until the next call.
//
//eucon:noalloc
func solveKKT(hchol *mat.SPDFactor, a *mat.Dense, working []int, hg []float64, ws *workspace) (p, lambda []float64, err error) {
	p = ws.p
	k := len(working)
	if k == 0 {
		for i := range p {
			p[i] = -hg[i]
		}
		return p, nil, nil
	}
	cache := &ws.cache
	if err := cache.solveRows(hchol, a, working); err != nil {
		return nil, nil, fmt.Errorf("solve KKT system: %w", err) //eucon:alloc-ok error path
	}
	// S·λ = −Aw·H⁻¹·g with S[i][j] = a_i·H⁻¹·a_j.
	kept := len(ws.factored) == k
	for i := 0; kept && i < k; i++ {
		kept = ws.factored[i] == working[i]
	}
	if kept {
		ws.stats.luKept++
	} else {
		ws.factored = ws.factored[:0] // the storage is about to be overwritten
		s := ws.lu.Reset(k)
		for i, w := range working {
			cache.gramRow(s.RowView(i), w, working)
		}
		if err := ws.lu.Factor(); err != nil {
			return nil, nil, fmt.Errorf("solve KKT system: %w", err) //eucon:alloc-ok error path
		}
		ws.factored = ws.factored[:k] // reserved at n by ensure
		copy(ws.factored, working)
	}
	rhs := ws.rhs[:k]
	for i, w := range working {
		rhs[i] = -cache.rowDot(w, hg)
	}
	lambda = ws.mult[:k]
	if err := ws.lu.SolveVecTo(lambda, rhs); err != nil {
		return nil, nil, fmt.Errorf("solve KKT system: %w", err) //eucon:alloc-ok error path
	}
	// p = −H⁻¹·g − Σ λ_j·H⁻¹·a_j.
	hinv, n := cache.hinv, len(p)
	for i := range p {
		v := -hg[i]
		for j, w := range working {
			v -= lambda[j] * hinv[w*n+i]
		}
		p[i] = v
	}
	return p, lambda, nil
}

func objective(h *mat.Dense, f []float64, x []float64) float64 {
	return 0.5*mat.Dot(x, h.MulVec(x)) + mat.Dot(f, x)
}
