// Package mpc implements the model predictive controller at the heart of
// EUCON (paper §6.1): receding-horizon control of the linear
// difference-equation model
//
//	u(k) = u(k−1) + F·Δr(k−1)
//
// minimizing the cost function (7) — tracking error against an exponential
// reference trajectory plus a control-change penalty — subject to output
// constraints u ≤ B and actuator box constraints R_min ≤ r ≤ R_max. The
// constrained optimization is transformed to an inequality-constrained
// least-squares problem and solved by internal/qp, mirroring the paper's
// use of MATLAB's lsqlin.
package mpc

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/rtsyslab/eucon/internal/empc"
	"github.com/rtsyslab/eucon/internal/mat"
	"github.com/rtsyslab/eucon/internal/qp"
)

// Config holds the controller tuning parameters (paper Table 2).
type Config struct {
	// PredictionHorizon is P: how many sampling periods ahead outputs are
	// predicted.
	PredictionHorizon int
	// ControlHorizon is M ≤ P: how many future control moves are decision
	// variables; moves beyond M are zero.
	ControlHorizon int
	// TrefOverTs is the reference-trajectory time constant divided by the
	// sampling period (Tref/Ts in eq. 8). Larger values give slower, smoother
	// convergence.
	TrefOverTs float64
	// QWeights are per-output tracking weights w_i (eq. 7); nil means all 1.
	// Every input's control-penalty weight is 1.
	QWeights []float64
	// DisableOutputConstraints drops the hard u(k+i|k) ≤ B constraints,
	// leaving only the actuator box. Used for ablation studies.
	DisableOutputConstraints bool
	// Solver tunes the underlying QP solver.
	Solver qp.Options
}

func (c Config) validate(n int) error {
	if c.PredictionHorizon < 1 {
		return fmt.Errorf("mpc: prediction horizon %d must be >= 1", c.PredictionHorizon)
	}
	if c.ControlHorizon < 1 || c.ControlHorizon > c.PredictionHorizon {
		return fmt.Errorf("mpc: control horizon %d must be in [1, %d]", c.ControlHorizon, c.PredictionHorizon)
	}
	if c.TrefOverTs <= 0 {
		return errors.New("mpc: TrefOverTs must be positive")
	}
	if c.QWeights != nil && len(c.QWeights) != n {
		return fmt.Errorf("mpc: QWeights has length %d, want %d", len(c.QWeights), n)
	}
	for _, w := range c.QWeights {
		if w < 0 {
			return errors.New("mpc: QWeights must be non-negative")
		}
	}
	return nil
}

// Controller is a MIMO receding-horizon controller for the EUCON plant
// model. It is not safe for concurrent use.
//
// Everything that does not depend on the measurements is computed once at
// construction and cached: the least-squares stack C (and, inside the LSI
// solver, its Hessian CᵀC with Cholesky factorization) and both constraint
// matrices. StepTo only refreshes the right-hand sides, so the steady-state
// control path performs no matrix assembly and no allocation.
type Controller struct {
	f         *mat.Dense // n×m allocation matrix
	setPoints []float64  // B, length n
	rmin      []float64  // length m
	rmax      []float64  // length m
	cfg       Config
	n, m      int

	sqrtQ []float64 // √QWeights
	lam   []float64 // λ_i = 1 − e^{−i/(Tref/Ts)} for i = 1..P

	prevDelta []float64 // Δr(k−1), for the control penalty

	// Anti-windup state: lastRates remembers the rates argument of the
	// previous Step (the rates the plant actually applied), so the move
	// memory can be reconciled with the achieved move when an actuator
	// fault keeps a command from taking effect (see pre).
	lastRates   []float64
	haveLast    bool
	windupSyncs int

	// Cached problem structure (constant across sampling periods).
	cmat  *mat.Dense // least-squares stack C; only d changes per period
	lsi   *qp.LSI    // caches CᵀC + Cholesky, scratch, warm-start set
	aFull *mat.Dense // rate box + output constraints (output part empty when disabled)
	aBox  *mat.Dense // rate box only: a view of aFull's leading rows (the relaxation fallback)

	// heldSteps counts the Steps that held the applied rates (cleared by
	// Reset).
	heldSteps   int
	lastOutcome SolveOutcome

	// Per-period scratch (right-hand sides and starting point).
	dbuf        []float64 // d
	bFull, bBox []float64 // bBox is bFull's rate-box prefix, so one fill serves both
	z0          []float64 // the step's stacked solution; the iterative solve's starting point while it runs
	prevRelaxed bool      // which constraint variant the warm-start set refers to

	// Explicit-MPC state. The law is the offline-compiled piecewise-affine
	// map of internal/empc — an analysis artefact; at run time it only turns
	// on the hit/miss counters (see StepTo).
	law            *empc.Law
	explicitHits   int
	explicitMisses int
	lastExplicit   SolveOutcome // SolveExplicit, SolveExplicitMiss, or SolveOK (no law)

	// GainsTo scratch: the QR factorization of the least-squares stack is
	// constant after construction, so it is computed once on first use and
	// cached with the basis-response buffers.
	gainFac *mat.QR
	gainD   []float64 // basis right-hand side, cmat rows
	gainY   []float64 // Qᵀ·d scratch, cmat rows
	gainZ   []float64 // basis solution, cmat cols
}

// SolveOutcome classifies how a Step obtained its control move: a solve
// with the full constraint set, a solve with the output constraints
// relaxed, or the hold rung. A solver failure never escapes as an error or
// a non-finite rate: every error of the solve, and every non-finite input,
// holds the applied rates. SolveBestIterate and SolveRegularized are no
// longer produced; they keep their values, so the outcomes below them
// keep theirs.
//
//eucon:exhaustive
type SolveOutcome int

const (
	// SolveOK: the constrained solve converged with the full constraint
	// set.
	SolveOK SolveOutcome = iota
	// SolveRelaxed: the hard output constraints were infeasible (severe
	// overload) and were dropped for the period; the tracking term still
	// steers utilization toward the set points.
	SolveRelaxed
	// SolveBestIterate is not produced: an iteration-capped solve holds.
	SolveBestIterate
	// SolveRegularized is not produced: a failed solve holds.
	SolveRegularized
	// SolveHeld: the solve failed (any qp error) or an input was
	// non-finite; the controller held the last-applied rates (Δr = 0). The
	// move memory reconciles itself through the anti-windup resync on the
	// next Step, so no windup accumulates while holding.
	SolveHeld
	// SolveExplicit: SolveOK while an explicit law is attached — the query
	// lay in the law's interior critical region, where the interior solve
	// (qp.LSI.SolveInteriorTo) produces the rates the iterative solver
	// would have returned, bit for bit. Not a degradation.
	SolveExplicit
	// SolveExplicitMiss: an explicit law is attached but the interior solve
	// did not resolve the step (a constrained critical region, off-map or
	// non-finite parameters); the iterative solver or the hold rung
	// produced the move. Reported through ExplicitCounts and
	// LastExplicitOutcome — a step's Outcome always carries the outcome
	// that actually produced the rates.
	SolveExplicitMiss
)

// String implements fmt.Stringer.
func (o SolveOutcome) String() string {
	switch o {
	case SolveOK:
		return "ok"
	case SolveRelaxed:
		return "relaxed"
	case SolveBestIterate:
		return "best-iterate"
	case SolveRegularized:
		return "regularized"
	case SolveHeld:
		return "held"
	case SolveExplicit:
		return "explicit"
	case SolveExplicitMiss:
		return "explicit-miss"
	default:
		return fmt.Sprintf("SolveOutcome(%d)", int(o))
	}
}

// Degraded reports whether the outcome came from below the normal solve
// paths: held (or the retired best-iterate and regularized). An explicit
// hit is a nominal solve; an explicit miss is classified by the outcome
// that actually produced the move, not by the miss itself.
func (o SolveOutcome) Degraded() bool {
	switch o {
	case SolveBestIterate, SolveRegularized, SolveHeld:
		return true
	case SolveOK, SolveRelaxed, SolveExplicit, SolveExplicitMiss:
		return false
	}
	return false
}

// StepResult reports one control computation.
type StepResult struct {
	// DeltaR is the applied control input Δr(k) (first move of the optimal
	// trajectory).
	DeltaR []float64
	// NewRates is r(k−1) + Δr(k), clipped to the rate bounds.
	NewRates []float64
	// PredictedUtil is the model's one-step utilization prediction
	// u(k) + F·Δr(k).
	PredictedUtil []float64
	// OutputConstraintsRelaxed reports that the utilization constraints had
	// to be dropped this period because no rate vector could satisfy them
	// (severe overload); the tracking term still steers u toward B.
	OutputConstraintsRelaxed bool
	// SolverIterations counts active-set iterations used.
	SolverIterations int
	// Outcome reports how NewRates was produced (see SolveOutcome).
	// NewRates is finite and within the rate box for every outcome.
	Outcome SolveOutcome
}

// New builds a controller for the allocation matrix f (n processors × m
// tasks), utilization set points, and per-task rate bounds.
func New(f *mat.Dense, setPoints, rmin, rmax []float64, cfg Config) (*Controller, error) {
	n, m := f.Dims()
	if n == 0 || m == 0 {
		return nil, fmt.Errorf("mpc: empty allocation matrix %dx%d", n, m)
	}
	if len(setPoints) != n {
		return nil, fmt.Errorf("mpc: setPoints has length %d, want %d", len(setPoints), n)
	}
	if len(rmin) != m || len(rmax) != m {
		return nil, fmt.Errorf("mpc: rate bounds have lengths %d/%d, want %d", len(rmin), len(rmax), m)
	}
	for i := range rmin {
		if rmin[i] > rmax[i] {
			return nil, fmt.Errorf("mpc: rmin[%d] = %g > rmax[%d] = %g", i, rmin[i], i, rmax[i])
		}
	}
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	c := &Controller{
		f:         f.Clone(),
		setPoints: mat.VecClone(setPoints),
		rmin:      mat.VecClone(rmin),
		rmax:      mat.VecClone(rmax),
		cfg:       cfg,
		n:         n,
		m:         m,
		prevDelta: make([]float64, m),
		lastRates: make([]float64, m),
	}
	c.sqrtQ = mat.Constant(n, 1)
	if cfg.QWeights != nil {
		for i, w := range cfg.QWeights {
			c.sqrtQ[i] = math.Sqrt(w)
		}
	}
	c.lam = make([]float64, cfg.PredictionHorizon+1)
	for i := 1; i <= cfg.PredictionHorizon; i++ {
		c.lam[i] = 1 - math.Exp(-float64(i)/cfg.TrefOverTs)
	}
	// Hoist every measurement-independent part of the optimization out of
	// the per-period path.
	c.cmat = c.buildLeastSquaresMatrix()
	lsi, err := qp.NewLSI(c.cmat, cfg.Solver)
	if err != nil {
		return nil, fmt.Errorf("mpc: prepare least-squares solver: %w", err)
	}
	c.lsi = lsi
	nz := m * cfg.ControlHorizon
	c.aFull = c.buildConstraintMatrix()
	// A view, not a copy: the solver keys what it caches per constraint row
	// on the matrix storage, so both variants share one table under aFull's
	// row numbers and a relaxed period costs the nominal solve nothing.
	c.aBox = c.aFull.RowPrefix(2 * nz)
	c.bFull = make([]float64, c.aFull.Rows())
	c.bBox = c.bFull[:2*nz]
	c.z0 = make([]float64, nz)
	c.dbuf = make([]float64, c.cmat.Rows())
	return c, nil
}

// SetPoints returns a copy of the current utilization set points.
func (c *Controller) SetPoints() []float64 { return mat.VecClone(c.setPoints) }

// UpdateSetPoints changes the utilization set points online (paper §3.3,
// overload protection: set points can be lowered in anticipation of load).
//
// The explicit law bakes the set points into its affine offsets, so
// changing them detaches any attached law (and stops its hit/miss
// bookkeeping) until CompileExplicit or AttachExplicit is called again.
func (c *Controller) UpdateSetPoints(b []float64) error {
	if len(b) != c.n {
		return fmt.Errorf("mpc: set points have length %d, want %d", len(b), c.n)
	}
	if c.law != nil {
		for i := range b {
			if b[i] != c.setPoints[i] { //eucon:float-exact the law is valid exactly when the baked-in set points are bit-identical to the new ones
				c.law = nil
				c.lastExplicit = SolveOK
				break
			}
		}
	}
	copy(c.setPoints, b)
	return nil
}

// Reset clears the controller's memory of the previous control move and
// the solver's warm-start state.
func (c *Controller) Reset() {
	for i := range c.prevDelta {
		c.prevDelta[i] = 0
	}
	for i := range c.lastRates {
		c.lastRates[i] = 0
	}
	c.haveLast = false
	c.windupSyncs = 0
	c.lsi.ResetWarmStart()
	c.prevRelaxed = false
	c.heldSteps = 0
	c.lastOutcome = SolveOK
	c.explicitHits = 0
	c.explicitMisses = 0
	c.lastExplicit = SolveOK
}

// ContainmentCounts reports how many Steps since construction or Reset
// held the applied rates. The first two results, the retired best-iterate
// and regularized rungs, are always 0.
func (c *Controller) ContainmentCounts() (bestIterate, regularized, held int) {
	return 0, 0, c.heldSteps
}

// LastOutcome reports the SolveOutcome of the most recent Step.
func (c *Controller) LastOutcome() SolveOutcome { return c.lastOutcome }

// AntiWindupSyncs reports how many per-task move-memory entries had to be
// reconciled because the achieved rate move diverged from the commanded
// one (actuator faults, external clamping).
func (c *Controller) AntiWindupSyncs() int { return c.windupSyncs }

// ExplicitCounts reports how many steps since construction or Reset, taken
// with a law attached, the interior solve resolved (hits) versus left to
// the iterative solver or the hold rung (misses). Both are zero when no law
// has ever been attached.
func (c *Controller) ExplicitCounts() (hits, misses int) {
	return c.explicitHits, c.explicitMisses
}

// LastExplicitOutcome reports the explicit-law disposition of the most
// recent Step: SolveExplicit (hit), SolveExplicitMiss (fell back), or
// SolveOK when no law is attached.
func (c *Controller) LastExplicitOutcome() SolveOutcome { return c.lastExplicit }

// ExplicitLaw returns the attached explicit law, or nil.
func (c *Controller) ExplicitLaw() *empc.Law { return c.law }

// Step computes the control input for the next sampling period from the
// measured utilizations u(k) and the currently applied rates r(k−1),
// returning a freshly allocated result. It is StepTo on a new StepResult;
// loops that step every period should own one result and call StepTo.
func (c *Controller) Step(u, rates []float64) (*StepResult, error) {
	out := c.NewStepResult()
	if err := c.StepTo(out, u, rates); err != nil {
		return nil, err
	}
	return out, nil
}

// NewStepResult allocates a StepResult whose slices are sized for this
// controller, for use as the reusable destination of StepTo.
func (c *Controller) NewStepResult() *StepResult {
	return &StepResult{
		DeltaR:        make([]float64, c.m),
		NewRates:      make([]float64, c.m),
		PredictedUtil: make([]float64, c.n),
	}
}

// StepTo is the one implementation of a control step (paper §6.1: one
// constrained least-squares solve per sampling period), writing into a
// caller-owned, reusable StepResult (allocate it once with NewStepResult).
// out's slices are overwritten, never retained, and rates may alias
// out.NewRates from the previous call.
//
// The right-hand sides are filled once, then the interior solve is tried:
// in the steady state — strictly feasible measurements, no rate bound or
// output constraint active — qp.LSI.SolveInteriorTo resolves the move with
// zero allocations and the exact bits the iterative solve would produce
// (its guards are the conditions under which that solve completes in one
// unblocked Newton step from Δr = 0). Otherwise the iterative active-set
// solve produces the move.
//
// StepTo contains every numerical failure of the underlying QP solve and
// never lets one escape: the returned error is non-nil only for caller
// bugs (wrong vector lengths), and NewRates is always finite and inside
// the rate box. Any error of the iterative solve selects the hold rung, and
// so does a non-finite measurement or rate vector, before any solve —
// steering the plant on NaN would poison the move memory.
//
// An attached explicit law does not change the path: it is bookkeeping.
// Every step with a law attached counts as a hit (the interior solve
// resolved it — the law's interior critical region — reported as
// SolveExplicit) or a miss (anything else; Outcome carries the outcome).
//
//eucon:noalloc
func (c *Controller) StepTo(out *StepResult, u, rates []float64) error {
	if err := c.pre(u, rates); err != nil {
		return err
	}
	var x []float64 // stacked solution; nil selects the hold rung
	iters, outcome, relaxed, interior := 0, SolveHeld, false, false
	// A NaN/Inf measurement or rate reached the solver layer (the
	// simulator's and server's hold-last policy, sim.HoldLast, normally
	// substitutes upstream): no trustworthy solve is possible, so hold the
	// applied rates.
	if mat.VecFinite(u) && mat.VecFinite(rates) {
		c.fillLeastSquaresRHS(u, c.dbuf)
		c.fillConstraintRHS(u, rates)
		iters, interior = c.lsi.SolveInteriorTo(c.z0, c.dbuf, c.aFull, c.bFull)
		interior = interior && mat.VecFinite(c.z0[:c.m])
		if interior {
			// The state the iterative solve would leave behind: a non-relaxed
			// converged solve with an empty active set (SolveInteriorTo
			// already cleared the warm-start set).
			x, outcome = c.z0, SolveOK
			c.prevRelaxed = false
		} else {
			x, iters, outcome, relaxed = c.solveIterative(rates) //eucon:alloc-ok off the interior the active-set solve allocates its Result
			copy(c.z0, x)
		}
	}
	if c.law != nil {
		if interior {
			c.explicitHits++
			c.lastExplicit, outcome = SolveExplicit, SolveExplicit
		} else {
			c.explicitMisses++
			c.lastExplicit = SolveExplicitMiss
		}
	}
	c.finish(out, u, rates, x, iters, outcome, relaxed)
	return nil
}

// pre validates the input vectors and runs the anti-windup resync. It runs
// exactly once per sampling period, before anything reads c.prevDelta.
//
// Anti-windup: reconcile the move memory with the move the plant actually
// achieved, rates(k−1) → rates(k). When actuation is healthy the achieved
// move is bit-identical to the commanded Δr(k−1) (both are the same
// subtraction of the same floats), so this is a no-op; when an actuator
// fault dropped, delayed, or clamped the command, the control penalty
// would otherwise keep referencing a move that never happened and the
// internal model would drift while the actuator is stuck.
//
//eucon:noalloc
func (c *Controller) pre(u, rates []float64) error {
	if len(u) != c.n {
		return fmt.Errorf("mpc: utilization vector has length %d, want %d", len(u), c.n) //eucon:alloc-ok error path only; the hot path never formats
	}
	if len(rates) != c.m {
		return fmt.Errorf("mpc: rate vector has length %d, want %d", len(rates), c.m) //eucon:alloc-ok error path only; the hot path never formats
	}
	if c.haveLast {
		for i := 0; i < c.m; i++ {
			achieved := rates[i] - c.lastRates[i]
			if achieved != c.prevDelta[i] { //eucon:float-exact healthy actuation reproduces the exact commanded bits; any difference is a real divergence
				c.windupSyncs++
			}
			c.prevDelta[i] = achieved
		}
	}
	copy(c.lastRates, rates)
	c.haveLast = true
	return nil
}

// solveIterative is the step off the interior: an analytic starting point
// and the warm-started active-set solve. It reads the right-hand sides
// StepTo filled and returns the stacked solution with its iteration count,
// its outcome, and whether the move was solved without the output
// constraints. Any solver error, or a non-finite move, returns a nil
// solution, which selects the hold rung.
func (c *Controller) solveIterative(rates []float64) (x []float64, iters int, outcome SolveOutcome, relaxed bool) {
	z0 := c.z0
	a, b, relaxed := c.start(z0, rates)
	// The warm-start set indexes constraint rows, so it is only meaningful
	// while the constraint variant is unchanged.
	if relaxed != c.prevRelaxed {
		c.lsi.ResetWarmStart()
	}
	res, err := c.lsi.Solve(c.dbuf, a, b, z0)
	c.prevRelaxed = relaxed
	if err != nil || !mat.VecFinite(res.X[:c.m]) {
		return nil, 0, SolveHeld, false
	}
	if relaxed {
		return res.X, res.Iterations, SolveRelaxed, true
	}
	return res.X, res.Iterations, SolveOK, false
}

// start picks the iterative solve's starting point into z0 and the
// constraint variant it is feasible for, analytically: the solver has no
// phase-1. Δr = 0 is feasible unless a processor is over its set point (or a
// rate is outside its box); then the corner move c = R_min − r(k−1), "all
// rates to R_min", is the most aggressive recovery available — F is
// non-negative, so if even the corner violates the output constraints, the
// constraint set is infeasible and the hard utilization constraints are
// relaxed for this period, starting inside the rate box (boxStart).
//
// When the corner is feasible the solve starts at t*·c, the smallest
// feasible step toward it: t* = max bᵢ/(aᵢ·c) over the rows violated at
// Δr = 0 (every such row has bᵢ < 0 and, the corner satisfying it,
// aᵢ·c < 0). Every row holds at both ends of the segment, so it holds at
// t*·c, and the row that sets t* is tight there. The corner itself is a
// vertex with every box row active, which the solver would then spend
// dozens of drops leaving; t*·c seeds the last violated output row and the
// warm rows active there.
func (c *Controller) start(z0, rates []float64) (a *mat.Dense, b []float64, relaxed bool) {
	clear(z0)
	// At Δr = +0 every aᵢ·z0 is exactly +0 (a +0-started sum of ±0 terms;
	// A is finite), so row i's violation is −bᵢ and the test reads b alone.
	if !slices.ContainsFunc(c.bFull, func(bi float64) bool { return bi < -1e-9 }) {
		return c.aFull, c.bFull, false
	}
	for j := 0; j < c.m; j++ {
		z0[j] = c.rmin[j] - rates[j]
	}
	if maxViolation(c.aFull, c.bFull, z0) > 1e-9 && !c.cfg.DisableOutputConstraints {
		c.boxStart(z0, rates)
		return c.aBox, c.bBox, true
	}
	var t float64
	for i, bi := range c.bFull {
		if bi < -1e-9 {
			t = math.Max(t, bi/mat.Dot(c.aFull.RowView(i), z0))
		}
	}
	t = math.Min(t, 1) // a row the corner meets only within 1e-9 puts its ratio past 1
	for j := 0; j < c.m; j++ {
		z0[j] *= t
	}
	return c.aFull, c.bFull, false
}

// boxStart writes the move clamp(r) − r into z0's first block and zeroes
// the rest: a point inside the rate box for any finite rates, and exactly
// Δr = +0 when every rate is already inside it.
func (c *Controller) boxStart(z0, rates []float64) {
	clear(z0)
	for j := 0; j < c.m; j++ {
		z0[j] = math.Max(c.rmin[j], math.Min(c.rmax[j], rates[j])) - rates[j]
	}
}

// finish is the one epilogue of a control step: it turns the stacked
// solution x into the applied move, clamps it to the rate box, stores the
// move memory, predicts the utilization, and writes every field of out.
//
// A nil x (with outcome SolveHeld) selects the hold rung: command Δr = 0,
// keeping the last-applied rates (clipped to the box so even an
// out-of-range caller vector cannot escape). The zeroed move memory is
// reconciled against the achieved move by the anti-windup resync at the
// next step, exactly as for an actuator fault, so holding accumulates no
// windup.
//
//eucon:noalloc
func (c *Controller) finish(out *StepResult, u, rates, x []float64, iters int, outcome SolveOutcome, relaxed bool) {
	delta := sized(out.DeltaR, c.m)
	newRates := sized(out.NewRates, c.m)
	pred := sized(out.PredictedUtil, c.n)
	if x == nil {
		c.heldSteps++
		// The remembered active set belongs to a solve that never completed;
		// clear it so the next period starts from a clean working set.
		c.lsi.ResetWarmStart()
		c.prevRelaxed = false
	}
	// Each element reads rates[i] before writing newRates[i]: the two may be
	// the same slice.
	for i := range newRates {
		r := rates[i]
		if x == nil {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				// Never emit non-finite rates, whatever the caller handed us:
				// fall back to the most conservative end of the box.
				r = c.rmin[i]
			}
			newRates[i] = math.Max(c.rmin[i], math.Min(c.rmax[i], r))
			delta[i] = 0
			continue
		}
		// Guard against solver tolerance drift outside the box.
		nr := math.Max(c.rmin[i], math.Min(c.rmax[i], r+x[i]))
		delta[i] = nr - r
		newRates[i] = nr
	}
	copy(c.prevDelta, delta)
	c.f.MulVecTo(pred, delta)
	for i := range pred {
		pred[i] = u[i] + pred[i]
	}
	c.lastOutcome = outcome
	out.DeltaR, out.NewRates, out.PredictedUtil = delta, newRates, pred
	out.OutputConstraintsRelaxed = relaxed
	out.SolverIterations = iters
	out.Outcome = outcome
}

// sized returns s resliced to length n, reallocating only when the caller
// under-provisioned its capacity.
//
//eucon:noalloc
func sized(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n) //eucon:alloc-ok grows only when the caller under-provisions capacity
	}
	return s[:n]
}

// explicitUtilMax bounds the utilization coordinates of the explicit
// parameter domain. Monitors report busy fractions in [0, 1]; headroom to
// 2 keeps transient overshoot and fault-injected overload on the map.
const explicitUtilMax = 2.0

// BuildExplicitProblem describes the controller's per-period QP as a
// parametric program over θ = (u, r(k−1), Δr(k−1)) for the offline
// explicit-MPC compiler. The affine maps d(θ) = D·θ + D0 and
// b(θ) = S·θ + S0 mirror fillLeastSquaresRHS and fillConstraintRHS row
// for row; the domain box spans [0, explicitUtilMax] per utilization, the
// actuator box per rate, and the widest admissible move per Δr(k−1).
//
// The current set points are baked into D0 and S0: a law compiled from
// this problem is invalidated by UpdateSetPoints.
func (c *Controller) BuildExplicitProblem() *empc.Problem {
	p, mh := c.cfg.PredictionHorizon, c.cfg.ControlHorizon
	nTheta := c.n + 2*c.m
	ell := c.cmat.Rows()
	dm := mat.New(ell, nTheta)
	d0 := make([]float64, ell)
	// Tracking rows: d = √q_r·λ_i·(B_r − u_r).
	for i := 1; i <= p; i++ {
		rowBase := (i - 1) * c.n
		for r := 0; r < c.n; r++ {
			dm.Set(rowBase+r, r, -c.sqrtQ[r]*c.lam[i])
			d0[rowBase+r] = c.sqrtQ[r] * c.lam[i] * c.setPoints[r]
		}
	}
	// First control-penalty block: d = Δr_j(k−1); later blocks zero.
	base := c.n * p
	for j := 0; j < c.m; j++ {
		dm.Set(base+j, c.n+c.m+j, 1)
	}
	mc := c.aFull.Rows()
	sm := mat.New(mc, nTheta)
	s0 := make([]float64, mc)
	// Rate box rows: b_up = Rmax_j − r_j, b_lo = r_j − Rmin_j.
	for i := 0; i < mh; i++ {
		for j := 0; j < c.m; j++ {
			up := 2 * (i*c.m + j)
			sm.Set(up, c.n+j, -1)
			s0[up] = c.rmax[j]
			sm.Set(up+1, c.n+j, 1)
			s0[up+1] = -c.rmin[j]
		}
	}
	// Output rows: b = B_r − u_r.
	if !c.cfg.DisableOutputConstraints {
		obase := 2 * c.m * mh
		for i := 1; i <= p; i++ {
			for r := 0; r < c.n; r++ {
				sm.Set(obase+(i-1)*c.n+r, r, -1)
				s0[obase+(i-1)*c.n+r] = c.setPoints[r]
			}
		}
	}
	lo := make([]float64, nTheta)
	hi := make([]float64, nTheta)
	for r := 0; r < c.n; r++ {
		lo[r], hi[r] = 0, explicitUtilMax
	}
	for j := 0; j < c.m; j++ {
		lo[c.n+j], hi[c.n+j] = c.rmin[j], c.rmax[j]
		span := c.rmax[j] - c.rmin[j]
		lo[c.n+c.m+j], hi[c.n+c.m+j] = -span, span
	}
	return &empc.Problem{
		C: c.cmat.Clone(), A: c.aFull.Clone(),
		D: dm, D0: d0, S: sm, S0: s0,
		ThetaLo: lo, ThetaHi: hi,
		GainRows: c.m,
	}
}

// CompileExplicit compiles the controller's parametric program into a
// piecewise-affine law offline and attaches it, returning the compile
// report. The compile fans region exploration across opts.Workers
// goroutines; the resulting law and its digest are identical for every
// worker count.
func (c *Controller) CompileExplicit(opts empc.Options) (*empc.Report, error) {
	law, rep, err := empc.Compile(c.BuildExplicitProblem(), opts)
	if err != nil {
		return nil, fmt.Errorf("mpc: compile explicit law: %w", err)
	}
	if err := c.AttachExplicit(law); err != nil {
		return nil, err
	}
	return rep, nil
}

// AttachExplicit installs an offline-compiled explicit law; nil detaches.
// The law must have been compiled from this controller's
// BuildExplicitProblem (same dimensions and an interior region).
// Attaching changes no rate: it turns on the hit/miss bookkeeping of
// StepTo.
func (c *Controller) AttachExplicit(law *empc.Law) error {
	if law == nil {
		c.law = nil
		c.lastExplicit = SolveOK
		return nil
	}
	if got, want := law.NumTheta(), c.n+2*c.m; got != want {
		return fmt.Errorf("mpc: explicit law parameter dimension %d, want %d", got, want)
	}
	if got := law.GainRows(); got != c.m {
		return fmt.Errorf("mpc: explicit law gain rows %d, want %d", got, c.m)
	}
	if law.InteriorIndex() < 0 {
		return errors.New("mpc: explicit law has no interior region")
	}
	c.law = law
	c.lastExplicit = SolveOK
	return nil
}

// maxViolation returns the largest constraint violation of A·z ≤ b at z.
func maxViolation(a *mat.Dense, b, z []float64) float64 {
	var v float64
	for i := 0; i < a.Rows(); i++ {
		if d := mat.Dot(a.RowView(i), z) - b[i]; d > v {
			v = d
		}
	}
	return v
}

// buildLeastSquaresMatrix assembles the constant stack C such that the MPC
// cost (7) equals ‖C·z − d‖² for the stacked move vector
// z = [Δr(k|k); …; Δr(k+M−1|k)]. C depends only on F, the weights, and the
// horizons, so it is built once at construction; the measurement-dependent
// d is refreshed per period by fillLeastSquaresRHS.
func (c *Controller) buildLeastSquaresMatrix() *mat.Dense {
	p, mh := c.cfg.PredictionHorizon, c.cfg.ControlHorizon
	nz := c.m * mh
	rows := c.n*p + c.m*mh
	cm := mat.New(rows, nz)

	// Tracking blocks: √Q·F·S_i·z ≈ √Q·(ref(k+i|k) − u(k)) where S_i sums
	// the first min(i, M) moves.
	for i := 1; i <= p; i++ {
		rowBase := (i - 1) * c.n
		blocks := i
		if blocks > mh {
			blocks = mh
		}
		for r := 0; r < c.n; r++ {
			for blk := 0; blk < blocks; blk++ {
				for j := 0; j < c.m; j++ {
					cm.Set(rowBase+r, blk*c.m+j, c.sqrtQ[r]*c.f.At(r, j))
				}
			}
		}
	}
	// Control-change penalty blocks: z_i − z_{i−1}, with z_{−1} the
	// previously applied Δr(k−1).
	base := c.n * p
	for i := 0; i < mh; i++ {
		for j := 0; j < c.m; j++ {
			row := base + i*c.m + j
			cm.Set(row, i*c.m+j, 1)
			if i > 0 {
				cm.Set(row, (i-1)*c.m+j, -1)
			}
		}
	}
	return cm
}

// fillLeastSquaresRHS refreshes d for the current measurements: the
// tracking targets ref − u = λ_i·(B − u) and the previous move in the
// control-penalty rows.
//
//eucon:noalloc
func (c *Controller) fillLeastSquaresRHS(u, d []float64) {
	p, mh := c.cfg.PredictionHorizon, c.cfg.ControlHorizon
	for i := 1; i <= p; i++ {
		rowBase := (i - 1) * c.n
		for r := 0; r < c.n; r++ {
			d[rowBase+r] = c.sqrtQ[r] * c.lam[i] * (c.setPoints[r] - u[r])
		}
	}
	base := c.n * p
	for i := 0; i < mh; i++ {
		for j := 0; j < c.m; j++ {
			row := base + i*c.m + j
			if i == 0 {
				d[row] = c.prevDelta[j]
			} else {
				d[row] = 0
			}
		}
	}
}

// buildConstraintMatrix assembles the constant A of A·z ≤ b: cumulative
// rate box constraints for every move, then (unless disabled) the
// predicted-utilization constraint rows u(k+i|k) ≤ B for i = 1..P. Only b
// depends on the measurements; fillConstraintRHS refreshes it per period.
func (c *Controller) buildConstraintMatrix() *mat.Dense {
	p, mh := c.cfg.PredictionHorizon, c.cfg.ControlHorizon
	nz := c.m * mh
	rows := 2 * c.m * mh
	outputRows := 0
	if !c.cfg.DisableOutputConstraints {
		outputRows = c.n * p
	}
	a := mat.New(rows+outputRows, nz)

	// Rate box: for each horizon step i, r(k−1) + Σ_{j≤i} Δr_j ∈ [Rmin, Rmax].
	for i := 0; i < mh; i++ {
		for j := 0; j < c.m; j++ {
			up := 2 * (i*c.m + j)
			lo := up + 1
			for blk := 0; blk <= i; blk++ {
				a.Set(up, blk*c.m+j, 1)
				a.Set(lo, blk*c.m+j, -1)
			}
		}
	}
	if outputRows > 0 {
		base := rows
		for i := 1; i <= p; i++ {
			blocks := i
			if blocks > mh {
				blocks = mh
			}
			for r := 0; r < c.n; r++ {
				row := base + (i-1)*c.n + r
				for blk := 0; blk < blocks; blk++ {
					for j := 0; j < c.m; j++ {
						a.Set(row, blk*c.m+j, c.f.At(r, j))
					}
				}
			}
		}
	}
	return a
}

// fillConstraintRHS refreshes bFull (and with it its prefix bBox) for the
// current measurements and applied rates.
//
//eucon:noalloc
func (c *Controller) fillConstraintRHS(u, rates []float64) {
	p, mh := c.cfg.PredictionHorizon, c.cfg.ControlHorizon
	b := c.bFull
	for i := 0; i < mh; i++ {
		for j := 0; j < c.m; j++ {
			up := 2 * (i*c.m + j)
			b[up] = c.rmax[j] - rates[j]
			b[up+1] = rates[j] - c.rmin[j]
		}
	}
	if !c.cfg.DisableOutputConstraints {
		base := 2 * c.m * mh
		for i := 1; i <= p; i++ {
			for r := 0; r < c.n; r++ {
				b[base+(i-1)*c.n+r] = c.setPoints[r] - u[r]
			}
		}
	}
}

// Gains returns the unconstrained feedback gain matrices (K_e, K_d) of the
// controller: when no constraint is active, the applied move is
//
//	Δr(k) = K_e·(B − u(k)) + K_d·Δr(k−1).
//
// These matrices drive the closed-loop stability analysis of paper §6.2.
func (c *Controller) Gains() (ke, kd *mat.Dense, err error) {
	ke = mat.New(c.m, c.n)
	kd = mat.New(c.m, c.m)
	if err := c.GainsTo(ke, kd); err != nil {
		return nil, nil, err
	}
	return ke, kd, nil
}

// GainsTo computes the unconstrained feedback gain matrices into the
// caller-provided ke (m×n) and kd (m×m): the allocation-free variant of
// Gains for callers that evaluate the gains repeatedly (stability
// bisection sweeps). The QR factorization of the least-squares stack is
// constant after construction, so the first call computes and caches it;
// subsequent calls only write the caller's matrices. Results are
// bit-identical to Gains.
func (c *Controller) GainsTo(ke, kd *mat.Dense) error {
	if r, cc := ke.Dims(); r != c.m || cc != c.n {
		return fmt.Errorf("mpc: ke is %dx%d, want %dx%d", r, cc, c.m, c.n)
	}
	if r, cc := kd.Dims(); r != c.m || cc != c.m {
		return fmt.Errorf("mpc: kd is %dx%d, want %dx%d", r, cc, c.m, c.m)
	}
	// The least-squares stack is C·z = d with d linear in e = B − u(k) and
	// in Δr(k−1). Solve for each basis vector of e and of Δr(k−1).
	if c.gainFac == nil {
		fac, err := mat.FactorQR(c.cmat)
		if err != nil {
			return fmt.Errorf("mpc: factor gain system: %w", err)
		}
		c.gainFac = fac
		c.gainD = make([]float64, c.cmat.Rows())
		c.gainY = make([]float64, c.cmat.Rows())
		c.gainZ = make([]float64, c.cmat.Cols())
	}
	p := c.cfg.PredictionHorizon
	d, z := c.gainD, c.gainZ
	// Basis responses for e.
	for col := 0; col < c.n; col++ {
		for i := range d {
			d[i] = 0
		}
		for i := 1; i <= p; i++ {
			d[(i-1)*c.n+col] = c.sqrtQ[col] * c.lam[i]
		}
		if err := c.gainFac.SolveLeastSquaresTo(z, c.gainY, d); err != nil {
			return fmt.Errorf("mpc: gain solve (e basis %d): %w", col, err)
		}
		for r := 0; r < c.m; r++ {
			ke.Set(r, col, z[r])
		}
	}
	// Basis responses for Δr(k−1).
	base := c.n * p
	for col := 0; col < c.m; col++ {
		for i := range d {
			d[i] = 0
		}
		d[base+col] = 1
		if err := c.gainFac.SolveLeastSquaresTo(z, c.gainY, d); err != nil {
			return fmt.Errorf("mpc: gain solve (Δr basis %d): %w", col, err)
		}
		for r := 0; r < c.m; r++ {
			kd.Set(r, col, z[r])
		}
	}
	return nil
}

// Structured reports whether the nominal solver's cached Hessian
// factorization uses the banded (structure-exploiting) backend, and its
// half bandwidth (0 when dense). Small or unstructured problems report
// false; the LARGE workloads' block-banded allocation matrices report
// true.
func (c *Controller) Structured() (banded bool, bandwidth int) { return c.lsi.Structured() }
