package qp_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/experiments"
	"github.com/rtsyslab/eucon/internal/mat"
	"github.com/rtsyslab/eucon/internal/mpc"
	"github.com/rtsyslab/eucon/internal/qp"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// This file replays the controller's own constrained least-squares problems
// against LSIs the test owns, so the solver's test hooks (working-set
// counters, cache drops) can be read on the problems the closed loop
// actually poses. A replayer rebuilds each period's right-hand sides from
// the recorded (u, rates) row the way mpc fills them, picks the constraint
// variant and starting point the way mpc.StepTo does, and checks every
// period against a real mpc.Controller stepped alongside: same iteration
// count, same relaxation, same applied rates to the bit — and, over a
// recorded run, the rates the simulator recorded for the next period. A
// replayed problem that passes is the controller's problem.

// recording is the controller-input side of one closed-loop run.
type recording struct {
	sys      *task.System
	cfg      core.Config
	u, rates [][]float64
}

func recordMediumDynamic(t *testing.T) recording {
	t.Helper()
	tr, err := experiments.Run(context.Background(), experiments.Spec{Workload: experiments.WorkloadMedium, ETF: experiments.DynamicETF(), Seed: experiments.DefaultSeed})
	if err != nil {
		t.Fatal(err)
	}
	return recording{workload.Medium(), workload.MediumController(), tr.Utilization, tr.Rates}
}

// recordLargeStepUp is the benchmark's large-central run: LARGE-8 under
// the centralized controller, execution times doubling at period 60.
func recordLargeStepUp(t *testing.T) recording {
	t.Helper()
	sys, err := workload.Large(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.LargeController()
	ctrl, err := core.New(sys, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	etf, err := sim.StepETF(sim.ETFStep{At: 0, Factor: 1}, sim.ETFStep{At: 60 * workload.SamplingPeriod, Factor: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := experiments.Run(context.Background(), experiments.Spec{System: sys, Custom: ctrl, ETF: etf, Periods: 120})
	if err != nil {
		t.Fatal(err)
	}
	return recording{sys, cfg, tr.Utilization, tr.Rates}
}

// replayer holds the constant half of the controller's problem and the
// per-period state mpc and core keep between steps.
type replayer struct {
	t    *testing.T
	ctrl *mpc.Controller // stepped alongside: the oracle, and the source of closed-loop rates
	out  *mpc.StepResult

	c, a, aBox       *mat.Dense
	trackW, penaltyW []float64 // √q·λ per tracking row, √r per first-move penalty row
	n, m             int
	setPoints        []float64
	rmin, rmax       []float64

	alpha     float64 // core's measurement filter
	filtered  []float64
	lastRates []float64 // mpc's anti-windup memory
	prevDelta []float64
	d, b      []float64
	period    int
}

func newReplayer(t *testing.T, rec recording) *replayer {
	t.Helper()
	sys := rec.sys
	rmin, rmax := sys.RateBounds()
	ctrl, err := mpc.New(sys.AllocationMatrix(), sys.DefaultSetPoints(), rmin, rmax, mpc.Config{
		PredictionHorizon: rec.cfg.PredictionHorizon,
		ControlHorizon:    rec.cfg.ControlHorizon,
		TrefOverTs:        rec.cfg.TrefOverTs,
	})
	if err != nil {
		t.Fatal(err)
	}
	// C and A as the controller built them. The right-hand-side weights
	// are the controller's own: √q = 1 and a unit move penalty.
	c, a := ctrl.Matrices()
	n, m := sys.Processors, len(sys.Tasks)
	r := &replayer{
		t: t, ctrl: ctrl, out: ctrl.NewStepResult(),
		c: c, a: a, aBox: a.RowPrefix(2 * c.Cols()),
		n: n, m: m, setPoints: sys.DefaultSetPoints(), rmin: rmin, rmax: rmax,
		alpha:     rec.cfg.MeasurementFilter,
		prevDelta: make([]float64, m),
		d:         make([]float64, c.Rows()),
		b:         make([]float64, a.Rows()),
	}
	// √q·λᵢ with √q = 1 and λᵢ = 1 − e^(−i/(Tref/Ts)), computed as
	// fillLeastSquaresRHS computes it, so d matches the controller's bits.
	for i := 1; i <= rec.cfg.PredictionHorizon; i++ {
		lam := 1 - math.Exp(-float64(i)/rec.cfg.TrefOverTs)
		for range n {
			r.trackW = append(r.trackW, lam)
		}
	}
	for range m {
		r.penaltyW = append(r.penaltyW, 1)
	}
	return r
}

// next advances to the period with measurement u and applied rates: core's
// filter (recorded rows only; scripted rows go to the controller as
// written), mpc's anti-windup resync, both right-hand sides, and one step of
// the oracle controller.
func (r *replayer) next(u, rates []float64, filter bool) {
	r.t.Helper()
	if filter && r.alpha > 0 && r.alpha < 1 {
		if r.filtered == nil {
			r.filtered = append([]float64(nil), u...)
		} else {
			for i := range u {
				r.filtered[i] = r.alpha*u[i] + (1-r.alpha)*r.filtered[i]
			}
		}
		u = r.filtered
	}
	if r.lastRates != nil {
		for j := range r.prevDelta {
			r.prevDelta[j] = rates[j] - r.lastRates[j]
		}
	}
	r.lastRates = append(r.lastRates[:0], rates...)
	for row, w := range r.trackW {
		r.d[row] = w * (r.setPoints[row%r.n] - u[row%r.n])
	}
	for j, w := range r.penaltyW {
		r.d[len(r.trackW)+j] = w * r.prevDelta[j]
	}
	box := r.aBox.Rows()
	for i := 0; i < box/2; i++ {
		j := i % r.m
		r.b[2*i] = r.rmax[j] - rates[j]
		r.b[2*i+1] = rates[j] - r.rmin[j]
	}
	for row := box; row < len(r.b); row++ {
		p := (row - box) % r.n
		r.b[row] = r.setPoints[p] - u[p]
	}
	if err := r.ctrl.StepTo(r.out, u, rates); err != nil {
		r.t.Fatalf("period %d: oracle controller: %v", r.period, err)
	}
	r.period++
}

// side is one LSI solving the replayed problems with the solver-facing
// state mpc keeps: the starting-point buffer and which constraint variant
// the warm-start set refers to.
type side struct {
	lsi         *qp.LSI
	z0, x       []float64
	prevRelaxed bool
	reference   bool // also solve every problem with qp's test oracle
}

func newSide(t *testing.T, r *replayer) *side {
	t.Helper()
	lsi, err := qp.NewLSI(r.c, qp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nz := r.c.Cols()
	return &side{lsi: lsi, z0: make([]float64, nz), x: make([]float64, nz)}
}

// solved is one period's solve as mpc.StepTo would have run it.
type solved struct {
	res     *qp.Result // nil when the interior solve resolved the period
	x       []float64
	iters   int
	relaxed bool
	step    float64 // t* when the solve started at t*·c toward "all rates to R_min", else 0
	a       *mat.Dense
	b       []float64
	// The oracle's answer (side.reference): for an interior solve, the
	// iterative solve from Δr = 0 that it stands in for.
	ref       *qp.Result
	refLambda []float64
	refErr    error
}

// solve mirrors mpc.StepTo's solve selection for the replayer's current
// period: the interior attempt, then the analytic starting point, the
// relaxation to the rate box and the warm-start reset on a variant flip.
func (s *side) solve(r *replayer, rates []float64) solved {
	r.t.Helper()
	if iters, ok := s.lsi.SolveInteriorTo(s.x, r.d, r.a, r.b); ok {
		s.prevRelaxed = false
		out := solved{x: s.x, iters: iters, a: r.a, b: r.b}
		if s.reference {
			out.ref, out.refLambda, out.refErr = s.lsi.ReferenceSolve(r.d, r.a, r.b, make([]float64, len(s.x)))
		}
		return out
	}
	out := solved{a: r.a, b: r.b}
	clear(s.z0)
	// At Δr = 0 every aᵢ·0 is +0, so row i is violated exactly when bᵢ < −1e-9.
	if slices.ContainsFunc(out.b, func(bi float64) bool { return bi < -1e-9 }) {
		for j := 0; j < r.m; j++ { // the corner move c = R_min − r
			s.z0[j] = r.rmin[j] - rates[j]
		}
		if maxViolation(out.a, out.b, s.z0) > 1e-9 {
			out.relaxed = true
			out.a, out.b = r.aBox, r.b[:r.aBox.Rows()]
			clear(s.z0)
			for j := 0; j < r.m; j++ { // clamp(r) − r: inside the rate box
				s.z0[j] = math.Max(r.rmin[j], math.Min(r.rmax[j], rates[j])) - rates[j]
			}
		} else {
			// t*·c: the smallest step toward the corner that satisfies every
			// row violated at Δr = 0.
			for i, bi := range r.b {
				if bi < -1e-9 {
					out.step = math.Max(out.step, bi/mat.Dot(r.a.RowView(i), s.z0))
				}
			}
			out.step = math.Min(out.step, 1)
			for j := 0; j < r.m; j++ {
				s.z0[j] *= out.step
			}
		}
	}
	if out.relaxed != s.prevRelaxed {
		s.lsi.ResetWarmStart()
	}
	if s.reference {
		out.ref, out.refLambda, out.refErr = s.lsi.ReferenceSolve(r.d, out.a, out.b, s.z0)
	}
	res, err := s.lsi.Solve(r.d, out.a, out.b, s.z0)
	if err != nil {
		r.t.Fatalf("period %d: replayed solve: %v", r.period-1, err)
	}
	s.prevRelaxed = out.relaxed
	out.res, out.x, out.iters = res, res.X, res.Iterations
	return out
}

// maxViolation is the largest amount by which z violates a·z ≤ b (0 when
// z is feasible), as mpc measures the corner.
func maxViolation(a *mat.Dense, b, z []float64) float64 {
	var v float64
	for i := 0; i < a.Rows(); i++ {
		if d := mat.Dot(a.RowView(i), z) - b[i]; d > v {
			v = d
		}
	}
	return v
}

// checkAgainstOracle requires the replayed solve to be the one the real
// controller just made: iteration count, relaxation, and the applied rates.
func (r *replayer) checkAgainstOracle(s solved, rates []float64) {
	r.t.Helper()
	k := r.period - 1
	if r.out.SolverIterations != s.iters || r.out.OutputConstraintsRelaxed != s.relaxed {
		r.t.Fatalf("period %d: replay solved in %d iterations (relaxed %v), controller in %d (relaxed %v, %v)",
			k, s.iters, s.relaxed, r.out.SolverIterations, r.out.OutputConstraintsRelaxed, r.out.Outcome)
	}
	for j := 0; j < r.m; j++ {
		want := math.Max(r.rmin[j], math.Min(r.rmax[j], rates[j]+s.x[j]))
		if math.Float64bits(want) != math.Float64bits(r.out.NewRates[j]) {
			r.t.Fatalf("period %d: replayed rate[%d] = %v, controller applied %v", k, j, want, r.out.NewRates[j])
		}
	}
}

// scriptedTail is the closed-loop tail of mpc's step-path tests (without
// its NaN row, which never reaches the solver): overload with constraints
// active, overload that is infeasible even at R_min so the output rows are
// relaxed, and the recovery back into the interior. The controller is fed
// its own previous rates.
var scriptedTail = [][]float64{
	{0.9, 0.7, 0.85, 0.6}, {1.3, 1.2, 0.5, 0.4},
	{4, 4, 4, 4}, {1.1, 1.05, 1.2, 1.3},
	{0.6, 0.6, 0.9, 0.2}, {1.3, 1.2, 0.5, 0.4}, {4, 4, 4, 4}, {0.2, 0.2, 0.2, 0.2}, {0.1, 0.1, 0.9, 0.9},
	{0.8, 0.8, 0.8, 0.8}, {0.82, 0.825, 0.82, 0.825},
}

// TestActiveSetAnatomyMediumDynamic records where the active-set
// iterations of the MEDIUM dynamic-etf run (Experiment II, the
// medium-dynamic benchmark workload) go. It logs the table DESIGN §11
// records, pins the bookkeeping identities that make the counters
// trustworthy, and holds the start point to what it buys: a mean of at most
// 3 iterations per iterative solve, and warm rows admitted at the start.
// Starting at the R_min corner, a vertex with every box row active, took
// 55.6 iterations and admitted no warm row.
func TestActiveSetAnatomyMediumDynamic(t *testing.T) {
	rec := recordMediumDynamic(t)
	r := newReplayer(t, rec)
	s := newSide(t, r)
	var (
		periods, iterative, stepped, relaxed               int
		offered, admitted, seeded, adds, drops, iterations int
		active, activeOffered                              int
		offeredGap, steps                                  float64
	)
	var warm []int // what the LSI will offer: the previous iterative solve's active set
	for k := range rec.u {
		r.next(rec.u[k], rec.rates[k], true)
		was := s.prevRelaxed
		sol := s.solve(r, rec.rates[k])
		r.checkAgainstOracle(sol, rec.rates[k])
		if k+1 < len(rec.rates) {
			for j, v := range r.out.NewRates {
				if math.Float64bits(v) != math.Float64bits(rec.rates[k+1][j]) {
					t.Fatalf("period %d: replay applies rate[%d] = %v, the recorded run %v", k, j, v, rec.rates[k+1][j])
				}
			}
		}
		periods++
		if sol.res == nil {
			warm = warm[:0] // the interior solve clears the warm-start set
			continue
		}
		if sol.relaxed != was {
			warm = warm[:0] // a variant flip resets the warm-start set
		}
		st := s.lsi.LastSolveStats()
		if sol.relaxed != (sol.a == r.aBox) {
			t.Fatalf("period %d: relaxed %v but constraint variant says otherwise", k, sol.relaxed)
		}
		if st.Seeded+st.Adds-st.Drops != len(sol.res.Active) {
			t.Fatalf("period %d: seeded %d + adds %d − drops %d ≠ %d active rows", k, st.Seeded, st.Adds, st.Drops, len(sol.res.Active))
		}
		if st.WarmAdmitted > st.WarmOffered || st.WarmAdmitted > st.Seeded || st.Adds+st.Drops > sol.iters {
			t.Fatalf("period %d: inconsistent counters %+v over %d iterations", k, st, sol.iters)
		}
		if st.WarmOffered != len(warm) {
			t.Fatalf("period %d: %d warm rows offered, previous active set had %d", k, st.WarmOffered, len(warm))
		}
		iterative++
		if sol.step > 0 {
			stepped++
			steps += sol.step
		}
		if sol.relaxed {
			relaxed++
		}
		offered += st.WarmOffered
		admitted += st.WarmAdmitted
		seeded += st.Seeded
		adds += st.Adds
		drops += st.Drops
		iterations += sol.iters
		active += len(sol.res.Active)
		inWarm := map[int]bool{}
		for _, i := range warm {
			inWarm[i] = true
			offeredGap += math.Abs(mat.Dot(sol.a.RowView(i), s.z0) - sol.b[i])
		}
		for _, i := range sol.res.Active {
			if inWarm[i] {
				activeOffered++
			}
		}
		warm = append(warm[:0], sol.res.Active...)
	}
	if iterative == 0 || iterative == periods {
		t.Fatalf("%d of %d periods solved iteratively; the run should mix interior and constrained periods", iterative, periods)
	}
	per := func(v int) float64 { return float64(v) / float64(iterative) }
	t.Logf("MEDIUM dynamic-etf, %d periods, seed %d: %d iterative solves (%d started at t*·c toward the R_min corner, mean t* %.3f; %d relaxed)",
		periods, experiments.DefaultSeed, iterative, stepped, steps/math.Max(1, float64(stepped)), relaxed)
	t.Logf("  warm rows offered %d, admitted %d; mean distance of an offered row from active at the start %.3f",
		offered, admitted, offeredGap/math.Max(1, float64(offered)))
	t.Logf("  per iterative solve: seeded %.1f, drops %.1f, adds %.1f, iterations %.1f, active at the solution %.1f",
		per(seeded), per(drops), per(adds), per(iterations), per(active))
	t.Logf("  %.0f%% of the rows active at a solution were in the offered warm set",
		100*float64(activeOffered)/math.Max(1, float64(active)))
	if stepped == 0 {
		t.Fatal("no solve started at t*·c; the run should overload a processor")
	}
	if per(iterations) > 3 {
		t.Errorf("%.1f iterations per iterative solve, want at most 3", per(iterations))
	}
	if admitted == 0 {
		t.Errorf("no warm row admitted of %d offered", offered)
	}
}

// replays are the two closed-loop runs the bitwise tests replay: the
// recorded MEDIUM dynamic-etf rows followed by the scripted overload /
// infeasible tail (so full ↔ rate-box switches occur), and the LARGE-8
// step-up run.
var replays = []struct {
	name string
	rec  func(*testing.T) recording
	tail [][]float64
}{
	{"MEDIUM dynamic-etf + scripted tail", recordMediumDynamic, scriptedTail},
	{"LARGE-8 step-up", recordLargeStepUp, nil},
}

// TestSolvesMatchReferenceBitwise holds the solver to qp's test oracle
// (referenceSolve: every iteration from scratch, every product dense) over
// both replays: every iterative solve's Result and multipliers, and every
// interior solve's iterate and iteration count, to the bit. It logs the
// share of active-set iterations (loop passes, the converging one
// included) that reused H⁻¹·g because x had not moved, and that reused the
// LU of S because the working list had not changed (on LARGE-8, the
// large-central benchmark workload, about 24 % and 31 %), and requires
// both reuses on each replay, so the comparison covers them.
func TestSolvesMatchReferenceBitwise(t *testing.T) {
	for _, tc := range replays {
		t.Run(tc.name, func(t *testing.T) {
			rec := tc.rec(t)
			r := newReplayer(t, rec)
			s := newSide(t, r)
			s.reference = true
			var interior, iterative, passes, hgKept, luKept int
			step := func(u, rates []float64, filter bool) {
				t.Helper()
				k := r.period
				r.next(u, rates, filter)
				got := s.solve(r, rates)
				r.checkAgainstOracle(got, rates)
				if got.res == nil {
					interior++
					if got.refErr != nil || got.ref.Iterations != got.iters || len(got.ref.Active) != 0 || !sameBits(got.ref.X, got.x) {
						t.Fatalf("period %d: interior solve x=%v in %d iterations, reference %+v (%v)", k, got.x, got.iters, got.ref, got.refErr)
					}
					return
				}
				if diff := qp.SameSolve(got.res, s.lsi.Multipliers(), nil, got.ref, got.refLambda, got.refErr); diff != "" {
					t.Fatalf("period %d: %s\nsolver    %+v\nreference %+v (%v)", k, diff, *got.res, got.ref, got.refErr)
				}
				st := s.lsi.LastSolveStats()
				iterative++
				passes += got.iters + 1 // a converged solve's Iterations omits the converging pass
				hgKept += st.HgKept
				luKept += st.LUKept
			}
			for k := range rec.u {
				step(rec.u[k], rec.rates[k], true)
			}
			for _, u := range tc.tail {
				step(u, append([]float64(nil), r.out.NewRates...), false)
			}
			share := func(v int) float64 { return 100 * float64(v) / float64(passes) }
			t.Logf("%d periods: %d interior, %d iterative solves over %d iterations; H⁻¹·g reused in %d (%.1f%%), the LU of S in %d (%.1f%%)",
				r.period, interior, iterative, passes, hgKept, share(hgKept), luKept, share(luKept))
			if iterative == 0 {
				t.Fatal("no iterative solve to compare")
			}
			if hgKept == 0 || luKept == 0 {
				t.Fatalf("H⁻¹·g reused in %d iterations, the LU of S in %d: the comparison never reached a reuse", hgKept, luKept)
			}
		})
	}
}

// TestCachedSolvesMatchUncachedBitwise is the oracle for the LSI's cache:
// over the recorded MEDIUM dynamic-etf rows followed by the scripted
// overload / infeasible tail (so full ↔ rate-box switches occur), and over
// the LARGE-8 step-up run, a long-lived LSI and a twin whose caches are
// dropped before every solve return the same result to the bit.
func TestCachedSolvesMatchUncachedBitwise(t *testing.T) {
	for _, tc := range replays {
		t.Run(tc.name, func(t *testing.T) {
			rec := tc.rec(t)
			r := newReplayer(t, rec)
			cached, twin := newSide(t, r), newSide(t, r)
			if set, rows := cached.lsi.CachedRows(); set != 0 || rows != 0 {
				t.Fatalf("a new LSI already holds a %d-row table with %d rows set", rows, set)
			}
			iterative, flips, lastSet, lastRows := 0, 0, 0, 0
			step := func(u, rates []float64, filter bool) {
				t.Helper()
				k := r.period
				r.next(u, rates, filter)
				was := cached.prevRelaxed
				got := cached.solve(r, rates)
				twin.lsi.DropCaches()
				want := twin.solve(r, rates)
				r.checkAgainstOracle(got, rates)
				if got.iters != want.iters || got.relaxed != want.relaxed || !sameBits(got.x, want.x) {
					t.Fatalf("period %d: cached solve (%d iterations, x=%v) != uncached (%d iterations, x=%v)",
						k, got.iters, got.x, want.iters, want.x)
				}
				if (got.res == nil) != (want.res == nil) {
					t.Fatalf("period %d: one side took the interior path, the other did not", k)
				}
				set, rows := cached.lsi.CachedRows()
				if got.res == nil {
					if set != lastSet {
						t.Fatalf("period %d: the interior solve touched the cache (%d → %d rows)", k, lastSet, set)
					}
					return
				}
				iterative++
				if got.relaxed != was {
					flips++
				}
				g, w := got.res, want.res
				if g.Status != w.Status || !sameInts(g.Active, w.Active) ||
					math.Float64bits(g.Stationarity) != math.Float64bits(w.Stationarity) ||
					math.Float64bits(g.Objective) != math.Float64bits(w.Objective) {
					t.Fatalf("period %d: cached %+v != uncached %+v", k, *g, *w)
				}
				// One table under the full matrix's row numbers serves both
				// variants: switching never drops what was remembered (a table
				// first sized for the rate box is re-made once for the full
				// matrix).
				if rows > lastRows {
					lastSet, lastRows = 0, rows
				}
				if set < lastSet || rows != lastRows {
					t.Fatalf("period %d: cache went from %d of %d to %d of %d remembered rows", k, lastSet, lastRows, set, rows)
				}
				lastSet = set
			}
			for k := range rec.u {
				step(rec.u[k], rec.rates[k], true)
			}
			for _, u := range tc.tail {
				step(u, append([]float64(nil), r.out.NewRates...), false)
			}
			set, rows := cached.lsi.CachedRows()
			t.Logf("%d periods, %d iterative, %d constraint-variant flips; cache holds %d of %d rows", r.period, iterative, flips, set, rows)
			if iterative == 0 || set == 0 {
				t.Fatalf("comparison is thin: %d iterative solves, %d cached rows", iterative, set)
			}
			if tc.tail != nil && flips < 3 {
				t.Fatalf("only %d full ↔ rate-box switches; the tail should force several", flips)
			}
			if rows != r.a.Rows() {
				t.Fatalf("cache table has %d rows, the full constraint matrix %d", rows, r.a.Rows())
			}
		})
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
