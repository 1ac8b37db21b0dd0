package mpc_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/empc"
	"github.com/rtsyslab/eucon/internal/experiments"
	"github.com/rtsyslab/eucon/internal/mat"
	"github.com/rtsyslab/eucon/internal/mpc"
	"github.com/rtsyslab/eucon/internal/qp"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// mediumMPC builds the bare MEDIUM controller the way core builds it.
func mediumMPC(t *testing.T, solver qp.Options) *mpc.Controller {
	t.Helper()
	sys := workload.Medium()
	rmin, rmax := sys.RateBounds()
	cfg := workload.MediumController()
	c, err := mpc.New(sys.AllocationMatrix(), sys.DefaultSetPoints(), rmin, rmax, mpc.Config{
		PredictionHorizon: cfg.PredictionHorizon,
		ControlHorizon:    cfg.ControlHorizon,
		TrefOverTs:        cfg.TrefOverTs,
		Solver:            solver,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
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

// TestStepToMatchesStepBitwise pins that a control step is one path
// whoever owns the result: a controller stepped through Step (fresh result
// each period) and its twin stepped through StepTo (one reused result)
// agree bit for bit, field by field and counter by counter. The inputs are
// the recorded (u, rates) rows of the MEDIUM dynamic-etf run
// (Experiment II), then a scripted closed-loop tail of overload,
// infeasible and NaN measurements in which StepTo is handed its own
// previous NewRates; an iteration-capped solver, whose failed solves
// hold, and explicit mode put every SolveOutcome produced under the
// comparison.
func TestStepToMatchesStepBitwise(t *testing.T) {
	tr, err := experiments.Run(context.Background(), experiments.Spec{Workload: experiments.WorkloadMedium, ETF: experiments.DynamicETF(), Seed: experiments.DefaultSeed})
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	scripted := [][]float64{
		{0.9, 0.7, 0.85, 0.6}, {1.3, 1.2, 0.5, 0.4}, // overload: constraints active
		{4, 4, 4, 4},         // infeasible even at R_min: output constraints relaxed
		{1.5, 1.5, 1.5, 1.5}, // still infeasible; capped at 6 iterations: held
		{1.1, 1.05, 1.2, 1.3},
		{nan, 0.5, 0.5, 0.5}, // poisoned: hold rung
		{0.6, 0.6, 0.9, 0.2}, {0.2, 0.2, 0.2, 0.2}, {0.1, 0.1, 0.9, 0.9},
		{0.8, 0.8, 0.8, 0.8}, {0.82, 0.825, 0.82, 0.825}, // recovery into the interior
	}
	seen := map[mpc.SolveOutcome]int{}
	for _, tc := range []struct {
		name   string
		solver qp.Options
		law    bool
	}{
		{"nominal", qp.Options{}, false},
		{"law attached", qp.Options{}, true},
		{"capped at 6 iterations", qp.Options{MaxIter: 6}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh, reused := mediumMPC(t, tc.solver), mediumMPC(t, tc.solver)
			if tc.law {
				if _, err := fresh.CompileExplicit(empc.Options{}); err != nil {
					t.Fatal(err)
				}
				if _, err := reused.CompileExplicit(empc.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			out := reused.NewStepResult()
			steps := 0
			// step feeds both controllers u and the recorded rates; nil rates
			// close the loop instead, and the reused side then passes its own
			// out.NewRates — the slice StepTo is about to overwrite.
			var last *mpc.StepResult
			step := func(u, rates []float64) {
				t.Helper()
				aliased := rates
				if rates == nil {
					rates, aliased = last.NewRates, out.NewRates
				}
				res, err := fresh.Step(u, rates)
				if err != nil {
					t.Fatalf("step %d: Step: %v", steps, err)
				}
				if err := reused.StepTo(out, u, aliased); err != nil {
					t.Fatalf("step %d: StepTo: %v", steps, err)
				}
				if out.Outcome != res.Outcome || out.OutputConstraintsRelaxed != res.OutputConstraintsRelaxed ||
					out.SolverIterations != res.SolverIterations {
					t.Fatalf("step %d: StepTo (%v,%v,%d) != Step (%v,%v,%d)", steps,
						out.Outcome, out.OutputConstraintsRelaxed, out.SolverIterations,
						res.Outcome, res.OutputConstraintsRelaxed, res.SolverIterations)
				}
				if !sameBits(out.NewRates, res.NewRates) || !sameBits(out.DeltaR, res.DeltaR) ||
					!sameBits(out.PredictedUtil, res.PredictedUtil) {
					t.Fatalf("step %d (%v): StepTo %+v != Step %+v", steps, res.Outcome, *out, *res)
				}
				if fresh.LastOutcome() != reused.LastOutcome() || fresh.LastExplicitOutcome() != reused.LastExplicitOutcome() {
					t.Fatalf("step %d: last outcomes diverge", steps)
				}
				if tc.law {
					hit := reused.LastExplicitOutcome() == mpc.SolveExplicit
					if hit != (out.Outcome == mpc.SolveExplicit) {
						t.Fatalf("step %d: explicit disposition %v but Outcome %v", steps, reused.LastExplicitOutcome(), out.Outcome)
					}
				}
				seen[res.Outcome]++
				steps++
				last = res
			}
			for k := range tr.Utilization {
				step(tr.Utilization[k], tr.Rates[k])
			}
			for _, u := range scripted {
				step(u, nil)
			}
			fb, fr, fh := fresh.ContainmentCounts()
			rb, rr, rh := reused.ContainmentCounts()
			if fb != rb || fr != rr || fh != rh {
				t.Errorf("containment counters diverge: Step (%d,%d,%d) StepTo (%d,%d,%d)", fb, fr, fh, rb, rr, rh)
			}
			if fresh.AntiWindupSyncs() != reused.AntiWindupSyncs() {
				t.Errorf("anti-windup syncs diverge: %d vs %d", fresh.AntiWindupSyncs(), reused.AntiWindupSyncs())
			}
			hits, misses := reused.ExplicitCounts()
			if fh, fm := fresh.ExplicitCounts(); fh != hits || fm != misses {
				t.Errorf("explicit counters diverge: Step (%d,%d) StepTo (%d,%d)", fh, fm, hits, misses)
			}
			if tc.law && hits+misses != steps {
				t.Errorf("law attached: %d hits + %d misses over %d steps", hits, misses, steps)
			}
			if !tc.law && hits+misses != 0 {
				t.Errorf("no law attached: %d hits, %d misses", hits, misses)
			}
		})
	}
	for _, o := range []mpc.SolveOutcome{mpc.SolveOK, mpc.SolveRelaxed, mpc.SolveHeld, mpc.SolveExplicit} {
		if seen[o] == 0 {
			t.Errorf("no step resolved as %v; that outcome went uncompared", o)
		}
	}
	for _, o := range []mpc.SolveOutcome{mpc.SolveBestIterate, mpc.SolveRegularized} {
		if seen[o] != 0 {
			t.Errorf("%d steps resolved as %v, a rung that is no longer produced", seen[o], o)
		}
	}
	t.Logf("outcomes compared: %v", seen)
}

// TestInteriorSolveMatchesIterativeBitwise is the comparison every
// centralized step now rests on: on the controller's own right-hand sides
// (the recorded MEDIUM dynamic-etf run, then a scripted overload tail),
// whenever qp.LSI.SolveInteriorTo accepts a problem the iterative
// LSI.Solve from Δr = 0 returns the same bits, the same iteration count
// and an empty active set. The iterative side also solves the constrained
// rows in between, so it reaches interior rows carrying the warm-start set
// of a constrained solve, as the pre-single-path Step did.
func TestInteriorSolveMatchesIterativeBitwise(t *testing.T) {
	tr, err := experiments.Run(context.Background(), experiments.Spec{Workload: experiments.WorkloadMedium, ETF: experiments.DynamicETF(), Seed: experiments.DefaultSeed})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := mediumMPC(t, qp.Options{})
	cmat, d, a, b := ctrl.NominalProblem()
	interior, err := qp.NewLSI(cmat, qp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	iterative, err := qp.NewLSI(cmat, qp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := cmat.Cols()
	x, zero, start := make([]float64, n), make([]float64, n), make([]float64, n)
	applied := make([]float64, len(workload.Medium().Tasks))
	out := ctrl.NewStepResult()
	hits, misses, warmed := 0, 0, 0
	warm := false // the iterative side's last solve ended with active constraints
	step := func(k int, u, rates []float64) {
		t.Helper()
		// rates may be out.NewRates, which StepTo overwrites.
		copy(applied, rates)
		if err := ctrl.StepTo(out, u, rates); err != nil { // fills d and b for this period
			t.Fatalf("row %d: %v", k, err)
		}
		iters, ok := interior.SolveInteriorTo(x, d, a, b)
		if !ok {
			misses++
			// Off the interior, start where the controller does, on the
			// constraint variant that start is feasible for.
			sa, sb, _ := ctrl.StartFor(start, u, applied)
			res, err := iterative.Solve(d, sa, sb, start)
			if err != nil {
				t.Fatalf("row %d: iterative solve from the controller's start: %v", k, err)
			}
			warm = len(res.Active) > 0
			return
		}
		res, err := iterative.Solve(d, a, b, zero)
		hits++
		if warm {
			warmed++
		}
		if err != nil {
			t.Fatalf("row %d: interior solve accepted a problem the iterative solve fails: %v", k, err)
		}
		if !sameBits(res.X, x) || res.Iterations != iters || len(res.Active) != 0 {
			t.Fatalf("row %d: interior (x=%v, %d iterations) != iterative (x=%v, %d iterations, active %v)",
				k, x, iters, res.X, res.Iterations, res.Active)
		}
		if out.SolverIterations != iters || out.Outcome != mpc.SolveOK {
			t.Fatalf("row %d: controller resolved an interior problem as %v in %d iterations", k, out.Outcome, out.SolverIterations)
		}
		warm = false
	}
	for k := range tr.Utilization {
		step(k, tr.Utilization[k], tr.Rates[k])
	}
	for i, u := range [][]float64{
		{1.3, 1.2, 0.5, 0.4}, {0.9, 0.7, 0.85, 0.6}, {0.8, 0.8, 0.8, 0.8},
		{0.82, 0.825, 0.82, 0.825}, {0.82, 0.825, 0.82, 0.825},
	} {
		step(len(tr.Utilization)+i, u, out.NewRates)
	}
	t.Logf("%d interior rows compared (%d right after a constrained solve), %d rows off the interior", hits, warmed, misses)
	if hits == 0 || misses == 0 || warmed == 0 {
		t.Fatalf("comparison is thin: %d interior rows, %d after a constrained solve, %d off the interior", hits, warmed, misses)
	}
}

// lsiForm rebuilds the quadratic form qp.LSI solves for the stack C,
// operation for operation: H = 2·(CᵀC + εI) with ε = 1e-8·max(1, ‖2CᵀC‖max)
// on the diagonal, and f = −2·Cᵀd.
func lsiForm(cmat *mat.Dense) (h *mat.Dense, f func(d []float64) []float64) {
	ct := cmat.T()
	h = ct.Mul(cmat).Scale(2)
	scale := math.Max(1, h.MaxAbs())
	for i := 0; i < h.Rows(); i++ {
		h.Set(i, i, h.At(i, i)+1e-8*scale)
	}
	fv := make([]float64, cmat.Cols())
	return h, func(d []float64) []float64 {
		ct.MulVecTo(fv, d)
		for i := range fv {
			fv[i] *= -2
		}
		return fv
	}
}

// scaledCertificate is qp.Certify with each residual divided by the size
// of the terms it is made of: stationarity and dual feasibility by
// ‖H‖max·(1 + ‖x‖∞), primal feasibility by 1 + ‖b‖∞, complementarity by
// both. worst is the largest of the four.
func scaledCertificate(h *mat.Dense, f []float64, a *mat.Dense, b, x, lambda []float64) (c qp.Certificate, worst float64) {
	c = qp.Certify(h, f, a, b, x, lambda)
	hs, bs := h.MaxAbs()*(1+mat.NormInf(x)), 1+mat.NormInf(b)
	c.Primal /= bs
	c.Dual /= hs
	c.Complementarity /= hs * bs
	c.Stationarity /= hs
	return c, math.Max(math.Max(c.Primal, c.Dual), math.Max(c.Complementarity, c.Stationarity))
}

// TestRecordedStepsCertify runs the KKT certificate on every step of the
// recorded MEDIUM dynamic-etf run (Experiment II), on the controller's own
// stacked solution and multipliers: an interior step certifies with λ = 0,
// an iterative one with the nominal solver's multipliers against the
// constraint variant it solved. Every solved step must certify to 1e-8
// (scaled); with the solver capped at 6 iterations a capped solve holds the
// rates, so it has no solution to certify, and the test requires at least
// one such step.
func TestRecordedStepsCertify(t *testing.T) {
	tr, err := experiments.Run(context.Background(), experiments.Spec{Workload: experiments.WorkloadMedium, ETF: experiments.DynamicETF(), Seed: experiments.DefaultSeed})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		solver qp.Options
	}{
		{"nominal", qp.Options{}},
		{"capped at 6 iterations", qp.Options{MaxIter: 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctrl := mediumMPC(t, tc.solver)
			cmat, d, a, b := ctrl.NominalProblem()
			h, lsiF := lsiForm(cmat)
			// probe tells interior steps apart: SolveInteriorTo is a pure
			// function of the right-hand sides.
			probe, err := qp.NewLSI(cmat, tc.solver)
			if err != nil {
				t.Fatal(err)
			}
			nz := cmat.Cols()
			aBox := a.RowPrefix(2 * nz)
			xi, zero := make([]float64, nz), make([]float64, a.Rows())
			out := ctrl.NewStepResult()
			var worst float64
			seen := map[string]int{}
			for k := range tr.Utilization {
				if err := ctrl.StepTo(out, tr.Utilization[k], tr.Rates[k]); err != nil {
					t.Fatal(err)
				}
				_, interior := probe.SolveInteriorTo(xi, d, a, b)
				x, lambda := ctrl.LastSolution()
				ak, bk := a, b
				switch {
				case interior:
					lambda = zero
					seen["interior"]++
				case out.Outcome == mpc.SolveOK || out.Outcome == mpc.SolveRelaxed:
					if out.OutputConstraintsRelaxed {
						ak, bk = aBox, b[:2*nz]
					}
					seen[out.Outcome.String()]++
				default: // held: no solution
					seen[out.Outcome.String()]++
					continue
				}
				if len(lambda) != ak.Rows() {
					t.Fatalf("step %d: %d multipliers for %d constraint rows", k, len(lambda), ak.Rows())
				}
				c, w := scaledCertificate(h, lsiF(d), ak, bk, x, lambda)
				if !(w <= 1e-8) {
					t.Fatalf("step %d (%v, %d iterations): scaled certificate %+v exceeds 1e-8", k, out.Outcome, out.SolverIterations, c)
				}
				worst = math.Max(worst, w)
			}
			t.Logf("steps by kind %v; worst scaled residual %.3g", seen, worst)
			if iterative := seen[mpc.SolveOK.String()] + seen[mpc.SolveRelaxed.String()]; seen["interior"] == 0 || iterative == 0 {
				t.Fatalf("comparison is thin: %v", seen)
			}
			if held := seen[mpc.SolveHeld.String()]; (tc.solver.MaxIter > 0) != (held > 0) {
				t.Fatalf("%d held steps with MaxIter %d: a capped solve holds, and only a capped one", held, tc.solver.MaxIter)
			}
		})
	}
}

// TestOutOfBoxRatesStayContained hands the controller rates outside their
// box — 1.5·R_max, then 0.5·R_min — with every processor one unit above
// what those rates explain, so even the R_min corner violates the output
// constraints and the relaxed branch starts from inside the rate box. On
// SIMPLE and MEDIUM, with and without output constraints, the step must be
// a nominal solve (SolveOK or SolveRelaxed) whose rates are finite and in
// the box. Non-finite rates must stay contained the same way.
func TestOutOfBoxRatesStayContained(t *testing.T) {
	for _, w := range []struct {
		name string
		sys  *task.System
		cfg  core.Config
	}{
		{"SIMPLE", workload.Simple(), workload.SimpleController()},
		{"MEDIUM", workload.Medium(), workload.MediumController()},
	} {
		for _, disable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/output-constraints-disabled=%v", w.name, disable), func(t *testing.T) {
				f := w.sys.AllocationMatrix()
				rmin, rmax := w.sys.RateBounds()
				c, err := mpc.New(f, w.sys.DefaultSetPoints(), rmin, rmax, mpc.Config{
					PredictionHorizon:        w.cfg.PredictionHorizon,
					ControlHorizon:           w.cfg.ControlHorizon,
					TrefOverTs:               w.cfg.TrefOverTs,
					DisableOutputConstraints: disable,
				})
				if err != nil {
					t.Fatal(err)
				}
				// above returns u one unit above what the rates explain: above
				// B ≤ 1, and above B even at the R_min corner.
				above := func(rates []float64) []float64 {
					u := f.MulVec(rates)
					for i := range u {
						u[i]++
					}
					return u
				}
				check := func(label string, u, rates []float64, nominal bool) {
					t.Helper()
					res, err := c.Step(u, rates)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					for j, r := range res.NewRates {
						if !(r >= rmin[j] && r <= rmax[j]) {
							t.Fatalf("%s: NewRates[%d] = %g outside [%g, %g] (%v)", label, j, r, rmin[j], rmax[j], res.Outcome)
						}
					}
					if !nominal {
						return
					}
					if res.Outcome != mpc.SolveOK && res.Outcome != mpc.SolveRelaxed {
						t.Fatalf("%s: outcome %v, want a nominal solve", label, res.Outcome)
					}
					if res.OutputConstraintsRelaxed == disable {
						t.Fatalf("%s: relaxed = %v with output constraints disabled = %v", label, res.OutputConstraintsRelaxed, disable)
					}
				}
				for _, k := range []struct {
					bound []float64
					scale float64
				}{{rmax, 1.5}, {rmin, 0.5}} {
					rates := make([]float64, len(k.bound))
					for j, v := range k.bound {
						rates[j] = k.scale * v
					}
					check(fmt.Sprintf("%g·bound", k.scale), above(rates), rates, true)
				}
				u := above(rmin)
				for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					rates := make([]float64, len(rmin))
					for j := range rates {
						rates[j] = v
					}
					check(fmt.Sprintf("rates %g", v), u, rates, false)
					check(fmt.Sprintf("R_min after rates %g", v), u, mat.VecClone(rmin), false)
				}
			})
		}
	}
}
