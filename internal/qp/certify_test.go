package qp_test

import (
	"math"
	"testing"

	"github.com/rtsyslab/eucon/internal/mat"
	"github.com/rtsyslab/eucon/internal/qp"
)

// certBound is the scaled KKT residual every converged solve must meet.
const certBound = 1e-8

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

// worstOf keeps the field-wise maximum of the certificates seen.
func worstOf(acc *qp.Certificate, c qp.Certificate) {
	acc.Primal = math.Max(acc.Primal, c.Primal)
	acc.Dual = math.Max(acc.Dual, c.Dual)
	acc.Complementarity = math.Max(acc.Complementarity, c.Complementarity)
	acc.Stationarity = math.Max(acc.Stationarity, c.Stationarity)
}

// TestCertifyPlantedWrongAnswers pins Certify on a problem solved by hand:
// minimize ½‖x‖² − x₁ − x₂ subject to x₁ ≤ ½ and x₂ ≤ 2 has the optimum
// (½, 1) with λ = (½, 0). The true pair certifies exactly; each planted
// error shows in the residual that names it.
func TestCertifyPlantedWrongAnswers(t *testing.T) {
	h := mat.Identity(2)
	f := []float64{-1, -1}
	a := mat.Identity(2)
	b := []float64{0.5, 2}
	x := []float64{0.5, 1}
	if c := qp.Certify(h, f, a, b, x, []float64{0.5, 0}); c != (qp.Certificate{}) {
		t.Fatalf("the optimum does not certify exactly: %+v", c)
	}
	for _, tc := range []struct {
		name   string
		x, lam []float64
		want   qp.Certificate
	}{
		{"multiplier sign flipped", x, []float64{-0.5, 0}, qp.Certificate{Dual: 0.5, Stationarity: 1}},
		{"active row's multiplier zeroed", x, []float64{0, 0}, qp.Certificate{Stationarity: 0.5}},
		{"multiplier on an inactive row", x, []float64{0.5, 0.25}, qp.Certificate{Complementarity: 0.25, Stationarity: 0.25}},
		{"infeasible point", []float64{1, 1}, []float64{0, 0}, qp.Certificate{Primal: 0.5}},
	} {
		if c := qp.Certify(h, f, a, b, tc.x, tc.lam); c != tc.want {
			t.Errorf("%s: certificate %+v, want %+v", tc.name, c, tc.want)
		}
	}
	if c := qp.Certify(h, f, a, b, []float64{math.NaN(), 1}, []float64{0.5, 0}); c.Stationarity <= certBound {
		t.Errorf("a NaN iterate certifies: %+v", c)
	}
}

// TestReplayedSolvesCertify runs the KKT certificate on every solve the
// replays above make — the MEDIUM dynamic-etf run with the scripted
// overload / infeasible tail, and the LARGE-8 step-up — using the LSI's own
// multipliers, or λ = 0 where the interior solve resolved the period. Every
// solve must certify to certBound, and on every iterative solve whose
// largest multiplier the certificate can resolve, two planted wrong answers
// must not: that multiplier with its sign flipped, and zeroed.
func TestReplayedSolvesCertify(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  func(*testing.T) recording
		tail [][]float64
	}{
		{"MEDIUM dynamic-etf + scripted tail", recordMediumDynamic, scriptedTail},
		{"LARGE-8 step-up", recordLargeStepUp, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := tc.rec(t)
			r := newReplayer(t, rec)
			s := newSide(t, r)
			var worst qp.Certificate
			interior, iterative, planted, weak := 0, 0, 0, 0
			step := func(u, rates []float64, filter bool) {
				t.Helper()
				k := r.period
				r.next(u, rates, filter)
				sol := s.solve(r, rates)
				r.checkAgainstOracle(sol, rates)
				h, f := s.lsi.QP()
				lambda := make([]float64, len(sol.b)) // interior: nothing active
				if sol.res != nil {
					lambda = s.lsi.Multipliers()
					iterative++
				} else {
					interior++
				}
				if len(lambda) != sol.a.Rows() {
					t.Fatalf("period %d: %d multipliers for %d constraint rows", k, len(lambda), sol.a.Rows())
				}
				c, w := scaledCertificate(h, f, sol.a, sol.b, sol.x, lambda)
				if !(w <= certBound) {
					t.Fatalf("period %d (relaxed %v, %d iterations): scaled certificate %+v exceeds %g", k, sol.relaxed, sol.iters, c, certBound)
				}
				worstOf(&worst, c)
				if sol.res == nil || len(sol.res.Active) == 0 {
					return
				}
				top := 0
				for i, l := range lambda {
					if l > lambda[top] {
						top = i
					}
				}
				// Zeroing λ[top] moves the stationarity residual by
				// λ[top]·‖a_top‖∞; below the bound the certificate cannot see
				// it, and that multiplier is too weak to plant an error on.
				hs := h.MaxAbs() * (1 + mat.NormInf(sol.x))
				if lambda[top]*mat.NormInf(sol.a.RowView(top)) <= 2*certBound*hs {
					weak++
					return
				}
				for _, wrong := range []float64{-lambda[top], 0} {
					bad := append([]float64(nil), lambda...)
					bad[top] = wrong
					if c, w := scaledCertificate(h, f, sol.a, sol.b, sol.x, bad); w <= certBound {
						t.Fatalf("period %d: λ[%d] = %v instead of %v still certifies: %+v", k, top, wrong, lambda[top], c)
					}
				}
				planted++
			}
			for k := range rec.u {
				step(rec.u[k], rec.rates[k], true)
			}
			for _, u := range tc.tail {
				step(u, append([]float64(nil), r.out.NewRates...), false)
			}
			t.Logf("%d interior and %d iterative solves certify; worst scaled residuals %+v; planted errors caught on %d solves (%d with only weak multipliers)",
				interior, iterative, worst, planted, weak)
			if planted == 0 {
				t.Fatal("no iterative solve had an active row; the planted errors went untested")
			}
		})
	}
}

// TestCrawlSeedConverges pins the full-step rule on the fuzz seed that
// used to crawl: 3 variables and 4 rows, where every iteration took the
// whole KKT step on one working list with ‖p‖∞ just above tol·(1 + ‖x‖∞),
// until the iteration cap stopped it 450 iterations in. The solve must now
// converge within 10 iterations and certify.
func TestCrawlSeedConverges(t *testing.T) {
	c, a, b, x0, d := qp.CrawlProblem()
	s, err := qp.NewLSI(c, qp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(d, a, b, x0)
	if err != nil {
		t.Fatalf("%v (%+v)", err, res)
	}
	if res.Status != qp.StatusOK || res.Iterations > 10 {
		t.Fatalf("status %v after %d iterations, want ok within 10", res.Status, res.Iterations)
	}
	h, f := s.QP()
	if cert, w := scaledCertificate(h, f, a, b, res.X, s.Multipliers()); !(w <= certBound) {
		t.Fatalf("scaled certificate %+v exceeds %g", cert, certBound)
	}
	t.Logf("converged in %d iterations, stationarity %.3g", res.Iterations, res.Stationarity)
}
