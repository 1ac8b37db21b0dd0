package qp

import (
	"errors"
	"math"
	"testing"

	"github.com/rtsyslab/eucon/internal/mat"
)

// Degenerate-input fixtures pinning the solver's error contracts:
// ErrInfeasible and ErrMaxIterations are stable sentinels, an iteration-capped solve still carries its best
// iterate (finite, feasible, with a populated Stationarity) in the Result,
// and rank-deficient stacks stay solvable through the built-in
// regularization.

// TestIterationCappedCarriesBestIterate pins the best-iterate contract:
// capping the active-set loop yields ErrMaxIterations AND a non-nil Result
// whose X is the last (feasible, finite) iterate with Status and
// Stationarity describing how far it got. (The mpc controller holds its
// rates on any solver error; the contract is the solver's own.)
func TestIterationCappedCarriesBestIterate(t *testing.T) {
	// Two bounds must activate one at a time; one iteration cannot finish.
	c := mat.Identity(2)
	d := []float64{5, 5}
	lo := []float64{0, 0}
	hi := []float64{1, 1}
	a, b := boxConstraints(lo, hi)
	s, err := NewLSI(c, Options{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(d, a, b, []float64{0, 0})
	if !errors.Is(err, ErrMaxIterations) {
		t.Fatalf("err = %v, want ErrMaxIterations", err)
	}
	if res == nil {
		t.Fatal("iteration-capped solve returned a nil Result; the best iterate must travel with the error")
	}
	if res.Status != StatusIterationCapped {
		t.Fatalf("Status = %v, want StatusIterationCapped", res.Status)
	}
	for i, v := range res.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("best iterate X[%d] = %g is not finite", i, v)
		}
		if v < lo[i]-1e-9 || v > hi[i]+1e-9 {
			t.Fatalf("best iterate X[%d] = %g violates bounds [%g, %g]", i, v, lo[i], hi[i])
		}
	}
	if math.IsNaN(res.Stationarity) || res.Stationarity < 0 {
		t.Fatalf("Stationarity = %g, want a non-negative measure", res.Stationarity)
	}
	// An uncapped solve of the same problem converges with a small residual.
	full, err := SolveLSI(c, d, a, b, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != StatusOK || full.Stationarity > 1e-6 {
		t.Fatalf("converged solve Status = %v Stationarity = %g, want OK and tiny", full.Status, full.Stationarity)
	}
}

// TestLSIInfeasibleConstraintsSentinel pins that the reusable LSI path
// (the controller's hot path) rejects a start outside contradictory
// constraints with ErrInfeasible and no Result: the solver has no phase-1,
// so the start is the caller's to make feasible.
func TestLSIInfeasibleConstraintsSentinel(t *testing.T) {
	s, err := NewLSI(mat.Identity(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// x ≤ 0 and −x ≤ −1 (x ≥ 1) cannot both hold.
	a := mat.MustFromRows([][]float64{{1}, {-1}})
	res, err := s.Solve([]float64{0}, a, []float64{0, -1}, []float64{0.5})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if res != nil {
		t.Fatalf("infeasible solve returned a Result: %+v; there is no iterate to report", res)
	}
}

// TestRankDeficientStackStaysSolvable pins that NewLSI accepts a
// rank-deficient C (wide stacks are the EUCON norm: more tasks than
// processors) thanks to the ε-ridge on CᵀC, and that repeated solves
// against it stay finite.
func TestRankDeficientStackStaysSolvable(t *testing.T) {
	// Rank 1 in R²: infinitely many least-squares minimizers.
	c := mat.MustFromRows([][]float64{{1, 1}, {2, 2}})
	s, err := NewLSI(c, Options{})
	if err != nil {
		t.Fatalf("NewLSI on rank-deficient C: %v", err)
	}
	a, b := boxConstraints([]float64{-10, -10}, []float64{10, 10})
	for trial, d := range [][]float64{{2, 4}, {-1, -2}, {0, 0}} {
		res, err := s.Solve(d, a, b, []float64{0, 0})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sum := res.X[0] + res.X[1]
		if want := d[0]; math.Abs(sum-want) > 1e-4 {
			t.Fatalf("trial %d: x1+x2 = %g, want %g", trial, sum, want)
		}
	}
}

// TestSolveSingularHessian pins ErrSingular for a Hessian the Cholesky
// factorization rejects, a stable sentinel.
func TestSolveSingularHessian(t *testing.T) {
	h := mat.New(2, 2) // zero matrix: not positive definite
	_, err := Solve(h, []float64{1, 1}, nil, nil, []float64{0, 0}, Options{})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

// TestNonFiniteInputIsInfeasible pins that a start or a right-hand side b
// with a non-finite entry is rejected with ErrInfeasible and no Result. A
// NaN passes every comparison of the feasibility test, so without the
// check x0 = [NaN 0] came back as a converged X = [NaN 0].
func TestNonFiniteInputIsInfeasible(t *testing.T) {
	h, f, a := mat.Identity(2), []float64{-1, -1}, mat.Identity(2)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		b, x0 []float64
	}{
		{"NaN start", []float64{0.5, 0.5}, []float64{nan, 0}},
		{"infinite start", []float64{0.5, 0.5}, []float64{0, -inf}},
		{"NaN in b", []float64{0.5, nan}, []float64{0, 0}},
		{"infinite b", []float64{inf, 0.5}, []float64{0, 0}},
		{"no finite bound", []float64{inf, inf}, []float64{0, 0}}, // interior but for the infinities
	} {
		res, err := Solve(h, f, a, tc.b, tc.x0, Options{})
		if !errors.Is(err, ErrInfeasible) || res != nil {
			t.Errorf("%s: Solve = %+v, %v; want no Result and ErrInfeasible", tc.name, res, err)
		}
		s, err := NewLSI(mat.Identity(2), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := s.Solve([]float64{1, 1}, a, tc.b, tc.x0); !errors.Is(err, ErrInfeasible) || res != nil {
			t.Errorf("%s: LSI.Solve = %+v, %v; want no Result and ErrInfeasible", tc.name, res, err)
		}
		if _, ok := s.SolveInteriorTo(make([]float64, 2), []float64{1, 1}, a, tc.b); ok && !mat.VecFinite(tc.b) {
			t.Errorf("%s: SolveInteriorTo accepted a non-finite b", tc.name)
		}
	}
}

// TestCappedObjectiveIsLeastSquares pins one Objective form for LSI.Solve:
// an iteration-capped Result reports ‖C·x − d‖² at its X, as a converged
// one does, not the QP form ½xᵀHx + fᵀx (off by ‖d‖²).
func TestCappedObjectiveIsLeastSquares(t *testing.T) {
	c := mat.MustFromRows([][]float64{{1, 0}, {0, 2}, {1, 1}})
	d := []float64{5, 4, -3}
	a, b := boxConstraints([]float64{0, 0}, []float64{1, 1})
	s, err := NewLSI(c, Options{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(d, a, b, []float64{0, 0})
	if !errors.Is(err, ErrMaxIterations) || res == nil {
		t.Fatalf("Solve = %+v, %v; want a capped Result", res, err)
	}
	var want float64
	for i, ci := range c.MulVec(res.X) {
		r := ci - d[i]
		want += r * r
	}
	if res.Objective != want { //eucon:float-exact the solver sums the same residuals in the same order
		t.Fatalf("capped Objective = %.17g, want ‖Cx − d‖² = %.17g", res.Objective, want)
	}
}
