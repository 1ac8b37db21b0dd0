package qp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/rtsyslab/eucon/internal/mat"
)

// boxConstraints builds A, b encoding lo ≤ x ≤ hi as A·x ≤ b.
func boxConstraints(lo, hi []float64) (*mat.Dense, []float64) {
	n := len(lo)
	a := mat.New(2*n, n)
	b := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
		b[i] = hi[i]
		a.Set(n+i, i, -1)
		b[n+i] = -lo[i]
	}
	return a, b
}

func TestSolveUnconstrained(t *testing.T) {
	// min ½xᵀIx − [1 2]ᵀx → x = [1 2].
	h := mat.Identity(2)
	f := []float64{-1, -2}
	res, err := Solve(h, f, nil, nil, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(res.X, []float64{1, 2}, 1e-8) {
		t.Fatalf("X = %v, want [1 2]", res.X)
	}
}

func TestSolveActiveBound(t *testing.T) {
	// min (x−3)² s.t. x ≤ 1 → x = 1, one active constraint.
	h := mat.Diag([]float64{2})
	f := []float64{-6}
	a := mat.MustFromRows([][]float64{{1}})
	res, err := Solve(h, f, a, []float64{1}, []float64{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(res.X, []float64{1}, 1e-8) {
		t.Fatalf("X = %v, want [1]", res.X)
	}
	if len(res.Active) != 1 || res.Active[0] != 0 {
		t.Fatalf("Active = %v, want [0]", res.Active)
	}
}

func TestSolveInactiveBound(t *testing.T) {
	// min (x−3)² s.t. x ≤ 10 → interior optimum x = 3.
	h := mat.Diag([]float64{2})
	f := []float64{-6}
	a := mat.MustFromRows([][]float64{{1}})
	res, err := Solve(h, f, a, []float64{10}, []float64{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(res.X, []float64{3}, 1e-8) {
		t.Fatalf("X = %v, want [3]", res.X)
	}
}

func TestSolveCoupled2D(t *testing.T) {
	// min (x−2)² + (y−2)² s.t. x + y ≤ 2 → x = y = 1.
	h := mat.Diag([]float64{2, 2})
	f := []float64{-4, -4}
	a := mat.MustFromRows([][]float64{{1, 1}})
	res, err := Solve(h, f, a, []float64{2}, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(res.X, []float64{1, 1}, 1e-8) {
		t.Fatalf("X = %v, want [1 1]", res.X)
	}
}

func TestSolveVertexOptimum(t *testing.T) {
	// min (x−5)² + (y−5)² s.t. x ≤ 1, y ≤ 2 → x=1, y=2 (two active).
	h := mat.Diag([]float64{2, 2})
	f := []float64{-10, -10}
	a, b := boxConstraints([]float64{-100, -100}, []float64{1, 2})
	res, err := Solve(h, f, a, b, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(res.X, []float64{1, 2}, 1e-8) {
		t.Fatalf("X = %v, want [1 2]", res.X)
	}
}

func TestSolveDropConstraint(t *testing.T) {
	// Start at a vertex whose constraints are NOT all active at the optimum:
	// min x² + y² from x0 = (1,1) with x ≤ 1, y ≤ 1 → must drop both and
	// reach the origin.
	h := mat.Diag([]float64{2, 2})
	f := []float64{0, 0}
	a, b := boxConstraints([]float64{-5, -5}, []float64{1, 1})
	res, err := Solve(h, f, a, b, []float64{1, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(res.X, []float64{0, 0}, 1e-8) {
		t.Fatalf("X = %v, want [0 0]", res.X)
	}
}

func TestSolveRejectsInfeasibleStart(t *testing.T) {
	h := mat.Identity(1)
	a := mat.MustFromRows([][]float64{{1}})
	_, err := Solve(h, []float64{0}, a, []float64{-1}, []float64{0}, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveDimensionErrors(t *testing.T) {
	h := mat.Identity(2)
	if _, err := Solve(h, []float64{1}, nil, nil, []float64{0}, Options{}); err == nil {
		t.Error("mismatched H/f accepted")
	}
	a := mat.New(1, 3)
	if _, err := Solve(h, []float64{1, 2}, a, []float64{0}, []float64{0, 0}, Options{}); err == nil {
		t.Error("mismatched A columns accepted")
	}
	if _, err := Solve(h, []float64{1, 2}, mat.New(1, 2), []float64{0, 0}, []float64{0, 0}, Options{}); err == nil {
		t.Error("mismatched b length accepted")
	}
	if _, err := Solve(h, []float64{1, 2}, nil, nil, []float64{0}, Options{}); err == nil {
		t.Error("mismatched x0 length accepted")
	}
}

// projectedGradientBox is a slow but reliable reference solver for
// box-constrained QPs.
func projectedGradientBox(h *mat.Dense, f, lo, hi []float64) []float64 {
	n := len(f)
	x := make([]float64, n)
	for i := range x {
		x[i] = (lo[i] + hi[i]) / 2
	}
	// Step size from the trace as a cheap upper bound on λmax.
	var tr float64
	for i := 0; i < n; i++ {
		tr += h.At(i, i)
	}
	eta := 1 / (tr + 1)
	for it := 0; it < 200000; it++ {
		g := mat.VecAdd(h.MulVec(x), f)
		var moved float64
		for i := range x {
			nx := x[i] - eta*g[i]
			nx = math.Max(lo[i], math.Min(hi[i], nx))
			moved += math.Abs(nx - x[i])
			x[i] = nx
		}
		if moved < 1e-13 {
			break
		}
	}
	return x
}

func TestSolveMatchesProjectedGradient(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		bmat := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				bmat.Set(i, j, rng.NormFloat64())
			}
		}
		h := bmat.T().Mul(bmat).Add(mat.Identity(n))
		fvec := make([]float64, n)
		lo := make([]float64, n)
		hi := make([]float64, n)
		for i := range fvec {
			fvec[i] = 3 * rng.NormFloat64()
			lo[i] = -1 - rng.Float64()
			hi[i] = 1 + rng.Float64()
		}
		a, b := boxConstraints(lo, hi)
		res, err := Solve(h, fvec, a, b, make([]float64, n), Options{})
		if err != nil {
			return false
		}
		ref := projectedGradientBox(h, fvec, lo, hi)
		objRes := 0.5*mat.Dot(res.X, h.MulVec(res.X)) + mat.Dot(fvec, res.X)
		objRef := 0.5*mat.Dot(ref, h.MulVec(ref)) + mat.Dot(fvec, ref)
		return objRes <= objRef+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveKKTConditionsProperty(t *testing.T) {
	// At the reported optimum of a box-constrained QP the projected gradient
	// must vanish: interior coordinates have zero gradient, coordinates at
	// the upper bound have gradient ≤ 0, at the lower bound ≥ 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		bmat := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				bmat.Set(i, j, rng.NormFloat64())
			}
		}
		h := bmat.T().Mul(bmat).Add(mat.Identity(n))
		fvec := make([]float64, n)
		lo := make([]float64, n)
		hi := make([]float64, n)
		for i := range fvec {
			fvec[i] = 2 * rng.NormFloat64()
			lo[i] = -1
			hi[i] = 1
		}
		a, b := boxConstraints(lo, hi)
		res, err := Solve(h, fvec, a, b, make([]float64, n), Options{})
		if err != nil {
			return false
		}
		g := mat.VecAdd(h.MulVec(res.X), fvec)
		const tol = 1e-6
		for i := range res.X {
			switch {
			case res.X[i] >= hi[i]-tol:
				if g[i] > tol {
					return false
				}
			case res.X[i] <= lo[i]+tol:
				if g[i] < -tol {
					return false
				}
			default:
				if math.Abs(g[i]) > tol {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveLSIUnconstrainedMatchesLeastSquares(t *testing.T) {
	c := mat.MustFromRows([][]float64{{1, 0}, {1, 1}, {1, 2}})
	d := []float64{1, 2, 3}
	res, err := SolveLSI(c, d, nil, nil, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(res.X, []float64{1, 1}, 1e-4) {
		t.Fatalf("X = %v, want [1 1]", res.X)
	}
}

func TestSolveLSIBoundActive(t *testing.T) {
	// min (x−3)² s.t. x ≤ 2 → x = 2.
	c := mat.Identity(1)
	res, err := SolveLSI(c, []float64{3}, mat.MustFromRows([][]float64{{1}}), []float64{2}, []float64{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(res.X, []float64{2}, 1e-6) {
		t.Fatalf("X = %v, want [2]", res.X)
	}
	if math.Abs(res.Objective-1) > 1e-6 {
		t.Fatalf("Objective = %v, want 1", res.Objective)
	}
}

func TestSolveLSIInfeasibleStartRejected(t *testing.T) {
	// Constraint x ≥ 5 (−x ≤ −5), min (x−3)². A start 1e-6 short of the bound
	// is rejected, not repaired; the bound itself is a valid start.
	s, err := NewLSI(mat.Identity(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := mat.MustFromRows([][]float64{{-1}})
	res, err := s.Solve([]float64{3}, a, []float64{-5}, []float64{5 - 1e-6})
	if !errors.Is(err, ErrInfeasible) || res != nil {
		t.Fatalf("start violating by 1e-6: res = %+v, err = %v; want nil, ErrInfeasible", res, err)
	}
	res, err = s.Solve([]float64{3}, a, []float64{-5}, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(res.X, []float64{5}, 1e-9) {
		t.Fatalf("X = %v, want [5]", res.X)
	}
}

func TestSolveLSIInfeasibleConstraints(t *testing.T) {
	c := mat.Identity(1)
	a := mat.MustFromRows([][]float64{{1}, {-1}})
	_, err := SolveLSI(c, []float64{0}, a, []float64{0, -1}, []float64{0.2}, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveLSIRankDeficientC(t *testing.T) {
	// C wide/rank-deficient: regularization must keep the solve well-posed.
	c := mat.MustFromRows([][]float64{{1, 1}})
	d := []float64{2}
	lo := []float64{0, 0}
	hi := []float64{3, 3}
	a, b := boxConstraints(lo, hi)
	res, err := SolveLSI(c, d, a, b, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.X[0] + res.X[1]; math.Abs(got-2) > 1e-4 {
		t.Fatalf("x1+x2 = %v, want 2", got)
	}
}

func TestSolveLSIDimensionErrors(t *testing.T) {
	c := mat.Identity(2)
	if _, err := SolveLSI(c, []float64{1}, nil, nil, []float64{0, 0}, Options{}); err == nil {
		t.Error("mismatched d length accepted")
	}
	if _, err := SolveLSI(c, []float64{1, 2}, nil, nil, []float64{0}, Options{}); err == nil {
		t.Error("mismatched x0 length accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults(3, 4)
	if o.MaxIter <= 0 || o.Tol <= 0 {
		t.Fatalf("withDefaults produced %+v", o)
	}
	o2 := Options{MaxIter: 7, Tol: 1e-3}.withDefaults(3, 4)
	if o2.MaxIter != 7 || o2.Tol != 1e-3 {
		t.Fatalf("withDefaults overwrote explicit values: %+v", o2)
	}
}
