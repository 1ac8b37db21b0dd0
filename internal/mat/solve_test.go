package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// luSolve and leastSquares are the factor-then-solve round trips the
// package's one-shot solvers used to wrap.
func luSolve(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b)
}

func leastSquares(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorQR(a)
	if err != nil {
		return nil, err
	}
	m, n := a.Dims()
	x := make([]float64, n)
	if err := f.SolveLeastSquaresTo(x, make([]float64, m), b); err != nil {
		return nil, err
	}
	return x, nil
}

func TestLUSolveKnown(t *testing.T) {
	a := MustFromRows([][]float64{{2, 1}, {1, 3}})
	x, err := luSolve(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 3, x + 3y = 5 → x = 4/5, y = 7/5.
	if !VecEqual(x, []float64{0.8, 1.4}, 1e-12) {
		t.Fatalf("luSolve = %v, want [0.8 1.4]", x)
	}
}

func TestLUSolveSingular(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := luSolve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("luSolve on singular matrix: err = %v, want ErrSingular", err)
	}
}

func TestLUSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randomDense(rng, n, n)
		// Make diagonally dominant to guarantee nonsingularity.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := luSolve(a, b)
		if err != nil {
			return false
		}
		return VecEqual(got, want, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLUDet(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2}, {3, 4}})
	if got := Det(a); !almostEqual(got, -2, 1e-12) {
		t.Fatalf("Det = %v, want -2", got)
	}
	if got := Det(MustFromRows([][]float64{{1, 2}, {2, 4}})); got != 0 {
		t.Fatalf("Det(singular) = %v, want 0", got)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := FactorLU(New(2, 3)); err == nil {
		t.Fatal("FactorLU on non-square matrix returned nil error")
	}
}

// TestLUReuseMatchesFactorLU refactors one LU through matrices of
// changing order, smaller after larger, and requires FactorLU's bits from
// every one: the storage is reused, the arithmetic is FactorLU's.
func TestLUReuseMatchesFactorLU(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var lu LU
	for _, k := range []int{3, 1, 5, 5, 2, 6, 0} {
		a := randomDense(rng, k, k)
		b := make([]float64, k)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		copy(lu.Reset(k).data, a.data)
		if err := lu.Factor(); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, k)
		if err := lu.SolveVecTo(got, b); err != nil {
			t.Fatal(err)
		}
		f, err := FactorLU(a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.SolveVec(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(lu.lu.data, f.lu.data) || lu.sign != f.sign || !bitsEqual(got, want) {
			t.Fatalf("order %d: the reused LU differs from FactorLU: x %v vs %v", k, got, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		copy(lu.Reset(4).data, MustFromRows([][]float64{{4, 1, 0, 0}, {1, 4, 1, 0}, {0, 1, 4, 1}, {0, 0, 1, 4}}).data)
		_ = lu.Factor()
	}); n > 2 {
		t.Fatalf("refactoring a smaller matrix allocates %v times beyond building its input", n)
	}
}

func TestCholeskySolve(t *testing.T) {
	// SPD matrix.
	a := MustFromRows([][]float64{{4, 2}, {2, 3}})
	f, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := f.l
	if got := l.Mul(l.T()); !got.Equal(a, 1e-12) {
		t.Fatalf("L·Lᵀ = %v, want %v", got, a)
	}
	x, err := f.SolveVec([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.MulVec(x); !VecEqual(got, []float64{1, 2}, 1e-12) {
		t.Fatalf("A·x = %v, want [1 2]", got)
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2}, {2, 1}}) // indefinite
	if _, err := FactorCholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("FactorCholesky(indefinite): err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyRandomSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		b := randomDense(rng, n, n)
		spd := b.T().Mul(b).Add(Identity(n).Scale(0.5)) // BᵀB + ½I is SPD
		fac, err := FactorCholesky(spd)
		if err != nil {
			return false
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		got, err := fac.SolveVec(spd.MulVec(want))
		if err != nil {
			return false
		}
		return VecEqual(got, want, 1e-7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Square nonsingular system: least squares must equal the exact solution.
	a := MustFromRows([][]float64{{2, 0}, {0, 3}})
	x, err := leastSquares(a, []float64{4, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(x, []float64{2, 3}, 1e-12) {
		t.Fatalf("leastSquares = %v, want [2 3]", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = a + b·t to points (0,1), (1,2), (2,3): exact line a=1, b=1.
	a := MustFromRows([][]float64{{1, 0}, {1, 1}, {1, 2}})
	x, err := leastSquares(a, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(x, []float64{1, 1}, 1e-12) {
		t.Fatalf("leastSquares = %v, want [1 1]", x)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The residual of a least-squares solution is orthogonal to range(A).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 4 + rng.Intn(8)
		n := 2 + rng.Intn(3)
		a := randomDense(rng, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := leastSquares(a, b)
		if err != nil {
			return false
		}
		res := VecSub(a.MulVec(x), b)
		return NormInf(a.T().MulVec(res)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeastSquaresUnderdeterminedRejected(t *testing.T) {
	if _, err := leastSquares(New(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("leastSquares with rows < cols returned nil error")
	}
}

func TestQRRankDeficient(t *testing.T) {
	a := MustFromRows([][]float64{{1, 1}, {1, 1}, {1, 1}})
	if _, err := leastSquares(a, []float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Fatalf("leastSquares(rank-deficient): err = %v, want ErrSingular", err)
	}
}

func TestSpectralRadius(t *testing.T) {
	a := MustFromRows([][]float64{{0.5, 0.2}, {0, -0.9}})
	rho, err := SpectralRadius(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(rho, 0.9, 1e-8) {
		t.Fatalf("SpectralRadius = %v, want 0.9", rho)
	}
}

func TestSpectralRadiusSimilarityInvariant(t *testing.T) {
	// ρ(P·A·P⁻¹) == ρ(A), with P = D·Q for a positive diagonal D and a
	// Householder reflector Q = I − 2vvᵀ/(vᵀv), so P⁻¹ = Q·D⁻¹ exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		a := randomDense(rng, n, n)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		q := Identity(n)
		vv := Dot(v, v)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				q.Set(i, j, q.At(i, j)-2*v[i]*v[j]/vv)
			}
		}
		d, dinv := make([]float64, n), make([]float64, n)
		for i := range d {
			d[i] = 0.5 + rng.Float64()
			dinv[i] = 1 / d[i]
		}
		p, pinv := Diag(d).Mul(q), q.Mul(Diag(dinv))
		r1, err1 := SpectralRadius(a)
		r2, err2 := SpectralRadius(p.Mul(a).Mul(pinv))
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(r1-r2) < 1e-5*(1+r1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVecHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := VecAdd(a, b); !VecEqual(got, []float64{5, 7, 9}, 0) {
		t.Errorf("VecAdd = %v", got)
	}
	if got := VecSub(b, a); !VecEqual(got, []float64{3, 3, 3}, 0) {
		t.Errorf("VecSub = %v", got)
	}
	if got := VecScale(2, a); !VecEqual(got, []float64{2, 4, 6}, 0) {
		t.Errorf("VecScale = %v", got)
	}
	if got := Dot(a, b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Norm2([]float64{3, 4}); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := NormInf([]float64{-7, 2}); got != 7 {
		t.Errorf("NormInf = %v, want 7", got)
	}
	if got := Constant(3, 2.5); !VecEqual(got, []float64{2.5, 2.5, 2.5}, 0) {
		t.Errorf("Constant = %v", got)
	}
	c := VecClone(a)
	c[0] = 99
	if a[0] != 1 {
		t.Error("VecClone did not copy")
	}
}
