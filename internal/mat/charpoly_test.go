package mat

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
	"testing"
)

// A second, independent eigensolver for small real matrices, kept as the
// differential oracle of EigenvaluesQR: the characteristic polynomial by
// the Faddeev–LeVerrier recurrence, its roots by the Durand–Kerner
// simultaneous iteration. Adequate for small, well-scaled matrices only.

// CharPoly returns the coefficients of the characteristic polynomial
// det(λI − A) = λⁿ + c[1]·λⁿ⁻¹ + … + c[n], as [1, c1, …, cn].
func CharPoly(a *Dense) ([]float64, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("mat: CharPoly requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	coeffs := make([]float64, n+1)
	coeffs[0] = 1
	m := New(n, n) // M_0 = 0
	for k := 1; k <= n; k++ {
		// M_k = A·M_{k−1} + c_{k−1}·I
		m = a.Mul(m)
		for i := 0; i < n; i++ {
			m.Set(i, i, m.At(i, i)+coeffs[k-1])
		}
		// c_k = −trace(A·M_k)/k
		am := a.Mul(m)
		var tr float64
		for i := 0; i < n; i++ {
			tr += am.At(i, i)
		}
		coeffs[k] = -tr / float64(k)
	}
	return coeffs, nil
}

// PolyRoots returns all (complex) roots of the real polynomial with
// coefficients coeffs = [a0, a1, …, an] representing
// a0·xⁿ + a1·xⁿ⁻¹ + … + an, using Durand–Kerner iteration. Leading zero
// coefficients are stripped. An empty or constant polynomial yields no
// roots.
func PolyRoots(coeffs []float64) []complex128 {
	// Strip leading zeros.
	for len(coeffs) > 0 && IsZero(coeffs[0]) {
		coeffs = coeffs[1:]
	}
	n := len(coeffs) - 1
	if n < 1 {
		return nil
	}
	// Normalize to a monic polynomial in complex arithmetic.
	c := make([]complex128, n+1)
	lead := coeffs[0]
	for i, v := range coeffs {
		c[i] = complex(v/lead, 0)
	}
	eval := func(x complex128) complex128 {
		r := c[0]
		for _, ci := range c[1:] {
			r = r*x + ci
		}
		return r
	}
	// Initial guesses on a circle of radius based on the Cauchy bound, with
	// an irrational angle offset so no guess starts on the real axis.
	radius := 0.0
	for _, v := range coeffs[1:] {
		radius = math.Max(radius, math.Abs(v/lead))
	}
	radius = math.Max(1, 1+radius)
	roots := make([]complex128, n)
	for i := range roots {
		theta := 2*math.Pi*float64(i)/float64(n) + 0.4
		roots[i] = cmplx.Rect(radius*0.8, theta)
	}
	const (
		maxIter = 500
		tol     = 1e-12
	)
	for iter := 0; iter < maxIter; iter++ {
		var maxDelta float64
		for i := range roots {
			num := eval(roots[i])
			den := complex(1, 0)
			for j := range roots {
				if j != i {
					den *= roots[i] - roots[j]
				}
			}
			if den == 0 {
				// Perturb coincident estimates and continue.
				roots[i] += complex(1e-8, 1e-8)
				continue
			}
			delta := num / den
			roots[i] -= delta
			if d := cmplx.Abs(delta); d > maxDelta {
				maxDelta = d
			}
		}
		if maxDelta < tol {
			break
		}
	}
	// Snap conjugate-pair noise: tiny imaginary parts on effectively real
	// roots are zeroed for caller convenience.
	for i, r := range roots {
		if math.Abs(imag(r)) < 1e-9*(1+math.Abs(real(r))) {
			roots[i] = complex(real(r), 0)
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		if real(roots[i]) != real(roots[j]) { //eucon:float-exact total-order tie-break for a stable sort
			return real(roots[i]) < real(roots[j])
		}
		return imag(roots[i]) < imag(roots[j])
	})
	return roots
}

// Eigenvalues returns the eigenvalues of a small square real matrix as
// complex numbers (conjugate pairs for complex eigenvalues).
func Eigenvalues(a *Dense) ([]complex128, error) {
	coeffs, err := CharPoly(a)
	if err != nil {
		return nil, err
	}
	return PolyRoots(coeffs), nil
}

func TestCharPolyKnown(t *testing.T) {
	// A = [[2,0],[0,3]] → λ² − 5λ + 6.
	a := Diag([]float64{2, 3})
	c, err := CharPoly(a)
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqual(c, []float64{1, -5, 6}, 1e-10) {
		t.Fatalf("CharPoly = %v, want [1 -5 6]", c)
	}
}

func TestEigenvaluesDiagonal(t *testing.T) {
	eigs, err := Eigenvalues(Diag([]float64{1, 4, 9}))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 4, 9}
	if len(eigs) != 3 {
		t.Fatalf("got %d eigenvalues, want 3", len(eigs))
	}
	for i, e := range eigs {
		if !almostEqual(real(e), want[i], 1e-8) || math.Abs(imag(e)) > 1e-8 {
			t.Errorf("eig[%d] = %v, want %v", i, e, want[i])
		}
	}
}

func TestEigenvaluesComplexPair(t *testing.T) {
	// Rotation-like matrix [[0,-1],[1,0]] has eigenvalues ±i.
	a := MustFromRows([][]float64{{0, -1}, {1, 0}})
	eigs, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(eigs) != 2 {
		t.Fatalf("got %d eigenvalues, want 2", len(eigs))
	}
	for _, e := range eigs {
		if !almostEqual(real(e), 0, 1e-8) || !almostEqual(math.Abs(imag(e)), 1, 1e-8) {
			t.Errorf("eigenvalue %v, want ±i", e)
		}
	}
}

func TestPolyRootsQuadratic(t *testing.T) {
	// x² − 3x + 2 = (x−1)(x−2).
	roots := PolyRoots([]float64{1, -3, 2})
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2", len(roots))
	}
	if !almostEqual(real(roots[0]), 1, 1e-9) || !almostEqual(real(roots[1]), 2, 1e-9) {
		t.Fatalf("roots = %v, want [1 2]", roots)
	}
}

func TestPolyRootsDegenerate(t *testing.T) {
	if r := PolyRoots(nil); r != nil {
		t.Errorf("PolyRoots(nil) = %v, want nil", r)
	}
	if r := PolyRoots([]float64{5}); r != nil {
		t.Errorf("PolyRoots(constant) = %v, want nil", r)
	}
	if r := PolyRoots([]float64{0, 0, 1, -2}); len(r) != 1 || !almostEqual(real(r[0]), 2, 1e-9) {
		t.Errorf("PolyRoots with leading zeros = %v, want [2]", r)
	}
}
