package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The ref* functions are the element-wise factorization bodies the package
// shipped before the kernels moved onto their backing arrays, kept verbatim
// as bit-identity oracles: every At/Set goes through the bounds-checked
// accessor, in the textbook operation order. The production kernels must
// reproduce them to the last bit — stored factor entries, rdiag, pivots,
// sign, solutions and error identities — because the golden digests and the
// benchmark's trace digests rest on that arithmetic.

// refQR is the row-major packed factor the QR reference builds: the layout
// FactorQR stored before it kept its factor column by column.
type refQR struct {
	qr    *Dense
	rdiag []float64
}

func (f *refQR) maxRDiag() float64 {
	max := 1.0
	for _, v := range f.rdiag {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// packed lays a column-major QR out the way refQR stores it.
func packed(f *QR) *Dense {
	p := New(f.m, f.n)
	for j := 0; j < f.n; j++ {
		for i := 0; i < f.m; i++ {
			p.Set(i, j, f.v[j*f.m+i])
		}
	}
	return p
}

func refFactorQR(a *Dense) (*refQR, error) {
	m, n := a.Dims()
	if m < n {
		return nil, fmt.Errorf("mat: FactorQR requires rows >= cols, got %dx%d", m, n)
	}
	qr := a.Clone()
	rdiag := make([]float64, n)
	for k := 0; k < n; k++ {
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.At(i, k))
		}
		if IsZero(norm) {
			rdiag[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
		rdiag[k] = -norm
	}
	return &refQR{qr: qr, rdiag: rdiag}, nil
}

func refSolveLeastSquaresTo(f *refQR, x, scratch, b []float64) error {
	m, n := f.qr.Rows(), f.qr.Cols()
	if len(b) != m || len(scratch) != m {
		return fmt.Errorf("mat: QR solve length mismatch: %d/%d vs %d", len(b), len(scratch), m)
	}
	if len(x) != n {
		return fmt.Errorf("mat: QR solution length mismatch: %d vs %d", len(x), n)
	}
	y := scratch
	copy(y, b)
	for k := 0; k < n; k++ {
		vk := f.qr.At(k, k)
		if IsZero(f.rdiag[k]) || IsZero(vk) {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / vk
		for i := k; i < m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	scale := f.maxRDiag()
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		d := f.rdiag[i]
		if math.Abs(d) < 1e-13*scale || IsZero(d) {
			return fmt.Errorf("least-squares back-substitution at column %d: %w", i, ErrSingular)
		}
		x[i] = s / d
	}
	return nil
}

func refFactorLU(a *Dense) (*LU, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("mat: FactorLU requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	lu := a.Clone()
	pivot := make([]int, n)
	sign := 1
	for i := range pivot {
		pivot[i] = i
	}
	for k := 0; k < n; k++ {
		p, max := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > max {
				p, max = i, v
			}
		}
		if max < 1e-300 {
			return nil, fmt.Errorf("factor LU at column %d: %w", k, ErrSingular)
		}
		if p != k {
			swapRows(lu, p, k)
			pivot[p], pivot[k] = pivot[k], pivot[p]
			sign = -sign
		}
		pkk := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pkk
			lu.Set(i, k, m)
			if IsZero(m) {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-m*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, pivot: pivot, sign: sign}, nil
}

func refLUSolveVec(f *LU, b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, fmt.Errorf("mat: LU solve length mismatch: %d vs %d", len(b), n)
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	for i := 1; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		x[i] -= s
	}
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		d := f.lu.At(i, i)
		if math.Abs(d) < 1e-300 {
			return nil, ErrSingular
		}
		x[i] = (x[i] - s) / d
	}
	return x, nil
}

func refFactorCholesky(a *Dense) (*Cholesky, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("mat: FactorCholesky requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	l := New(n, n)
	for j := 0; j < n; j++ {
		var d float64
		for k := 0; k < j; k++ {
			d += l.At(j, k) * l.At(j, k)
		}
		d = a.At(j, j) - d
		if d <= 0 {
			return nil, fmt.Errorf("factor Cholesky at column %d: %w", j, ErrNotPositiveDefinite)
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			var s float64
			for k := 0; k < j; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, (a.At(i, j)-s)/ljj)
		}
	}
	return &Cholesky{l: l, lt: l.T()}, nil
}

func bitsEqual(a, b []float64) bool {
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

// sameOutcome reports whether the kernel and its reference failed the same
// way: both nil, or the same sentinel with the same message.
func sameOutcome(t *testing.T, what string, got, want error, sentinels ...error) bool {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Errorf("%s: err = %v, reference err = %v", what, got, want)
		return false
	}
	if got == nil {
		return true
	}
	if got.Error() != want.Error() {
		t.Errorf("%s: err %q, reference err %q", what, got, want)
	}
	for _, s := range sentinels {
		if errors.Is(got, s) != errors.Is(want, s) {
			t.Errorf("%s: errors.Is(%v) differs: %v vs reference %v", what, s, got, want)
		}
	}
	return false
}

type namedMatrix struct {
	name string
	m    *Dense
}

// oracleMatrices is the seeded input family of the bit-identity tests:
// random tall and square matrices plus the structural edge cases each
// kernel branches on.
func oracleMatrices() []namedMatrix {
	rng := rand.New(rand.NewSource(22))
	var ms []namedMatrix
	add := func(name string, m *Dense) { ms = append(ms, namedMatrix{name, m}) }
	add("1x1", MustFromRows([][]float64{{-3.5}}))
	add("1x1-zero", New(1, 1))
	add("empty", New(0, 0))
	add("forced-swaps", MustFromRows([][]float64{{0, 2, 1}, {1e-3, 1, 4}, {5, 3, 2}}))
	add("singular-2x2", MustFromRows([][]float64{{1, 2}, {2, 4}}))
	add("non-spd", MustFromRows([][]float64{{1, 2}, {2, 1}}))
	add("wide", New(2, 3))
	for _, dims := range [][2]int{{2, 2}, {5, 5}, {24, 24}, {40, 40}, {7, 3}, {24, 12}, {64, 24}, {9, 1}} {
		for rep := 0; rep < 3; rep++ {
			add(fmt.Sprintf("random-%dx%d-%d", dims[0], dims[1], rep), randomDense(rng, dims[0], dims[1]))
		}
	}
	// SPD inputs (Cholesky's success path) and their LU / QR factorizations.
	for _, n := range []int{1, 3, 24, 40} {
		c := randomDense(rng, 2*n, n)
		add(fmt.Sprintf("spd-%d", n), c.T().Mul(c))
	}
	zeroCol := randomDense(rng, 6, 4)
	dupCol := randomDense(rng, 6, 4)
	zeroSq := randomDense(rng, 5, 5)
	for i := 0; i < 6; i++ {
		zeroCol.Set(i, 2, 0)
		dupCol.Set(i, 3, dupCol.At(i, 1)) // rank-deficient: column 3 repeats column 1
	}
	for i := 0; i < 5; i++ {
		zeroSq.Set(i, 1, 0)
	}
	add("zero-column", zeroCol)
	add("rank-deficient-column", dupCol)
	add("zero-column-square", zeroSq)
	// A sparse lower-triangular-ish matrix exercises LU's exact-zero
	// multiplier skip.
	sparse := Identity(6)
	sparse.Set(3, 0, 2)
	sparse.Set(5, 2, -1)
	sparse.Set(0, 4, 0.5)
	add("sparse", sparse)
	return ms
}

func TestFactorQRMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, nm := range oracleMatrices() {
		name, a := nm.name, nm.m
		got, err := FactorQR(a)
		want, refErr := refFactorQR(a)
		if !sameOutcome(t, name+": FactorQR", err, refErr) {
			continue
		}
		if !bitsEqual(packed(got).data, want.qr.data) || !bitsEqual(got.rdiag[:got.n], want.rdiag) {
			t.Errorf("%s: QR factor bits differ from the element-wise reference", name)
			continue
		}
		m, n := a.Dims()
		for rep := 0; rep < 3; rep++ {
			b := make([]float64, m)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			x, ref := make([]float64, n), make([]float64, n)
			err := got.SolveLeastSquaresTo(x, make([]float64, m), b)
			refErr := refSolveLeastSquaresTo(want, ref, make([]float64, m), b)
			if sameOutcome(t, name+": SolveLeastSquaresTo", err, refErr, ErrSingular) && !bitsEqual(x, ref) {
				t.Errorf("%s: least-squares solution bits differ: %v vs reference %v", name, x, ref)
			}
		}
		// Length mismatches take the same error path.
		sameOutcome(t, name+": short b", got.SolveLeastSquaresTo(make([]float64, n), make([]float64, m), make([]float64, m+1)),
			refSolveLeastSquaresTo(want, make([]float64, n), make([]float64, m), make([]float64, m+1)))
		sameOutcome(t, name+": short x", got.SolveLeastSquaresTo(make([]float64, n+1), make([]float64, m), make([]float64, m)),
			refSolveLeastSquaresTo(want, make([]float64, n+1), make([]float64, m), make([]float64, m)))
	}
}

func TestFactorLUMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, nm := range oracleMatrices() {
		name, a := nm.name, nm.m
		got, err := FactorLU(a)
		want, refErr := refFactorLU(a)
		if !sameOutcome(t, name+": FactorLU", err, refErr, ErrSingular) {
			continue
		}
		if !bitsEqual(got.lu.data, want.lu.data) || got.sign != want.sign || fmt.Sprint(got.pivot) != fmt.Sprint(want.pivot) {
			t.Errorf("%s: LU factor differs from the element-wise reference (pivot %v/%v sign %d/%d)",
				name, got.pivot, want.pivot, got.sign, want.sign)
			continue
		}
		n := a.Rows()
		for rep := 0; rep < 3; rep++ {
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			x, err := got.SolveVec(b)
			ref, refErr := refLUSolveVec(want, b)
			if sameOutcome(t, name+": LU.SolveVec", err, refErr, ErrSingular) && !bitsEqual(x, ref) {
				t.Errorf("%s: LU solution bits differ: %v vs reference %v", name, x, ref)
			}
		}
		_, err = got.SolveVec(make([]float64, n+1))
		_, refErr = refLUSolveVec(want, make([]float64, n+1))
		sameOutcome(t, name+": LU.SolveVec length", err, refErr)
	}
	// A factor whose U diagonal underflows after the fact takes SolveVec's
	// own singular exit.
	f, err := FactorLU(MustFromRows([][]float64{{1, 2}, {3, 4}}))
	if err != nil {
		t.Fatal(err)
	}
	f.lu.Set(1, 1, 0)
	_, err = f.SolveVec([]float64{1, 1})
	_, refErr := refLUSolveVec(f, []float64{1, 1})
	sameOutcome(t, "zeroed U diagonal", err, refErr, ErrSingular)
	if !errors.Is(err, ErrSingular) {
		t.Errorf("zeroed U diagonal: err = %v, want ErrSingular", err)
	}
}

func TestFactorCholeskyMatchesReferenceBitwise(t *testing.T) {
	spd := 0
	for _, nm := range oracleMatrices() {
		name, a := nm.name, nm.m
		if r, c := a.Dims(); r != c {
			// The non-square error path needs no reference factor.
			_, err := FactorCholesky(a)
			_, refErr := refFactorCholesky(a)
			sameOutcome(t, name+": FactorCholesky", err, refErr)
			continue
		}
		got, err := FactorCholesky(a)
		want, refErr := refFactorCholesky(a)
		if !sameOutcome(t, name+": FactorCholesky", err, refErr, ErrNotPositiveDefinite) {
			continue
		}
		spd++
		if !bitsEqual(got.l.data, want.l.data) || !bitsEqual(got.lt.data, want.lt.data) {
			t.Errorf("%s: Cholesky factor bits differ from the element-wise reference", name)
		}
	}
	if spd < 4 {
		t.Fatalf("only %d inputs reached the Cholesky success path", spd)
	}
}
