package qp

import (
	"math"
	"slices"
	"testing"

	"github.com/rtsyslab/eucon/internal/mat"
)

// rowFormPalette is what the differential tests draw entries from: exact
// zeros of both signs, subnormals, the smallest normal, ordinary values,
// and magnitudes whose products overflow.
var rowFormPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -2.75, 3, 0.1, -7, 1.5e-9,
	5e-324, -5e-324, 3e-320, 2.2250738585072014e-308, 1e-300, 1e300, -1e300,
}

// denseAddRow is the independence test's residual step as the solver first
// ran it: r[j] += aᵢⱼ·y over every column.
func denseAddRow(r, row []float64, y float64) {
	for j := range r {
		r[j] += row[j] * y
	}
}

// checkRowForm binds a fresh cache to a and requires the row-form kernels
// to give, for every row, the bits of the dense sums with x: mat.Dot, and
// an accumulation of y·aᵢ over all rows into a vector that starts at +0;
// and, for the whole matrix, the bits of Dense.MulVecTo.
func checkRowForm(t testing.TB, a *mat.Dense, x []float64, y float64) {
	t.Helper()
	var c kktCache
	c.bind(a)
	m, n := a.Rows(), a.Cols()
	got, want := make([]float64, n), make([]float64, n)
	for i := 0; i < m; i++ {
		row := a.RowView(i)
		for k := c.start[i]; k < c.start[i+1]; k++ {
			if v := c.vals[k]; v == 0 || math.Float64bits(v) != math.Float64bits(row[c.cols[k]]) {
				t.Fatalf("row %d: row form holds %g in column %d, the matrix %g", i, v, c.cols[k], row[c.cols[k]])
			}
		}
		nnz := 0
		for _, v := range row {
			if v != 0 {
				nnz++
			}
		}
		if c.start[i+1]-c.start[i] != nnz {
			t.Fatalf("row %d %v: row form holds %d entries, the row has %d nonzeros", i, row, c.start[i+1]-c.start[i], nnz)
		}
		if s, d := c.rowDot(i, x), mat.Dot(row, x); math.Float64bits(s) != math.Float64bits(d) {
			t.Fatalf("row %d %v · %v: row form %g (%#x), dense %g (%#x)", i, row, x, s, math.Float64bits(s), d, math.Float64bits(d))
		}
		c.addRow(got, i, y)
		denseAddRow(want, row, y)
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("rows 0..%d times %g, column %d: row form %g (%#x), dense %g (%#x)",
					i, y, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
	}
	got, want = make([]float64, m), make([]float64, m)
	c.mulVecTo(got, x)
	a.MulVecTo(want, x)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%v · %v, row %d: row form %g (%#x), Dense.MulVecTo %g (%#x)",
				a, x, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestRowFormMatchesDenseBitwise runs every palette value as every vector
// entry against rows that mix zeros of both signs, subnormals and ordinary
// values.
func TestRowFormMatchesDenseBitwise(t *testing.T) {
	negZero := math.Copysign(0, -1)
	a := mat.MustFromRows([][]float64{
		{0, negZero, 0, 0},
		{1, 0, negZero, -2.75},
		{5e-324, 0, 0, 1e300},
		{negZero, 3e-320, -1, 0},
		{0.1, 0.5, 3, -7},
	})
	if want := []int{0, 0, 2, 4, 6, 10}; !slices.Equal(rowStarts(a), want) {
		t.Fatalf("row starts %v, want %v: ±0 is no entry, a subnormal is one", rowStarts(a), want)
	}
	for _, v := range rowFormPalette {
		for _, w := range rowFormPalette {
			checkRowForm(t, a, []float64{v, w, v, w}, v)
			checkRowForm(t, a, []float64{w, negZero, v, 0}, w)
		}
	}
}

func rowStarts(a *mat.Dense) []int {
	var c kktCache
	c.bind(a)
	return c.start
}

// TestRowFormNonFiniteEntries pins where the row form and the dense sum
// part: a NaN or ±Inf entry of the vector at a zero coefficient makes the
// dense term 0·NaN or 0·Inf, which is NaN, and the row form never forms
// it. At a nonzero coefficient both sums see the entry. The solver's
// iterates are finite (a start is checked, a step is a finite multiple of
// a Cholesky solve), and the controller hands it only finite measurements
// and rates (mpc.Controller.StepTo holds the rates otherwise), so this
// never decides anything there.
func TestRowFormNonFiniteEntries(t *testing.T) {
	a := mat.MustFromRows([][]float64{{2, 0, -1}})
	var c kktCache
	c.bind(a)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := []float64{1, bad, 0.5}
		if d := mat.Dot(a.RowView(0), x); !math.IsNaN(d) {
			t.Fatalf("dense sum with %g at a zero coefficient: %g, want NaN", bad, d)
		}
		if s := c.rowDot(0, x); s != 1.5 {
			t.Fatalf("row form with %g at a zero coefficient: %g, want 1.5 (the zero column is skipped)", bad, s)
		}
		r := []float64{0, 0, 0}
		c.addRow(r, 0, 1)
		if r[1] != 0 {
			t.Fatalf("row form added into a zero column: %v", r)
		}
		got, want := []float64{0}, []float64{0}
		c.mulVecTo(got, x)
		a.MulVecTo(want, x)
		if got[0] != 1.5 || !math.IsNaN(want[0]) {
			t.Fatalf("product with %g at a zero coefficient: row form %g, Dense.MulVecTo %g; want 1.5 and NaN", bad, got[0], want[0])
		}
		x = []float64{bad, 0, 0.5}
		s, d := c.rowDot(0, x), mat.Dot(a.RowView(0), x)
		if math.IsNaN(bad) != math.IsNaN(s) || math.IsNaN(s) != math.IsNaN(d) || (!math.IsNaN(s) && s != d) {
			t.Fatalf("%g at a nonzero coefficient: row form %g, dense %g", bad, s, d)
		}
	}
}

// FuzzRowForm decodes a matrix and a vector from bytes and requires the
// row-form kernels to match the dense sums bit for bit (checkRowForm).
//
// Layout: byte 0 picks n (1–8) and byte 1 the row count (1–6); then one
// byte per matrix entry, row by row, and one per vector entry, each an
// index into rowFormPalette; a missing byte is +0. The last byte picks the
// residual's multiplier y from the palette.
func FuzzRowForm(f *testing.F) {
	f.Add([]byte{3, 2, 0, 1, 2, 3, 10, 11, 4, 12, 1, 5})
	f.Add([]byte{7, 5, 0, 1, 11, 12, 13, 14, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 1, 1, 1, 1, 1, 0, 10, 11, 12, 13, 14, 15, 16, 3})
	f.Add([]byte{1, 0, 15, 16, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, m := 1+int(data[0])%8, 1+int(data[1])%6
		data = data[2:]
		pick := func() float64 {
			if len(data) == 0 {
				return 0
			}
			v := rowFormPalette[int(data[0])%len(rowFormPalette)]
			data = data[1:]
			return v
		}
		a := mat.New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, pick())
			}
		}
		x := make([]float64, n)
		for j := range x {
			x[j] = pick()
		}
		checkRowForm(t, a, x, pick())
	})
}

// TestLineSearchClampsNegativeStep starts a solve on a row it cannot seed
// (the working set is already full) that the start violates within
// feasTol. After the first drop the step direction p leaves that row's
// aᵢ·p just above tol, so its ratio (bᵢ − aᵢ·x)/(aᵢ·p) is −1/3: a line
// search that did not clamp the step at 0 would move x backwards along p,
// off the row it just dropped, and the solve would end there, infeasible.
//
// The problem is ½‖x − t‖² over x ≤ 0, y ≤ 0 and −10⁻⁴·x + y ≤ −5·10⁻¹⁰
// from the origin, t = (−1.5·10⁻⁵, 1): the origin is a vertex of the first
// two rows, x ≤ 0 has multiplier t₀ < 0 and is dropped, p = (t₀, 0), and
// the third row's aᵢ·p = 1.5·10⁻⁹.
func TestLineSearchClampsNegativeStep(t *testing.T) {
	target := []float64{-1.5e-5, 1}
	h := mat.Identity(2)
	f := []float64{-target[0], -target[1]}
	a := mat.MustFromRows([][]float64{{1, 0}, {0, 1}, {-1e-4, 1}})
	b := []float64{0, 0, -5e-10}
	x0 := []float64{0, 0}

	excess := mat.Dot(a.RowView(2), x0) - b[2]
	denom := mat.Dot(a.RowView(2), []float64{target[0], 0})
	if !(excess > 0 && excess <= feasTol) || !(denom > tol && denom < 2*tol) {
		t.Fatalf("row 2 starts %g over its bound and has aᵢ·p = %g: the scenario needs (0, %g] and just above %g", excess, denom, feasTol, tol)
	}
	if back := excess / denom * math.Abs(target[0]); !(back > 1e3*feasTol) {
		t.Fatalf("an unclamped step would move x back by only %g", back)
	}

	hchol, err := mat.FactorSPDDense(h)
	if err != nil {
		t.Fatal(err)
	}
	ws := &workspace{keepLambda: true}
	hrows := newRowForm(h)
	res, err := solveActiveSet(h, &hrows, hchol, f, a, b, x0, nil, Options{}, ws)
	if err != nil {
		t.Fatal(err)
	}
	if st := ws.stats; st.seeded != 2 || st.drops != 1 || st.adds != 1 {
		t.Fatalf("working-set history %+v: want both bounds seeded, x ≤ 0 dropped, row 2 added by the line search", st)
	}
	if !slices.Equal(res.Active, []int{1, 2}) {
		t.Fatalf("active set %v, want [1 2]", res.Active)
	}
	c := Certify(h, f, a, b, res.X, ws.lambda)
	if c.Primal > feasTol || c.Dual > tol || c.Complementarity > 1e-9 || c.Stationarity > 1e-9 {
		t.Fatalf("x = %v does not certify: %+v", res.X, c)
	}
}

// TestRowFormBuiltOncePerStorage: the row form is built when a storage is
// first bound. A solve on a row-prefix view of the bound storage reuses it
// and binding the view allocates nothing; a different storage with the
// same entries gets its own.
func TestRowFormBuiltOncePerStorage(t *testing.T) {
	c, d, a, b, x0 := allocGateProblem()
	s, err := NewLSI(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	solve := func(a *mat.Dense) {
		t.Helper()
		if _, err := s.Solve(d, a, b[:a.Rows()], x0); err != nil {
			t.Fatal(err)
		}
	}
	rows := &s.ws.cache
	solve(a)
	full := &rows.start[0]
	box := a.RowPrefix(2 * len(x0))
	solve(box)
	if &rows.start[0] != full || rows.m != a.Rows() {
		t.Fatal("a solve on a row-prefix view rebuilt the row form")
	}
	if n := testing.AllocsPerRun(10, func() { rows.bind(box); rows.bind(a) }); n != 0 {
		t.Fatalf("binding the view and the storage it views allocates %v times", n)
	}
	solve(a.Clone())
	if &rows.start[0] == full {
		t.Fatal("a solve on a different storage kept the old row form")
	}
}
