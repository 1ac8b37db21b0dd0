package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestNewZeroFilled(t *testing.T) {
	m := New(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims() = (%d,%d), want (3,4)", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestNewFromRowsRagged(t *testing.T) {
	if _, err := NewFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("NewFromRows with ragged rows returned nil error")
	}
}

func TestNewFromRowsCopies(t *testing.T) {
	row := []float64{1, 2}
	m := MustFromRows([][]float64{row})
	row[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("NewFromRows did not copy input data")
	}
}

func TestSetAt(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 0, 7.5)
	if m.At(1, 0) != 7.5 {
		t.Fatalf("At(1,0) = %v, want 7.5", m.At(1, 0))
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At(2,0) did not panic")
		}
	}()
	m.At(2, 0)
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Errorf("Identity(3).At(%d,%d) = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestDiag(t *testing.T) {
	m := Diag([]float64{2, 3})
	want := MustFromRows([][]float64{{2, 0}, {0, 3}})
	if !m.Equal(want, 0) {
		t.Fatalf("Diag = %v, want %v", m, want)
	}
}

func TestMul(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2}, {3, 4}})
	b := MustFromRows([][]float64{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want := MustFromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulVec(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec([]float64{1, 0, -1})
	if !VecEqual(got, []float64{-2, -2}, 1e-12) {
		t.Fatalf("MulVec = %v, want [-2 -2]", got)
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with mismatched dims did not panic")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestTranspose(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.T()
	want := MustFromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	if !got.Equal(want, 0) {
		t.Fatalf("T() = %v, want %v", got, want)
	}
}

func TestTransposeProperty(t *testing.T) {
	// (A·B)ᵀ == Bᵀ·Aᵀ for random matrices.
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomDense(r, 2+rng.Intn(5), 2+rng.Intn(5))
		b := randomDense(r, a.Cols(), 2+rng.Intn(5))
		lhs := a.Mul(b).T()
		rhs := b.T().Mul(a.T())
		return lhs.Equal(rhs, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubScale(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2}, {3, 4}})
	b := MustFromRows([][]float64{{4, 3}, {2, 1}})
	if got, want := a.Add(b), MustFromRows([][]float64{{5, 5}, {5, 5}}); !got.Equal(want, 0) {
		t.Errorf("Add = %v, want %v", got, want)
	}
	if got, want := a.Sub(b), MustFromRows([][]float64{{-3, -1}, {1, 3}}); !got.Equal(want, 0) {
		t.Errorf("Sub = %v, want %v", got, want)
	}
	if got, want := a.Scale(2), MustFromRows([][]float64{{2, 4}, {6, 8}}); !got.Equal(want, 0) {
		t.Errorf("Scale = %v, want %v", got, want)
	}
}

func TestRowColCopies(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2}, {3, 4}})
	r := a.Row(0)
	r[0] = 99
	if a.At(0, 0) != 1 {
		t.Error("Row returned a view, want a copy")
	}
	c := a.Col(1)
	c[0] = 99
	if a.At(0, 1) != 2 {
		t.Error("Col returned a view, want a copy")
	}
	if !VecEqual(a.Col(1), []float64{2, 4}, 0) {
		t.Errorf("Col(1) = %v, want [2 4]", a.Col(1))
	}
}

func TestSetRow(t *testing.T) {
	a := New(2, 3)
	a.SetRow(1, []float64{7, 8, 9})
	if !VecEqual(a.Row(1), []float64{7, 8, 9}, 0) {
		t.Fatalf("Row(1) = %v after SetRow", a.Row(1))
	}
}

func TestSlice(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	got := a.Slice(1, 3, 0, 2)
	want := MustFromRows([][]float64{{4, 5}, {7, 8}})
	if !got.Equal(want, 0) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
}

func TestRowPrefixIsAView(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	v := a.RowPrefix(2)
	if !v.Equal(a.Slice(0, 2, 0, 3), 0) {
		t.Fatalf("RowPrefix(2) = %v, want the first two rows of %v", v, a)
	}
	if &v.RowView(0)[0] != &a.RowView(0)[0] {
		t.Fatal("RowPrefix copied the storage; it must alias the parent's")
	}
	a.Set(1, 2, -6)
	if v.At(1, 2) != -6 {
		t.Fatalf("a write through the parent is not visible in the view: %v", v)
	}
	if r, c := a.RowPrefix(0).Dims(); r != 0 || c != 3 {
		t.Fatalf("RowPrefix(0) is %dx%d, want 0x3", r, c)
	}
	for _, k := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RowPrefix(%d) of a 3-row matrix did not panic", k)
				}
			}()
			a.RowPrefix(k)
		}()
	}
}

func TestStackV(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2}})
	b := MustFromRows([][]float64{{3, 4}, {5, 6}})
	got := StackV(a, b)
	want := MustFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if !got.Equal(want, 0) {
		t.Fatalf("StackV = %v, want %v", got, want)
	}
}

func TestStackH(t *testing.T) {
	a := MustFromRows([][]float64{{1}, {2}})
	b := MustFromRows([][]float64{{3, 4}, {5, 6}})
	got := StackH(a, b)
	want := MustFromRows([][]float64{{1, 3, 4}, {2, 5, 6}})
	if !got.Equal(want, 0) {
		t.Fatalf("StackH = %v, want %v", got, want)
	}
}

func TestNorms(t *testing.T) {
	a := MustFromRows([][]float64{{3, -4}})
	if got := a.FrobeniusNorm(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("FrobeniusNorm = %v, want 5", got)
	}
	if got := a.MaxAbs(); got != 4 {
		t.Errorf("MaxAbs = %v, want 4", got)
	}
}

func TestString(t *testing.T) {
	a := MustFromRows([][]float64{{1, 2}, {3, 4}})
	if got := a.String(); got != "2x2 [1 2; 3 4]" {
		t.Fatalf("String() = %q", got)
	}
}
