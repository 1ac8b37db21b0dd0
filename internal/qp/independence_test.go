package qp

import (
	"math/rand"
	"testing"

	"github.com/rtsyslab/eucon/internal/mat"
)

// independentFromScratch is the independence test as the solver first ran
// it: a fresh QR of Awᵀ for every candidate row, the least-squares solve
// against it, and the residual's norm. The kept-factor test must reach the
// same decision on every input, because the solver's iterates rest on it.
func independentFromScratch(a *mat.Dense, working []int, idx int) bool {
	ai := a.RowView(idx)
	if len(working) == 0 {
		return mat.Norm2(ai) > 0
	}
	awt := workingColumns(a, working)
	f, err := mat.FactorQR(awt)
	if err != nil {
		panic(err)
	}
	y := make([]float64, len(working))
	if err := f.SolveLeastSquaresTo(y, make([]float64, a.Cols()), ai); err != nil {
		return true // rank-deficient basis is handled by the KKT fallback
	}
	res := mat.VecSub(awt.MulVec(y), ai)
	return mat.Norm2(res) > 1e-9*(1+mat.Norm2(ai))
}

// workingColumns is Awᵀ: one column per working row, in working-set order.
func workingColumns(a *mat.Dense, working []int) *mat.Dense {
	n := a.Cols()
	awt := mat.New(n, len(working))
	for j, w := range working {
		for i, v := range a.RowView(w) {
			awt.Set(i, j, v)
		}
	}
	return awt
}

// scriptOp is one step of an independence script: offer row add to the
// test (appending it when admitted), or drop the working row at position
// drop (add < 0).
type scriptOp struct{ add, drop int }

func offer(i int) scriptOp  { return scriptOp{add: i} }
func remove(j int) scriptOp { return scriptOp{add: -1, drop: j} }

// runScript plays ops against a workspace the way solveActiveSet drives
// it and checks, after every step, the decision against the from-scratch
// oracle and the kept factor against FactorQR of the same columns, to the
// bit. It returns the decisions in order.
func runScript(t testing.TB, a *mat.Dense, ops []scriptOp) []bool {
	t.Helper()
	n := a.Cols()
	ws := &workspace{}
	ws.ensure(n, a.Rows())
	ws.cache.bind(a) // the residual walks the row form, as in solveActiveSet
	var working []int
	var decisions []bool
	for s, op := range ops {
		if op.add < 0 {
			if op.drop >= len(working) {
				continue
			}
			working = append(working[:op.drop], working[op.drop+1:]...)
			ws.qr.Truncate(op.drop)
		} else {
			if len(working) >= n {
				continue // the solver never tests a row against a full working set
			}
			want := independentFromScratch(a, working, op.add)
			got := ws.addIfIndependent(a, working, op.add)
			if got != want {
				t.Fatalf("step %d: row %d against working %v: kept factor says independent=%v, from scratch %v", s, op.add, working, got, want)
			}
			decisions = append(decisions, got)
			if got {
				working = append(working, op.add)
			}
		}
		kept := ws.qr.Cols()
		if kept > len(working) {
			t.Fatalf("step %d: kept factor has %d columns for %d working rows", s, kept, len(working))
		}
		if op.add >= 0 && kept != len(working) {
			t.Fatalf("step %d: after a test the factor has %d columns, want all %d working rows", s, kept, len(working))
		}
		want, err := mat.FactorQR(workingColumns(a, working[:kept]))
		if err != nil {
			t.Fatal(err)
		}
		if !ws.qr.SameBits(want) {
			t.Fatalf("step %d: kept factor of working %v differs from FactorQR of its %d columns", s, working, kept)
		}
	}
	return decisions
}

// scriptRows builds n-variable rows for the table test: five generic rows
// spanning a 5-dimensional subspace (rotated by a reflector so no entry is
// structurally zero), a duplicate, a sum of two, a zero row, a generic row
// outside the subspace, and rows off the subspace by the independence
// threshold plus or minus 1e-12 and 1e-13.
func scriptRows(n int) (a *mat.Dense, near map[string]int) {
	rng := rand.New(rand.NewSource(46))
	// Rotation H = I − 2vvᵀ/(vᵀv).
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	vv := mat.Dot(v, v)
	rotate := func(x []float64) []float64 {
		s := 2 * mat.Dot(v, x) / vv
		out := make([]float64, n)
		for i := range x {
			out[i] = x[i] - s*v[i]
		}
		return out
	}
	var rows [][]float64
	add := func(x []float64) int { rows = append(rows, x); return len(rows) - 1 }
	base := make([][]float64, 5)
	for r := range base {
		x := make([]float64, n)
		for i := 0; i < 5; i++ {
			x[i] = rng.NormFloat64()
		}
		base[r] = rotate(x)
		add(base[r]) // rows 0–4
	}
	add(append([]float64(nil), base[1]...)) // 5: duplicate of row 1
	add(mat.VecAdd(base[0], base[2]))       // 6: row 0 + row 2
	add(make([]float64, n))                 // 7: zero row
	g := make([]float64, n)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	add(g) // 8: generic
	// Rows s + t·q, with s in the span of rows 0–2 and q = H·e₅ a unit
	// vector orthogonal to all five base rows: the residual against a
	// working set holding rows 0–2 is t, placed around the threshold.
	q := make([]float64, n)
	q[n-1] = 1
	q = rotate(q)
	s := mat.VecAdd(mat.VecScale(0.5, base[0]), mat.VecScale(-1.25, base[2]))
	s = mat.VecAdd(s, base[1])
	near = map[string]int{}
	thr := 1e-9 * (1 + mat.Norm2(s))
	for _, d := range []struct {
		name  string
		delta float64
	}{{"-1e-12", -1e-12}, {"-1e-13", -1e-13}, {"+1e-13", 1e-13}, {"+1e-12", 1e-12}} {
		near[d.name] = add(mat.VecAdd(s, mat.VecScale(thr+d.delta, q)))
	}
	return mat.MustFromRows(rows), near
}

func TestKeptFactorMatchesFromScratch(t *testing.T) {
	const n = 7
	a, near := scriptRows(n)
	for _, tc := range []struct {
		name string
		ops  []scriptOp
	}{
		{"appends, duplicate, sum, zero", []scriptOp{
			offer(7), offer(0), offer(1), offer(2), offer(5), offer(6), offer(7), offer(3), offer(8),
		}},
		{"middle drops and re-adds", []scriptOp{
			offer(0), offer(1), offer(2), offer(3), remove(1), offer(5), offer(1), remove(0), remove(1),
			offer(4), offer(0), offer(6), offer(2),
		}},
		{"drop the last, as a failed KKT solve does", []scriptOp{
			offer(0), offer(1), offer(2), remove(2), offer(6), offer(2), remove(2), remove(1), offer(6),
		}},
		{"successive drops before one test", []scriptOp{
			offer(0), offer(1), offer(2), offer(3), offer(4), offer(8), remove(4), remove(2), remove(0), offer(5), offer(2),
		}},
		{"fill to n−1, then drop from the front", []scriptOp{
			offer(0), offer(1), offer(2), offer(3), offer(4), offer(8), offer(7), remove(0), offer(0), remove(0), remove(0), offer(6), offer(1),
		}},
		{"near the threshold", []scriptOp{
			offer(0), offer(1), offer(2),
			offer(near["-1e-12"]), offer(near["-1e-13"]), offer(near["+1e-13"]), offer(near["+1e-12"]),
		}},
		{"near the threshold, basis in another order after a drop", []scriptOp{
			offer(3), offer(2), offer(0), offer(1), remove(0),
			offer(near["-1e-12"]), offer(near["+1e-12"]), remove(2), offer(near["+1e-13"]),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { runScript(t, a, tc.ops) })
	}
	// The threshold rows sit where they were placed: rejected 1e-12 below,
	// admitted 1e-12 above.
	got := runScript(t, a, []scriptOp{offer(0), offer(1), offer(2), offer(near["-1e-12"]), offer(near["+1e-12"])})
	if got[3] || !got[4] {
		t.Fatalf("threshold rows: admitted %v (−1e-12) and %v (+1e-12), want false and true", got[3], got[4])
	}
}

// FuzzIndependenceFactor decodes a row set and an add/drop script from
// bytes and runs it through runScript: every decision must match the
// from-scratch oracle and the kept factor FactorQR, bit for bit.
//
// Layout: byte 0 picks n (2–8) and byte 1 the row count (1–12). Each row
// then reads a kind byte: fresh entries (one byte each, a small signed
// value in sixteenths), a copy, a sum or a scaled copy of earlier rows.
// The remaining bytes are the script, one byte per step: the low bit
// chooses offer or drop, the rest indexes a row or a position.
func FuzzIndependenceFactor(f *testing.F) {
	f.Add([]byte{5, 6, 0, 16, 0, 0, 0, 0, 0, 32, 0, 0, 0, 0, 1, 0, 2, 0, 3, 2, 4, 6, 8, 3, 10})
	f.Add([]byte{3, 4, 0, 1, 2, 3, 1, 0, 2, 0, 1, 0, 0, 0, 0, 2, 4, 6, 1, 2, 0, 4})
	f.Add([]byte{8, 12, 0, 9, 200, 3, 4, 5, 6, 7, 8, 0, 250, 1, 2, 3, 4, 5, 6, 7, 2, 0, 1, 3, 1, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 2, 4, 6, 8, 10, 12, 14, 3, 1, 16, 18, 20, 5, 22, 1, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, ops, ok := decodeScript(data)
		if !ok {
			return
		}
		runScript(t, a, ops)
	})
}

func decodeScript(data []byte) (*mat.Dense, []scriptOp, bool) {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	nb, ok1 := next()
	mb, ok2 := next()
	if !ok1 || !ok2 {
		return nil, nil, false
	}
	n, m := 2+int(nb)%7, 1+int(mb)%12
	rows := make([][]float64, 0, m)
	for len(rows) < m {
		kind, ok := next()
		if !ok {
			return nil, nil, false
		}
		row := make([]float64, n)
		pick := func() []float64 {
			b, _ := next()
			return rows[int(b)%len(rows)]
		}
		switch {
		case kind%4 == 1 && len(rows) > 0:
			copy(row, pick())
		case kind%4 == 2 && len(rows) > 0:
			x, y := pick(), pick()
			for i := range row {
				row[i] = x[i] + y[i]
			}
		case kind%4 == 3 && len(rows) > 0:
			x := pick()
			b, _ := next()
			for i := range row {
				row[i] = float64(int8(b)) / 16 * x[i]
			}
		default:
			for i := range row {
				b, _ := next()
				row[i] = float64(int8(b)) / 16
			}
		}
		rows = append(rows, row)
	}
	var ops []scriptOp
	for _, b := range data {
		if b&1 == 0 {
			ops = append(ops, offer(int(b>>1)%m))
		} else {
			ops = append(ops, remove(int(b>>1)%n))
		}
	}
	return mat.MustFromRows(rows), ops, true
}

// allocGateProblem is a least-squares problem whose solve from the lower
// corner of its box both drops rows (the corner seeds every lower bound)
// and adds them (the unconstrained optimum lies past several upper bounds
// and a coupling row).
func allocGateProblem() (c *mat.Dense, d []float64, a *mat.Dense, b, x0 []float64) {
	const n = 6
	rng := rand.New(rand.NewSource(7))
	c = mat.New(n+2, n)
	for i := 0; i < n+2; i++ {
		for j := 0; j < n; j++ {
			c.Set(i, j, rng.NormFloat64())
		}
	}
	d = make([]float64, n+2)
	for i := range d {
		d[i] = 4 * rng.NormFloat64()
	}
	lo, hi := make([]float64, n), make([]float64, n)
	for i := range lo {
		lo[i], hi[i] = -1, 1
	}
	box, bb := boxConstraints(lo, hi)
	rows := make([][]float64, 0, 2*n+1)
	for i := 0; i < 2*n; i++ {
		rows = append(rows, box.RowView(i))
	}
	rows = append(rows, []float64{1, 1, 1, 0, 0, 0})
	a = mat.MustFromRows(rows)
	b = append(bb, 1.5)
	x0 = append([]float64(nil), lo...)
	return c, d, a, b, x0
}

// TestSolveKeepsFactorOfWorkingSet runs corner-started solves that add
// and drop rows and checks, after each, that the kept factor describes a
// prefix of the final working set to the bit: a drop the solver forgot to
// truncate would leave a column of a row no longer in the working set.
func TestSolveKeepsFactorOfWorkingSet(t *testing.T) {
	adds, drops := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		c := mat.New(n+2, n)
		for i := 0; i < n+2; i++ {
			for j := 0; j < n; j++ {
				c.Set(i, j, rng.NormFloat64())
			}
		}
		d := make([]float64, n+2)
		for i := range d {
			d[i] = 4 * rng.NormFloat64()
		}
		lo, hi := make([]float64, n), make([]float64, n)
		for i := range lo {
			lo[i], hi[i] = -1, 1
		}
		a, b := boxConstraints(lo, hi)
		s, err := NewLSI(c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(d, a, b, lo)
		if err != nil {
			t.Fatal(err)
		}
		adds += s.ws.stats.adds
		drops += s.ws.stats.drops
		kept := s.ws.qr.Cols()
		if kept > len(res.Active) {
			t.Fatalf("seed %d: kept factor has %d columns for %d working rows", seed, kept, len(res.Active))
		}
		want, err := mat.FactorQR(workingColumns(a, res.Active[:kept]))
		if err != nil {
			t.Fatal(err)
		}
		if !s.ws.qr.SameBits(want) {
			t.Fatalf("seed %d: kept factor differs from FactorQR of working rows %v", seed, res.Active[:kept])
		}
	}
	if adds == 0 || drops == 0 {
		t.Fatalf("the solves made %d adds and %d drops; the check needs both", adds, drops)
	}
}

func TestWarmIterativeSolveAllocatesOnlyItsResult(t *testing.T) {
	c, d, a, b, x0 := allocGateProblem()
	s, err := NewLSI(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	solve := func() *Result {
		s.ResetWarmStart() // start every solve from the same corner
		res, err := s.Solve(d, a, b, x0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := solve()
	if st := s.ws.stats; st.adds == 0 || st.drops == 0 {
		t.Fatalf("the gate's solve must both add and drop rows: %+v", st)
	}
	if len(res.Active) == 0 {
		t.Fatal("the gate's solution has no active row; its Result would not allocate Active")
	}
	ws := &s.ws
	want := testing.AllocsPerRun(20, func() {
		result(s.h, s.f, ws.x, res.Iterations, res.Active, StatusOK, 0)
	})
	got := testing.AllocsPerRun(20, func() { solve() })
	t.Logf("a warm iterative solve (%d adds, %d drops) allocates %v times; its Result %v", s.ws.stats.adds, s.ws.stats.drops, got, want)
	if got != want {
		t.Fatalf("a warm iterative LSI.Solve allocates %v times, its Result %v: the active-set loop allocates", got, want)
	}
}

func TestKKTAndIndependenceTestAllocationFree(t *testing.T) {
	c, d, a, b, x0 := allocGateProblem()
	s, err := NewLSI(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(d, a, b, x0)
	if err != nil {
		t.Fatal(err)
	}
	ws := &s.ws
	working := res.Active
	if len(working) < 2 {
		t.Fatalf("need at least two active rows, have %v", working)
	}
	g := make([]float64, len(x0))
	s.h.MulVecTo(g, res.X)
	for i := range g {
		g[i] += s.f[i]
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, _, err := solveKKT(s.hchol, a, working, g, ws); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("solveKKT: %v allocations per warm call, want 0", n)
	}
	// Drop the first working row, then offer it back: the test refactors
	// the rows behind it and appends it again.
	rest := append([]int(nil), working[1:]...)
	if n := testing.AllocsPerRun(20, func() {
		ws.qr.Truncate(0)
		if !ws.addIfIndependent(a, rest, working[0]) {
			t.Fatal("an active row was rejected as dependent")
		}
	}); n != 0 {
		t.Errorf("addIfIndependent: %v allocations per warm call, want 0", n)
	}
}
