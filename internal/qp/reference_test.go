package qp

import (
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/rtsyslab/eucon/internal/mat"
)

// referenceSolve is LSI.Solve's active-set loop with nothing kept and
// nothing sparse: every iteration forms g = H·x + f densely and solves
// H⁻¹·g with the Cholesky factor, each KKT system solves H⁻¹·aᵢ for every
// working row, assembles S and the right-hand side with dense mat.Dot and
// factors S with a fresh mat.FactorLU, the independence test is a fresh
// QR (independentFromScratch), and every row product is a dense mat.Dot.
// H, its factor and f = −2·Cᵀd are formed the way NewLSI and Solve form
// them. The decisions, the order of the arithmetic and the iteration
// structure are the solver's, so it is the oracle that every value the
// solver keeps, reuses or sums over nonzeros only must match to the bit.
// It returns the Result, the multipliers by constraint row (LSI.Multipliers)
// and the error LSI.Solve would.
func referenceSolve(c *mat.Dense, d []float64, a *mat.Dense, b, x0 []float64, warm []int, opts Options) (*Result, []float64, error) {
	n := c.Cols()
	ct := c.T()
	h := ct.Mul(c).Scale(2)
	hscale := math.Max(1, h.MaxAbs())
	for i := 0; i < n; i++ {
		h.Set(i, i, h.At(i, i)+lsiRegularization*hscale)
	}
	hchol, err := mat.FactorSPD(h)
	if err != nil {
		return nil, nil, ErrSingular
	}
	f := ct.MulVec(d)
	for i := range f {
		f[i] *= -2
	}
	m := 0
	if a != nil {
		m = a.Rows()
	}
	opts = opts.withDefaults(n, m)
	if !mat.VecFinite(x0) || !mat.VecFinite(b[:m]) {
		return nil, make([]float64, m), ErrInfeasible
	}
	x := mat.VecClone(x0)
	lambdaByRow := make([]float64, m)
	excess := func(i int) float64 { return mat.Dot(a.RowView(i), x) - b[i] }
	var v float64
	for i := 0; i < m; i++ {
		if e := excess(i); e > v {
			v = e
		}
	}
	if v > feasTol {
		return nil, lambdaByRow, ErrInfeasible
	}

	var working []int
	inWorking := make([]bool, m)
	seed := func(i int) {
		if len(working) < n && !inWorking[i] && math.Abs(excess(i)) <= tol && independentFromScratch(a, working, i) {
			working = append(working, i)
			inWorking[i] = true
		}
	}
	for _, i := range warm {
		if i >= 0 && i < m {
			seed(i)
		}
	}
	for i := 0; i < m; i++ {
		seed(i)
	}

	// Converged or capped, the objective is ‖C·x − d‖², as LSI.Solve
	// reports it.
	result := func(iter int, status Status, stationarity float64) *Result {
		r := mat.VecSub(c.MulVec(x), d)
		obj := mat.Dot(r, r)
		return &Result{
			X: mat.VecClone(x), Objective: obj, Iterations: iter,
			Active: append([]int(nil), working...), Status: status, Stationarity: stationarity,
		}
	}
	iter := 0
	stationarity := math.Inf(1)
	full := false // the last iteration took the whole step, blocked by no row
	g := make([]float64, n)
	for ; iter < opts.MaxIter; iter++ {
		h.MulVecTo(g, x)
		for i := range g {
			g[i] += f[i]
		}
		p, lambda, err := referenceKKT(hchol, a, working, g)
		if err != nil {
			if len(working) == 0 {
				return nil, lambdaByRow, ErrSingular
			}
			last := working[len(working)-1]
			working = working[:len(working)-1]
			inWorking[last] = false
			full = false
			continue
		}
		clear(lambdaByRow)
		for wi, w := range working {
			lambdaByRow[w] = lambda[wi]
		}
		scale := 1 + mat.NormInf(x)
		stationarity = mat.NormInf(p) / scale
		if full || mat.NormInf(p) <= tol*scale {
			minIdx, minVal := -1, -tol
			for wi, l := range lambda {
				if l < minVal {
					minIdx, minVal = wi, l
				}
			}
			if minIdx < 0 {
				return result(iter, StatusOK, stationarity), lambdaByRow, nil
			}
			inWorking[working[minIdx]] = false
			working = slices.Delete(working, minIdx, minIdx+1)
			full = false
			continue
		}
		alpha, blocking := 1.0, -1
		for i := 0; i < m; i++ {
			if inWorking[i] {
				continue
			}
			denom := mat.Dot(a.RowView(i), p)
			if denom <= tol {
				continue
			}
			if step := (b[i] - mat.Dot(a.RowView(i), x)) / denom; step < alpha {
				alpha, blocking = step, i
			}
		}
		if alpha < 0 {
			alpha = 0
		}
		full = blocking < 0
		for i := range x {
			x[i] += alpha * p[i]
		}
		if blocking >= 0 && len(working) < n {
			if independentFromScratch(a, working, blocking) {
				working = append(working, blocking)
				inWorking[blocking] = true
			} else if mat.IsZero(alpha) {
				continue
			}
		}
	}
	return result(iter, StatusIterationCapped, stationarity), lambdaByRow, ErrMaxIterations
}

// referenceKKT is solveKKT from scratch: H⁻¹·g and every H⁻¹·a_w solved
// afresh, S and the right-hand side summed densely, S factored anew.
func referenceKKT(hchol *mat.SPDFactor, a *mat.Dense, working []int, g []float64) (p, lambda []float64, err error) {
	hg, err := hchol.SolveVec(g)
	if err != nil {
		return nil, nil, err
	}
	k := len(working)
	if k == 0 {
		return mat.VecScale(-1, hg), nil, nil
	}
	cols := make([][]float64, k) // H⁻¹·a_w
	for j, w := range working {
		if cols[j], err = hchol.SolveVec(a.RowView(w)); err != nil {
			return nil, nil, err
		}
	}
	s := mat.New(k, k)
	rhs := make([]float64, k)
	for i, w := range working {
		for j := range working {
			s.Set(i, j, mat.Dot(a.RowView(w), cols[j]))
		}
		rhs[i] = -mat.Dot(a.RowView(w), hg)
	}
	lu, err := mat.FactorLU(s)
	if err != nil {
		return nil, nil, err
	}
	if lambda, err = lu.SolveVec(rhs); err != nil {
		return nil, nil, err
	}
	p = make([]float64, len(hg))
	for i := range p {
		v := -hg[i]
		for j := range working {
			v -= lambda[j] * cols[j][i]
		}
		p[i] = v
	}
	return p, lambda, nil
}

// sameSolve reports how a solve (res, lambda, err) differs from the
// reference's, to the bit, or "" when it does not: the error's sentinel,
// X, Active, Iterations, Status, Stationarity, Objective and, when there is
// a result, the multipliers by row.
func sameSolve(res *Result, lambda []float64, err error, ref *Result, refLambda []float64, refErr error) string {
	for _, sentinel := range []error{ErrInfeasible, ErrSingular, ErrMaxIterations} {
		if errors.Is(err, sentinel) != errors.Is(refErr, sentinel) {
			return "error " + errString(err) + ", reference " + errString(refErr)
		}
	}
	if (err == nil) != (refErr == nil) || (res == nil) != (ref == nil) {
		return "error " + errString(err) + ", reference " + errString(refErr)
	}
	if res == nil {
		return ""
	}
	bits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	switch {
	case !bits(res.X, ref.X):
		return "X differs"
	case !slices.Equal(res.Active, ref.Active):
		return "Active differs"
	case res.Iterations != ref.Iterations:
		return "Iterations differ"
	case res.Status != ref.Status:
		return "Status differs"
	case math.Float64bits(res.Stationarity) != math.Float64bits(ref.Stationarity):
		return "Stationarity differs"
	case math.Float64bits(res.Objective) != math.Float64bits(ref.Objective):
		return "Objective differs"
	case !bits(lambda, refLambda):
		return "Multipliers differ"
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "nil"
	}
	return err.Error()
}

// Palettes the fuzz target draws entries from: exact zeros of both signs
// (most of every matrix, as in the controller's), small integers and
// binary fractions, and values that round.
var (
	refCPalette = []float64{0, 0, 0, math.Copysign(0, -1), 1, -1, 0.5, 2, -3, 0.1}
	refAPalette = []float64{0, 0, math.Copysign(0, -1), math.Copysign(0, -1), 1, -1, 2, 0.5, -0.25, 0.3}
	refXPalette = []float64{0, math.Copysign(0, -1), 0.5, -1, 1, 2, -0.75}
	refSlack    = []float64{0, 0, 0.5, 1, 3}
	refDPalette = []float64{0, 1, -1, 4, -2.5, 10, -7, 0.3}
)

// refProblem is a small constrained least-squares problem decoded from
// fuzz input (decodeRefProblem): a stack C, constraints a·x ≤ b (a nil when
// there are none), a feasible start x0 and two right-hand sides d.
type refProblem struct {
	c, a *mat.Dense
	b    []float64
	x0   []float64
	ds   [2][]float64
}

// decodeRefProblem decodes FuzzSolveMatchesReference's input. H = 2·(CᵀC +
// εI) comes from a sparse C, A holds exact ±0 entries and may repeat rows
// (dependent constraints), and the start is feasible by construction:
// bᵢ = aᵢ·x0 + slack with slack ≥ 0, zero slack making a row active at the
// start. It reports false for input too short to pick the dimensions.
//
// Layout: byte 0 picks n (1–8), byte 1 the constraint rows m (0–16) and
// byte 2 the rows of C (1–8). C's entries follow, one byte each. Each row
// of A reads a kind byte: kind%4 == 3 repeats an earlier row (kind/4 picks
// it), anything else reads n entry bytes. Then n bytes of x0, m of slack
// and two right-hand sides d. Every byte indexes its palette; a missing
// byte is index 0.
func decodeRefProblem(data []byte) (refProblem, bool) {
	if len(data) < 3 {
		return refProblem{}, false
	}
	n, m, rc := 1+int(data[0])%8, int(data[1])%17, 1+int(data[2])%8
	data = data[3:]
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	pick := func(palette []float64) float64 { return palette[next()%len(palette)] }
	var pr refProblem
	pr.c = mat.New(rc, n)
	for i := 0; i < rc; i++ {
		for j := 0; j < n; j++ {
			pr.c.Set(i, j, pick(refCPalette))
		}
	}
	if m > 0 {
		pr.a = mat.New(m, n)
		for i := 0; i < m; i++ {
			if kind := next(); kind%4 == 3 && i > 0 {
				copy(pr.a.RowView(i), pr.a.RowView(kind/4%i))
				continue
			}
			for j := 0; j < n; j++ {
				pr.a.Set(i, j, pick(refAPalette))
			}
		}
	}
	pr.x0 = make([]float64, n)
	for j := range pr.x0 {
		pr.x0[j] = pick(refXPalette)
	}
	pr.b = make([]float64, m)
	for i := range pr.b {
		pr.b[i] = mat.Dot(pr.a.RowView(i), pr.x0) + pick(refSlack)
	}
	for k := range pr.ds {
		pr.ds[k] = make([]float64, rc)
		for i := range pr.ds[k] {
			pr.ds[k][i] = pick(refDPalette)
		}
	}
	return pr, true
}

// crawlSeed is FuzzSolveMatchesReference's input whose first solve (3
// variables, 4 rows) took full, unblocked steps on one working list with
// ‖p‖∞ just above tol·(1 + ‖x‖∞) until the 450-iteration cap, before the
// full-step rule.
const crawlSeed = "270000000000000700000011C00"

// FuzzSolveMatchesReference decodes a small constrained least-squares
// problem (decodeRefProblem) and requires the solver to match
// referenceSolve bit for bit (sameSolve) on two warm-chained LSI.Solve
// calls, and SolveInteriorTo, when it resolves the problem from the origin,
// to match the reference solve from the origin.
func FuzzSolveMatchesReference(f *testing.F) {
	f.Add([]byte{2, 4, 3, 4, 5, 6, 7, 8, 9, 0, 4, 0, 0, 4, 1, 5, 0, 5, 1, 0, 0, 1, 0, 3, 4, 2, 5})
	// One variable: the working set empties and a different row enters,
	// so a factor of S kept by working-list length alone would be stale.
	f.Add([]byte("0X1000000010"))
	f.Add([]byte(crawlSeed))
	f.Add([]byte{13, 6, 14, 1, 15, 11, 0, 2, 8, 2, 0, 13, 10, 7, 9, 8, 6, 13, 8, 2, 8, 8, 2, 8, 15, 9,
		4, 8, 12, 9, 8, 9, 0, 15, 2, 8, 5, 7, 2, 2, 12, 14, 12, 9, 10, 3, 15, 7, 14, 12, 11, 5, 2, 14, 3,
		2, 7, 7, 10, 5, 2, 1, 0, 10, 6, 15, 15, 6, 8, 5, 1, 8, 14, 6, 15, 13, 14, 11, 0, 10, 15, 8, 13,
		8, 5, 8, 8, 8, 3, 12, 1, 9, 3, 7, 1, 13, 1, 14, 13, 1, 1, 2})
	f.Add([]byte{10, 12, 13, 3, 13, 1, 7, 6, 4, 9, 12, 0, 7, 8, 2, 0, 14, 2, 5, 1, 15, 5, 10, 15, 13,
		10, 0, 8, 13, 2, 14, 2, 13, 5, 8, 1, 6, 2, 13, 9, 1, 6, 13, 11, 0, 7, 12, 8, 11, 15, 14, 10, 1,
		0, 8, 13, 5, 3, 3, 4, 9, 7, 11, 8, 11, 1, 4, 5, 11, 5, 4, 8, 2, 3, 1, 0, 2, 8, 5, 8, 8, 7, 9, 5,
		15, 14, 3, 1, 7, 12, 2, 15, 13, 13, 13, 2, 11, 3, 12, 3, 0, 14, 5, 8, 1})
	f.Add([]byte{4, 8, 8, 1, 2, 2, 7, 10, 12, 4, 7, 13, 5, 13, 15, 12, 7, 4, 0, 0, 15, 1, 6, 15, 9, 4,
		2, 7, 11, 15, 12, 13, 1, 9, 1, 15, 13, 1, 4, 2, 6, 9, 8, 7, 10, 13, 13, 6, 15, 15, 4, 2, 11, 3,
		5, 8, 4, 10, 6, 15, 9, 10, 2, 2, 1, 8, 8, 14, 1, 0, 1, 14, 12, 12, 3, 5, 10, 12, 7, 2, 0, 3, 9,
		4, 8, 1, 5, 2, 5, 14, 4, 1, 5, 8, 14, 3, 7, 3, 4, 14, 0, 15, 11, 11, 13, 3, 11})
	f.Add([]byte{13, 7, 1, 0, 15, 11, 13, 7, 6, 2, 14, 8, 15, 5, 5, 8, 8, 4, 5, 15, 7, 10, 15, 10, 15,
		2, 14, 4, 14, 11, 15, 14, 12, 13, 15, 2, 7, 14, 1, 6, 1, 0, 3, 7, 11, 6, 11, 2, 4, 8, 5, 14, 4,
		10, 6, 1, 6, 12, 6, 9, 0, 3, 8, 3, 15, 5, 5, 14, 4, 5, 8, 2, 7, 5, 14, 11, 3, 7, 4, 8, 4, 6, 12,
		12})
	f.Fuzz(func(t *testing.T, data []byte) {
		pr, ok := decodeRefProblem(data)
		if !ok {
			return
		}
		c, a, b, x0, n := pr.c, pr.a, pr.b, pr.x0, pr.c.Cols()
		s, err := NewLSI(c, Options{})
		if err != nil {
			t.Skip("C gives no positive definite H")
		}
		for k, d := range pr.ds {
			ref, refLambda, refErr := referenceSolve(c, d, a, b, x0, s.warm, s.opts)
			res, err := s.Solve(d, a, b, x0)
			if diff := sameSolve(res, s.Multipliers(), err, ref, refLambda, refErr); diff != "" {
				t.Fatalf("solve %d: %s\nsolver    %+v %v\nreference %+v %v", k, diff, res, err, ref, refErr)
			}
		}
		interior, err := NewLSI(c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		if iters, ok := interior.SolveInteriorTo(x, pr.ds[0], a, b); ok {
			ref, _, refErr := referenceSolve(c, pr.ds[0], a, b, make([]float64, n), nil, Options{})
			if refErr != nil || ref.Iterations != iters || len(ref.Active) != 0 ||
				!slices.EqualFunc(x, ref.X, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) }) {
				t.Fatalf("interior solve: x = %v in %d iterations, reference %+v %v", x, iters, ref, refErr)
			}
		}
	})
}
