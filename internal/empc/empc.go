// Package empc compiles an explicit model-predictive control law: the
// offline enumeration of the critical regions of a parametric
// inequality-constrained least-squares problem
//
//	minimize  ‖C·z − d(θ)‖²   subject to  A·z ≤ b(θ)
//
// whose right-hand sides are affine in a parameter vector θ,
//
//	d(θ) = D·θ + d₀,   b(θ) = S·θ + s₀.
//
// For EUCON, θ stacks the measured utilizations, the applied task rates,
// and the previous control move — everything the controller's per-period
// solve depends on — so the optimal move z*(θ) is a piecewise-affine
// function of θ ("The explicit linear quadratic regulator for constrained
// systems", Bemporad et al.; see PAPERS.md for the parallel-enumeration
// variant this compiler follows). Each critical region is the polyhedron
// of parameters sharing one optimal active set W:
//
//	z(θ) = z_u(θ) − H⁻¹·A_Wᵀ·λ(θ),   λ(θ) = M⁻¹·(A_W·z_u(θ) − b_W(θ))
//
// with H = 2(CᵀC + εI), z_u(θ) = −H⁻¹·f(θ), f(θ) = −2Cᵀd(θ), and
// M = A_W·H⁻¹·A_Wᵀ; the region is cut out by the inactive-constraint
// inequalities A_i·z(θ) ≤ b_i(θ) and the dual-feasibility inequalities
// λ(θ) ≥ 0. Enumeration walks the active-set graph breadth-first from the
// interior region (W = ∅), flipping one facet at a time, with each
// frontier level fanned out across a worker pool; the resulting region
// table is independent of the worker count and carries a deterministic
// build digest so CI can prove two compiles agreed bit for bit.
//
// The compiled Law is a flat, cache-friendly point-location structure:
// one []float64 for all halfspace rows, one for all gain rows, located by
// sequential scan with a caller-held warm-start hint. The control loop
// never queries it: internal/mpc resolves the interior region through
// qp.LSI.SolveInteriorTo, which is bit-identical to the iterative solver
// and whose guards decide membership themselves, and only counts hits and
// misses against an attached law. The stored affine gains of every region
// are accurate to solver tolerance (~1e-9) and serve point location,
// analysis, and the equivalence property tests.
package empc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/rtsyslab/eucon/internal/mat"
)

// hessianRidge mirrors the qp package's least-squares regularization so the
// region algebra uses the same Hessian the online solver factors.
const hessianRidge = 1e-8

// interiorSlack shrinks region halfspaces during the emptiness test so only
// full-dimensional regions (within the parameter domain) are kept; regions
// that exist only as lower-dimensional facets are unreachable by the
// runtime's tolerance-padded point location anyway.
const interiorSlack = 1e-7

// Problem describes the parametric program to compile. All matrices are
// captured by reference and must not be mutated while Compile runs.
type Problem struct {
	// C is the least-squares stack (ℓ×nz): the cost is ‖C·z − d(θ)‖².
	C *mat.Dense
	// A holds the constraint rows (mc×nz): A·z ≤ b(θ).
	A *mat.Dense
	// D and D0 give the affine cost target d(θ) = D·θ + D0 (D is ℓ×nθ).
	D  *mat.Dense
	D0 []float64
	// S and S0 give the affine constraint bound b(θ) = S·θ + S0 (S is mc×nθ).
	S  *mat.Dense
	S0 []float64
	// ThetaLo and ThetaHi bound the admissible parameter box; regions with
	// no interior inside the box are pruned.
	ThetaLo, ThetaHi []float64
	// GainRows is how many leading rows of z(θ) each region stores (the
	// controller only applies the first control move); 0 stores all nz.
	GainRows int
}

func (p *Problem) validate() (nz, mc, nl, nTheta int, err error) {
	if p.C == nil || p.A == nil || p.D == nil || p.S == nil {
		return 0, 0, 0, 0, errors.New("empc: problem matrices must all be non-nil")
	}
	nl, nz = p.C.Dims()
	mcRows, acols := p.A.Dims()
	if acols != nz {
		return 0, 0, 0, 0, fmt.Errorf("empc: A has %d columns, want %d", acols, nz)
	}
	dRows, nTheta := p.D.Dims()
	if dRows != nl {
		return 0, 0, 0, 0, fmt.Errorf("empc: D has %d rows, want %d", dRows, nl)
	}
	if sr, sc := p.S.Dims(); sr != mcRows || sc != nTheta {
		return 0, 0, 0, 0, fmt.Errorf("empc: S is %dx%d, want %dx%d", sr, sc, mcRows, nTheta)
	}
	if len(p.D0) != nl || len(p.S0) != mcRows {
		return 0, 0, 0, 0, fmt.Errorf("empc: offset lengths %d/%d, want %d/%d", len(p.D0), len(p.S0), nl, mcRows)
	}
	if len(p.ThetaLo) != nTheta || len(p.ThetaHi) != nTheta {
		return 0, 0, 0, 0, fmt.Errorf("empc: domain box lengths %d/%d, want %d", len(p.ThetaLo), len(p.ThetaHi), nTheta)
	}
	for t := range p.ThetaLo {
		if p.ThetaLo[t] > p.ThetaHi[t] {
			return 0, 0, 0, 0, fmt.Errorf("empc: domain box lo[%d] = %g > hi[%d] = %g", t, p.ThetaLo[t], t, p.ThetaHi[t])
		}
	}
	if p.GainRows < 0 || p.GainRows > nz {
		return 0, 0, 0, 0, fmt.Errorf("empc: GainRows %d outside [0, %d]", p.GainRows, nz)
	}
	return nz, mcRows, nl, nTheta, nil
}

// Options tunes the offline compile. The zero value selects the defaults.
type Options struct {
	// MaxRegions caps how many critical regions are enumerated; the walk
	// stops enqueueing new active sets beyond the cap and the Report marks
	// the law truncated. 0 selects 64 — enough to cover the operating
	// envelope of the paper workloads while keeping compile time bounded.
	MaxRegions int
	// Workers sizes the region-exploration pool; 0 selects GOMAXPROCS. The
	// compiled law and its digest are identical for every worker count.
	Workers int
	// Tol is the numerical tolerance for degenerate-row detection; 0
	// selects 1e-9 (the qp solver default).
	Tol float64
}

func (o Options) withDefaults() Options {
	if o.MaxRegions <= 0 {
		o.MaxRegions = 64
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	return o
}

// Report summarizes one offline compile for logs and CI trend records.
type Report struct {
	// Regions is how many critical regions the law stores.
	Regions int
	// Explored is how many candidate active sets were expanded (stored
	// regions plus degenerate and empty candidates).
	Explored int
	// Truncated reports that the MaxRegions cap stopped the enumeration
	// before the active-set graph was exhausted.
	Truncated bool
	// Digest is the law's deterministic build digest (FNV-64a, hex).
	Digest string
	// Workers is the pool size the compile ran with.
	Workers int
}

// region indexes one critical region's rows inside the Law's flat arrays.
type region struct {
	hsOff, hsRows  int // halfspace rows: nTheta+1 floats each (coeffs, rhs)
	gainOff        int // gainRows×(nTheta+1) floats (gain row, offset)
	actOff, actLen int
}

// Law is a compiled piecewise-affine control law: the flat region table
// plus point location. It is immutable after Compile and safe for
// concurrent readers.
type Law struct {
	nTheta   int
	gainRows int
	regions  []region
	hs       []float64 // all halfspace rows, normalized to unit ∞-norm
	gains    []float64
	active   []int
	interior int // index of the W = ∅ region, -1 if pruned
	digest   uint64
}

// locateTol pads point location so a query on a shared facet resolves to
// whichever adjacent region is scanned first instead of falling off the map.
const locateTol = 1e-9

// Regions reports how many critical regions the law stores.
func (l *Law) Regions() int { return len(l.regions) }

// NumTheta reports the parameter dimension.
func (l *Law) NumTheta() int { return l.nTheta }

// GainRows reports how many leading decision-vector rows each region's
// stored gain produces.
func (l *Law) GainRows() int { return l.gainRows }

// InteriorIndex reports the index of the empty-active-set region — the
// region where no constraint binds and the law coincides with the
// unconstrained least-squares solution — or -1 if it was pruned.
//
//eucon:noalloc
func (l *Law) InteriorIndex() int { return l.interior }

// Digest reports the deterministic build digest as a 16-hex-digit string:
// FNV-64a over the region count, active sets, halfspace rows, and gain
// rows in enumeration order. Equal digests prove two compiles produced
// bit-identical laws regardless of worker count.
func (l *Law) Digest() string { return fmt.Sprintf("%016x", l.digest) }

// ActiveSet reports region idx's optimal active set. The returned slice
// aliases the law's internal storage and must not be modified.
func (l *Law) ActiveSet(idx int) []int {
	r := l.regions[idx]
	return l.active[r.actOff : r.actOff+r.actLen : r.actOff+r.actLen]
}

// Contains reports whether theta satisfies every halfspace of region idx
// (with the locate tolerance).
//
//eucon:noalloc
func (l *Law) Contains(idx int, theta []float64) bool {
	r := l.regions[idx]
	row := l.hs[r.hsOff:]
	stride := l.nTheta + 1
	for i := 0; i < r.hsRows; i++ {
		w := row[i*stride : i*stride+l.nTheta]
		var dot float64
		for t, c := range w {
			dot += c * theta[t]
		}
		if dot > row[i*stride+l.nTheta]+locateTol {
			return false
		}
	}
	return true
}

// Locate returns the index of a region containing theta, scanning
// sequentially from the warm-start hint (the region the previous query
// resolved to), or -1 when theta falls off the compiled map. Facet points
// may resolve to either adjacent region.
//
//eucon:noalloc
func (l *Law) Locate(theta []float64, hint int) int {
	if hint >= 0 && hint < len(l.regions) && l.Contains(hint, theta) {
		return hint
	}
	for i := range l.regions {
		if i != hint && l.Contains(i, theta) {
			return i
		}
	}
	return -1
}

// EvaluateInto writes region idx's affine control law K·θ + k₀ into dst
// (length GainRows). The result approximates the iterative solver's
// optimal move to solver tolerance; the runtime's bit-exact path for the
// interior region lives in qp.LSI.SolveInteriorTo.
//
//eucon:noalloc
func (l *Law) EvaluateInto(dst, theta []float64, idx int) {
	r := l.regions[idx]
	stride := l.nTheta + 1
	for i := 0; i < l.gainRows; i++ {
		row := l.gains[r.gainOff+i*stride : r.gainOff+(i+1)*stride]
		s := row[l.nTheta]
		for t := 0; t < l.nTheta; t++ {
			s += row[t] * theta[t]
		}
		dst[i] = s
	}
}

// Evaluate locates theta and evaluates its region's law, returning the
// move, the region index, and whether theta was on the map. It allocates;
// hot paths should hold a dst and use Locate + EvaluateInto.
func (l *Law) Evaluate(theta []float64, hint int) ([]float64, int, bool) {
	idx := l.Locate(theta, hint)
	if idx < 0 {
		return nil, -1, false
	}
	dst := make([]float64, l.gainRows)
	l.EvaluateInto(dst, theta, idx)
	return dst, idx, true
}

// regionData is one explored candidate's full description, produced by a
// pool worker and merged sequentially.
type regionData struct {
	active    []int
	hs        []float64 // normalized halfspace rows, (nTheta+1) floats each
	gains     []float64 // gainRows×(nTheta+1)
	neighbors [][]int   // candidate active sets one facet flip away
}

// compiler carries the shared immutable problem data of one Compile call.
type compiler struct {
	p      *Problem
	opts   Options
	nz, mc int
	nl     int
	nTheta int
	gRows  int
	h      *mat.Dense
	hchol  *mat.Cholesky
	ct     *mat.Dense
}

// Compile enumerates the critical regions of p and returns the law plus a
// compile report. The enumeration fans each breadth-first frontier level
// out across a worker pool; the result is deterministic for any worker
// count.
func Compile(p *Problem, opts Options) (*Law, *Report, error) {
	nz, mc, nl, nTheta, err := p.validate()
	if err != nil {
		return nil, nil, err
	}
	opts = opts.withDefaults()
	gRows := p.GainRows
	if gRows == 0 {
		gRows = nz
	}
	// H = 2(CᵀC + εI), the same Hessian qp.NewLSI factors for the online
	// solve, so region gains agree with the iterative optimizer.
	ct := p.C.T()
	h := ct.Mul(p.C).Scale(2)
	scale := math.Max(1, h.MaxAbs())
	for i := 0; i < nz; i++ {
		h.Set(i, i, h.At(i, i)+hessianRidge*scale)
	}
	hchol, err := mat.FactorCholesky(h)
	if err != nil {
		return nil, nil, fmt.Errorf("empc: factor Hessian: %w", err)
	}
	c := &compiler{p: p, opts: opts, nz: nz, mc: mc, nl: nl, nTheta: nTheta, gRows: gRows, h: h, hchol: hchol, ct: ct}

	law := &Law{nTheta: nTheta, gainRows: gRows, interior: -1}
	visited := map[string]bool{activeKey(nil): true}
	frontier := [][]int{nil}
	explored := 0
	truncated := false
	enqueued := 1
	for len(frontier) > 0 {
		results := make([]*regionData, len(frontier))
		fanOut(opts.Workers, len(frontier), func(i int) {
			results[i] = c.explore(frontier[i])
		})
		var next [][]int
		for _, rd := range results {
			explored++
			if rd == nil {
				continue // degenerate active set or empty region
			}
			law.appendRegion(rd, nTheta, gRows)
			for _, nb := range rd.neighbors {
				k := activeKey(nb)
				if visited[k] {
					continue
				}
				if enqueued >= opts.MaxRegions {
					truncated = true
					continue
				}
				visited[k] = true
				enqueued++
				next = append(next, nb)
			}
		}
		frontier = next
	}
	law.digest = law.computeDigest()
	rep := &Report{
		Regions:   len(law.regions),
		Explored:  explored,
		Truncated: truncated,
		Digest:    law.Digest(),
		Workers:   opts.Workers,
	}
	if len(law.regions) == 0 {
		return nil, rep, errors.New("empc: no nonempty critical region inside the parameter domain")
	}
	return law, rep, nil
}

// appendRegion merges one explored region into the flat law arrays.
func (l *Law) appendRegion(rd *regionData, nTheta, gRows int) {
	stride := nTheta + 1
	r := region{
		hsOff:   len(l.hs),
		hsRows:  len(rd.hs) / stride,
		gainOff: len(l.gains),
		actOff:  len(l.active),
		actLen:  len(rd.active),
	}
	l.hs = append(l.hs, rd.hs...)
	l.gains = append(l.gains, rd.gains...)
	l.active = append(l.active, rd.active...)
	if len(rd.active) == 0 {
		l.interior = len(l.regions)
	}
	l.regions = append(l.regions, r)
}

// computeDigest hashes the law's structure and coefficients.
func (l *Law) computeDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wu(uint64(l.nTheta))
	wu(uint64(l.gainRows))
	wu(uint64(len(l.regions)))
	for _, r := range l.regions {
		wu(uint64(r.actLen))
		for _, a := range l.active[r.actOff : r.actOff+r.actLen] {
			wu(uint64(a))
		}
		wu(uint64(r.hsRows))
		stride := l.nTheta + 1
		for _, v := range l.hs[r.hsOff : r.hsOff+r.hsRows*stride] {
			wu(math.Float64bits(v))
		}
		for _, v := range l.gains[r.gainOff : r.gainOff+l.gainRows*stride] {
			wu(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// activeKey canonicalizes an active set for the visited map.
func activeKey(w []int) string {
	if len(w) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, v := range w {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(v))
	}
	return sb.String()
}

// fanOut runs fn(0..n-1) across a bounded worker pool, the same fan-out
// idiom as the experiments sweep pool. fn must be safe for concurrent
// invocation on distinct indices.
func fanOut(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// explore computes the affine law and halfspace description of the critical
// region with active set w, or nil when the active set is degenerate or its
// region has no interior inside the parameter domain.
func (c *compiler) explore(w []int) *regionData {
	k := len(w)
	nz, nTheta := c.nz, c.nTheta
	// hat_j = H⁻¹·a_wjᵀ and the Schur complement M = A_W·H⁻¹·A_Wᵀ.
	hat := make([][]float64, k)
	var mfac *mat.LU
	if k > 0 {
		m := mat.New(k, k)
		for j, wj := range w {
			hat[j] = make([]float64, nz)
			if err := c.hchol.SolveVecTo(hat[j], c.p.A.RowView(wj)); err != nil {
				return nil
			}
		}
		for i, wi := range w {
			ai := c.p.A.RowView(wi)
			for j := 0; j < k; j++ {
				m.Set(i, j, mat.Dot(ai, hat[j]))
			}
		}
		var err error
		mfac, err = mat.FactorLU(m)
		if err != nil {
			return nil // linearly dependent active set
		}
	}
	// Build the affine maps z(θ) = G·θ + g0 and λ(θ) = L·θ + l0 by
	// evaluating at θ = 0 and each basis vector.
	evalAt := func(basis int) (z, lambda []float64) {
		d := make([]float64, c.nl)
		copy(d, c.p.D0)
		b := make([]float64, c.mc)
		copy(b, c.p.S0)
		if basis >= 0 {
			for i := 0; i < c.nl; i++ {
				d[i] += c.p.D.At(i, basis)
			}
			for i := 0; i < c.mc; i++ {
				b[i] += c.p.S.At(i, basis)
			}
		}
		f := make([]float64, nz)
		c.ct.MulVecTo(f, d)
		for i := range f {
			f[i] *= -2
		}
		zu := make([]float64, nz)
		if err := c.hchol.SolveVecTo(zu, f); err != nil {
			return nil, nil
		}
		for i := range zu {
			zu[i] = -zu[i]
		}
		if k == 0 {
			return zu, nil
		}
		rhs := make([]float64, k)
		for i, wi := range w {
			rhs[i] = mat.Dot(c.p.A.RowView(wi), zu) - b[wi]
		}
		lambda, err := mfac.SolveVec(rhs)
		if err != nil {
			return nil, nil
		}
		z = zu
		for j := 0; j < k; j++ {
			for i := 0; i < nz; i++ {
				z[i] -= lambda[j] * hat[j][i]
			}
		}
		return z, lambda
	}
	g0, l0 := evalAt(-1)
	if g0 == nil {
		return nil
	}
	gCols := make([][]float64, nTheta)
	lCols := make([][]float64, nTheta)
	for t := 0; t < nTheta; t++ {
		zt, lt := evalAt(t)
		if zt == nil {
			return nil
		}
		gCols[t] = make([]float64, nz)
		for i := range zt {
			gCols[t][i] = zt[i] - g0[i]
		}
		if k > 0 {
			lCols[t] = make([]float64, k)
			for i := range lt {
				lCols[t][i] = lt[i] - l0[i]
			}
		}
	}
	rd := &regionData{active: append([]int(nil), w...)}
	stride := nTheta + 1
	inW := make([]bool, c.mc)
	for _, wi := range w {
		inW[wi] = true
	}
	// Primal-feasibility halfspaces of the inactive rows:
	// (A_i·G − S_i)·θ ≤ s0_i − A_i·g0.
	addRow := func(row []float64, rhs float64, neighbor []int) bool {
		nrm := mat.NormInf(row)
		if nrm <= c.opts.Tol {
			// Vacuous (0 ≤ rhs) or infeasible (0 ≤ rhs < 0) row.
			return rhs >= -c.opts.Tol
		}
		for t := range row {
			row[t] /= nrm
		}
		rd.hs = append(rd.hs, row...)
		rd.hs = append(rd.hs, rhs/nrm)
		if neighbor != nil {
			rd.neighbors = append(rd.neighbors, neighbor)
		}
		return true
	}
	for i := 0; i < c.mc; i++ {
		if inW[i] {
			continue
		}
		ai := c.p.A.RowView(i)
		row := make([]float64, nTheta)
		for t := 0; t < nTheta; t++ {
			var dot float64
			for j := 0; j < nz; j++ {
				dot += ai[j] * gCols[t][j]
			}
			row[t] = dot - c.p.S.At(i, t)
		}
		rhs := c.p.S0[i] - mat.Dot(ai, g0)
		var nb []int
		if k < nz {
			nb = neighborAdd(w, i)
		}
		if !addRow(row, rhs, nb) {
			return nil
		}
	}
	// Dual-feasibility halfspaces of the active rows: −λ_r(θ) ≤ l0_r.
	for r := 0; r < k; r++ {
		row := make([]float64, nTheta)
		for t := 0; t < nTheta; t++ {
			row[t] = -lCols[t][r]
		}
		if !addRow(row, l0[r], neighborDrop(w, r)) {
			return nil
		}
	}
	if !c.hasInterior(rd) {
		return nil
	}
	// Store the leading gain rows (first control move) with offsets.
	rd.gains = make([]float64, 0, c.gRows*stride)
	for i := 0; i < c.gRows; i++ {
		for t := 0; t < nTheta; t++ {
			rd.gains = append(rd.gains, gCols[t][i])
		}
		rd.gains = append(rd.gains, g0[i])
	}
	return rd
}

// neighborAdd returns w ∪ {i}, sorted.
func neighborAdd(w []int, i int) []int {
	nb := append(append([]int(nil), w...), i)
	sort.Ints(nb)
	return nb
}

// neighborDrop returns w with position r removed.
func neighborDrop(w []int, r int) []int {
	nb := make([]int, 0, len(w)-1)
	nb = append(nb, w[:r]...)
	nb = append(nb, w[r+1:]...)
	return nb
}

// hasInterior reports whether the region's halfspaces, shrunk by the
// interior slack, admit a point inside the parameter domain box.
//
// The test is an Agmon–Motzkin–Schoenberg relaxation: alternate between
// clamping the candidate into the domain box (an exact projection) and an
// over-relaxed projection onto the most-violated shrunk halfspace. It is
// deterministic (sequential arithmetic, no randomness, no shared state),
// so compiles are reproducible for every worker count. It is also only a
// pruning heuristic, not a correctness gate: keeping an empty region is
// harmless (its contradictory halfspaces never contain a query), and
// dropping a thin-but-real region just shrinks the precomputed map — the
// runtime point location reports a truthful miss there and the iterative
// solver produces the move. A full phase-1 QP per candidate region was
// measured ~50 ms on degenerate facet sets and dominated the compile;
// this test is a few microseconds.
func (c *compiler) hasInterior(rd *regionData) bool {
	nTheta := c.nTheta
	stride := nTheta + 1
	nhs := len(rd.hs) / stride
	lo, hi := c.p.ThetaLo, c.p.ThetaHi
	x := make([]float64, nTheta)
	for t := 0; t < nTheta; t++ {
		x[t] = 0.5 * (lo[t] + hi[t])
	}
	// Over-relaxation in (1, 2) accelerates convergence for feasible
	// systems; infeasible ones oscillate until the sweep cap rejects them.
	const relax = 1.5
	const maxSweeps = 1000
	for sweep := 0; sweep < maxSweeps; sweep++ {
		for t := 0; t < nTheta; t++ {
			x[t] = math.Max(lo[t], math.Min(hi[t], x[t]))
		}
		worst, wi := 0.0, -1
		for i := 0; i < nhs; i++ {
			row := rd.hs[i*stride : i*stride+nTheta]
			v := interiorSlack - rd.hs[i*stride+nTheta]
			for t, g := range row {
				v += g * x[t]
			}
			if v > worst {
				worst, wi = v, i
			}
		}
		if wi < 0 {
			return true // inside the box and strictly inside every halfspace
		}
		row := rd.hs[wi*stride : wi*stride+nTheta]
		var normSq float64
		for _, g := range row {
			normSq += g * g
		}
		// Rows are normalized to unit ∞-norm at addRow, so normSq ≥ 1.
		step := relax * worst / normSq
		for t, g := range row {
			x[t] -= step * g
		}
	}
	return false
}
