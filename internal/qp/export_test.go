package qp

import (
	"math"

	"github.com/rtsyslab/eucon/internal/mat"
)

// SolveStats is what the most recent iterative solve did to its working
// set and how many of its iterations reused H⁻¹·g or the LU of S (see
// solveStats).
type SolveStats struct {
	WarmOffered, WarmAdmitted, Seeded, Adds, Drops int
	HgKept, LUKept                                 int
}

// LastSolveStats reports the counters of the receiver's most recent Solve
// (zero after a solve that never reached the active-set loop).
func (s *LSI) LastSolveStats() SolveStats {
	st := s.ws.stats
	return SolveStats{st.warmOffered, st.warmAdmitted, st.seeded, st.adds, st.drops, st.hgKept, st.luKept}
}

// ReferenceSolve runs the test oracle referenceSolve on the problem the
// receiver's next Solve(d, a, b, x0) poses, warm-start set included, and
// returns its Result, multipliers by row and error.
func (s *LSI) ReferenceSolve(d []float64, a *mat.Dense, b, x0 []float64) (*Result, []float64, error) {
	return referenceSolve(s.c, d, a, b, x0, s.warm, s.opts)
}

// SameSolve reports how a solve differs from the reference's, to the bit
// ("" when it does not; see sameSolve).
var SameSolve = sameSolve

// DropCaches forgets every remembered H⁻¹·aᵢ and Gram entry, so the next
// solve derives each one again the way a fresh LSI would.
func (s *LSI) DropCaches() { s.ws.cache = kktCache{} }

// CachedRows reports how many rows of the bound constraint storage have a
// remembered H⁻¹·aᵢ, and the table's row capacity (0, 0 before the first
// iterative solve that needed one).
func (s *LSI) CachedRows() (set, rows int) {
	c := &s.ws.cache
	if c.hinv == nil {
		return 0, 0
	}
	for i := 0; i < c.m; i++ {
		if !math.IsNaN(c.hinv[i*c.n]) {
			set++
		}
	}
	return set, c.m
}

// QP returns the receiver's quadratic form: H = 2·(CᵀC + εI) and f = −2·Cᵀd
// for the d of the most recent Solve or SolveInteriorTo.
func (s *LSI) QP() (h *mat.Dense, f []float64) { return s.h, s.f }
