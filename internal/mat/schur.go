package mat

import (
	"fmt"
	"math"
)

// EigenvaluesQR computes the eigenvalues of a real square matrix with the
// implicitly-shifted Hessenberg QR iteration (Wilkinson shifts, real
// arithmetic, 2×2 trailing-block deflation). It is the eigensolver behind
// SpectralRadius at every size; a characteristic-polynomial route survives
// only as its differential oracle in the tests.
func EigenvaluesQR(a *Dense) ([]complex128, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("mat: EigenvaluesQR requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	if n == 0 {
		return nil, nil
	}
	h := hessenberg(a)
	eigs := make([]complex128, 0, n)

	// Work on the active trailing block h[0:hi+1, 0:hi+1].
	hi := n - 1
	const maxIter = 100
	for hi >= 0 {
		iter := 0
		for {
			// Find the largest l ≤ hi such that the subdiagonal entry
			// h[l][l-1] is negligible, splitting the active block.
			l := hi
			for l > 0 {
				s := math.Abs(h.At(l-1, l-1)) + math.Abs(h.At(l, l))
				if IsZero(s) {
					s = 1
				}
				if math.Abs(h.At(l, l-1)) <= 1e-14*s {
					h.Set(l, l-1, 0)
					break
				}
				l--
			}
			if l == hi {
				// 1×1 block deflates.
				eigs = append(eigs, complex(h.At(hi, hi), 0))
				hi--
				break
			}
			if l == hi-1 {
				// 2×2 block deflates: solve its quadratic exactly.
				e1, e2 := eig2x2(h.At(hi-1, hi-1), h.At(hi-1, hi), h.At(hi, hi-1), h.At(hi, hi))
				eigs = append(eigs, e1, e2)
				hi -= 2
				break
			}
			if iter++; iter > maxIter {
				return nil, fmt.Errorf("mat: QR iteration failed to converge on a %dx%d block", hi-l+1, hi-l+1)
			}
			// Francis implicit double-shift step, with exceptional shifts
			// every 10 iterations to break symmetric cycling.
			s := h.At(hi-1, hi-1) + h.At(hi, hi)
			t := h.At(hi-1, hi-1)*h.At(hi, hi) - h.At(hi-1, hi)*h.At(hi, hi-1)
			if iter%10 == 0 {
				x := math.Abs(h.At(hi, hi-1)) + math.Abs(h.At(hi-1, hi-2))
				s = 2 * x * 0.75
				t = -0.4375 * x * x
			}
			francisStep(h, l, hi, s, t)
		}
	}
	return eigs, nil
}

// hessenberg reduces a to upper Hessenberg form by Householder similarity
// transforms, returning a fresh matrix.
func hessenberg(a *Dense) *Dense {
	h := a.Clone()
	n := h.rows
	for k := 0; k < n-2; k++ {
		// Householder vector annihilating h[k+2:, k].
		var norm float64
		for i := k + 1; i < n; i++ {
			norm = math.Hypot(norm, h.At(i, k))
		}
		if IsZero(norm) {
			continue
		}
		if h.At(k+1, k) < 0 {
			norm = -norm
		}
		v := make([]float64, n)
		v[k+1] = h.At(k+1, k) + norm
		for i := k + 2; i < n; i++ {
			v[i] = h.At(i, k)
		}
		beta := 0.0
		for i := k + 1; i < n; i++ {
			beta += v[i] * v[i]
		}
		if IsZero(beta) {
			continue
		}
		// H = I − 2vvᵀ/β applied on both sides: h ← H·h·H.
		for j := 0; j < n; j++ { // h ← H·h
			var s float64
			for i := k + 1; i < n; i++ {
				s += v[i] * h.At(i, j)
			}
			s = 2 * s / beta
			for i := k + 1; i < n; i++ {
				h.Set(i, j, h.At(i, j)-s*v[i])
			}
		}
		for i := 0; i < n; i++ { // h ← h·H
			var s float64
			for j := k + 1; j < n; j++ {
				s += h.At(i, j) * v[j]
			}
			s = 2 * s / beta
			for j := k + 1; j < n; j++ {
				h.Set(i, j, h.At(i, j)-s*v[j])
			}
		}
	}
	// Zero the area below the first subdiagonal exactly.
	for i := 2; i < n; i++ {
		for j := 0; j < i-1; j++ {
			h.Set(i, j, 0)
		}
	}
	return h
}

// eig2x2 returns the two eigenvalues of [[a, b], [c, d]].
func eig2x2(a, b, c, d float64) (complex128, complex128) {
	tr := a + d
	det := a*d - b*c
	disc := tr*tr/4 - det
	if disc >= 0 {
		r := math.Sqrt(disc)
		return complex(tr/2+r, 0), complex(tr/2-r, 0)
	}
	im := math.Sqrt(-disc)
	return complex(tr/2, im), complex(tr/2, -im)
}

// francisStep performs one implicit double-shift QR sweep (bulge chasing)
// on the active Hessenberg block h[l:hi+1, l:hi+1], where s and t are the
// sum and product of the two shifts. Reflectors are applied across the
// full matrix so the transform is an exact similarity; entries known to be
// zero simply stay zero.
func francisStep(h *Dense, l, hi int, s, t float64) {
	n := h.rows
	// First column of (H² − sH + tI) restricted to the block.
	x := h.At(l, l)*h.At(l, l) + h.At(l, l+1)*h.At(l+1, l) - s*h.At(l, l) + t
	y := h.At(l+1, l) * (h.At(l, l) + h.At(l+1, l+1) - s)
	z := h.At(l+2, l+1) * h.At(l+1, l)
	for k := l; k <= hi-2; k++ {
		applyReflector3(h, k, min(k+2, hi), x, y, z, n)
		if k < hi-2 {
			x = h.At(k+1, k)
			y = h.At(k+2, k)
			z = 0
			if k+3 <= hi {
				z = h.At(k+3, k)
			}
		}
	}
	// Final 2-element reflector on rows (hi-1, hi).
	x = h.At(hi-1, hi-2)
	y = h.At(hi, hi-2)
	applyReflector2(h, hi-1, x, y, n)
	// Clean sub-Hessenberg round-off in the active block.
	for i := l + 2; i <= hi; i++ {
		for j := l; j < i-1; j++ {
			h.Set(i, j, 0)
		}
	}
}

// applyReflector3 applies the Householder reflector that maps (x, y, z) to
// (±‖·‖, 0, 0) as a similarity transform on rows/columns r0..r0+2 (the
// third row capped at rcap for the block tail).
func applyReflector3(h *Dense, r0, rcap int, x, y, z float64, n int) {
	rows := []int{r0, r0 + 1}
	v := []float64{x, y}
	if r0+2 <= rcap {
		rows = append(rows, r0+2)
		v = append(v, z)
	}
	norm := 0.0
	for _, vi := range v {
		norm = math.Hypot(norm, vi)
	}
	if IsZero(norm) {
		return
	}
	if v[0] < 0 {
		norm = -norm
	}
	v[0] += norm
	var beta float64
	for _, vi := range v {
		beta += vi * vi
	}
	if IsZero(beta) {
		return
	}
	// Left: rows ← (I − 2vvᵀ/β)·rows.
	for j := 0; j < n; j++ {
		var dot float64
		for i, r := range rows {
			dot += v[i] * h.At(r, j)
		}
		dot = 2 * dot / beta
		for i, r := range rows {
			h.Set(r, j, h.At(r, j)-dot*v[i])
		}
	}
	// Right: columns ← columns·(I − 2vvᵀ/β).
	for i := 0; i < n; i++ {
		var dot float64
		for k, r := range rows {
			dot += h.At(i, r) * v[k]
		}
		dot = 2 * dot / beta
		for k, r := range rows {
			h.Set(i, r, h.At(i, r)-dot*v[k])
		}
	}
}

// applyReflector2 is the two-row specialization of applyReflector3.
func applyReflector2(h *Dense, r0 int, x, y float64, n int) {
	norm := math.Hypot(x, y)
	if IsZero(norm) {
		return
	}
	if x < 0 {
		norm = -norm
	}
	v0, v1 := x+norm, y
	beta := v0*v0 + v1*v1
	if IsZero(beta) {
		return
	}
	for j := 0; j < n; j++ {
		dot := 2 * (v0*h.At(r0, j) + v1*h.At(r0+1, j)) / beta
		h.Set(r0, j, h.At(r0, j)-dot*v0)
		h.Set(r0+1, j, h.At(r0+1, j)-dot*v1)
	}
	for i := 0; i < n; i++ {
		dot := 2 * (h.At(i, r0)*v0 + h.At(i, r0+1)*v1) / beta
		h.Set(i, r0, h.At(i, r0)-dot*v0)
		h.Set(i, r0+1, h.At(i, r0+1)-dot*v1)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
