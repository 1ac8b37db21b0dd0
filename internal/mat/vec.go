package mat

import (
	"fmt"
	"math"
)

// Vector helpers. Vectors are plain []float64 throughout the project; these
// free functions keep call sites terse without introducing a wrapper type.

// VecAdd returns a + b element-wise.
func VecAdd(a, b []float64) []float64 {
	checkVecLen(a, b, "VecAdd")
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// VecSub returns a − b element-wise.
func VecSub(a, b []float64) []float64 {
	checkVecLen(a, b, "VecSub")
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// VecScale returns s·a.
func VecScale(s float64, a []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = s * a[i]
	}
	return out
}

// VecFinite reports whether every element of v is neither NaN nor
// infinite.
//
//eucon:noalloc
func VecFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Dot returns the inner product of a and b.
//
//eucon:noalloc
func Dot(a, b []float64) float64 {
	checkVecLen(a, b, "Dot")
	b = b[:len(a)] // lets the compiler drop the b[i] bounds check
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of a.
func Norm2(a []float64) float64 {
	return math.Sqrt(Dot(a, a))
}

// NormInf returns the max-abs norm of a.
//
//eucon:noalloc
func NormInf(a []float64) float64 {
	var max float64
	for _, v := range a {
		if x := math.Abs(v); x > max {
			max = x
		}
	}
	return max
}

// VecClone returns a copy of a.
func VecClone(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// Constant returns an n-vector with every element set to v.
func Constant(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// VecEqual reports whether a and b have equal length and all elements within
// tol.
func VecEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

//eucon:noalloc
func checkVecLen(a, b []float64, op string) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: %s length mismatch: %d vs %d", op, len(a), len(b))) //eucon:alloc-ok panic path only; the hot path never formats
	}
}
