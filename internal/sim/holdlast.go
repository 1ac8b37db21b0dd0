package sim

import "math"

// StalenessBound is how many sampling periods old a held sample may be:
// HoldLast substitutes a missing sample with the processor's last
// measurement while that measurement is at most this old.
const StalenessBound = 4

// HoldLast is the feedback loop's one missing-feedback policy. Both places
// that feed a controller — the simulator, on the vector its feedback path
// delivers, and agent.Server, on the vector its members reported — apply
// it before Step, so no controller ever sees a NaN.
//
// A NaN sample (a lost report) is replaced by the processor's last
// measurement while that is at most StalenessBound periods old, or by its
// set point if it was never measured: a sample on the set point carries
// zero tracking error and so steers nothing. Once any replacement would be
// older than the bound, the period is skipped: the caller holds the
// applied rates without calling Step rather than steer the whole system on
// fiction. The zero value must be Reset before use; Apply does not
// allocate.
type HoldLast struct {
	v   []float64 // per processor: newest measurement, or set point until the first one
	age []int     // per processor: periods since v was measured; -1 while never measured
}

// Reset sizes the policy for n processors and forgets every sample. A
// processor never measured is held at its entry of setPoints, or at 0 when
// the controller has no set points (nil): such a controller does not steer
// on tracking error. Buffers are reused.
func (h *HoldLast) Reset(n int, setPoints []float64) {
	h.v = growSlice(h.v, n)
	h.age = growSlice(h.age, n)
	for p := range h.v {
		h.v[p] = 0
		if p < len(setPoints) {
			h.v[p] = setPoints[p]
		}
		h.age[p] = -1
	}
}

// Apply takes one period's utilization vector, with NaN for each missing
// sample, and returns the vector to control on, how many samples it
// substituted, and whether the period must be skipped. The returned slice
// aliases policy memory the next Apply overwrites; on a skip it still
// carries each processor's newest sample, for the record. A vector without
// NaN entries comes back with the same values.
//
//eucon:noalloc
func (h *HoldLast) Apply(u []float64) (v []float64, held int, skip bool) {
	for p, x := range u {
		switch {
		case !math.IsNaN(x):
			h.v[p] = x
			h.age[p] = 0
		case h.age[p] < 0:
			held++
		case h.age[p] < StalenessBound:
			h.age[p]++
			held++
		default:
			h.age[p]++
			skip = true
		}
	}
	return h.v, held, skip
}
