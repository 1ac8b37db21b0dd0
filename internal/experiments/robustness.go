package experiments

import (
	"math"

	"github.com/rtsyslab/eucon/internal/metrics"
	"github.com/rtsyslab/eucon/internal/sim"
)

// InSpecTol is the robustness tolerance band: a processor is "in spec" at
// period k when its utilization is within ±InSpecTol of its set point. It
// matches the settling tolerance of the paper's Experiment II analysis.
const InSpecTol = 0.05

// settleSmooth is the moving-average window applied before measuring
// settling time, matching the Figure 7 analysis: raw per-period utilization
// carries sampling noise that would otherwise reset the settling clock.
const settleSmooth = 5

// Robustness summarizes how well a run tolerated its fault scenario (or,
// with no faults, its transient): how long convergence took, how far
// utilization overshot, and how much of the steady-state window each
// processor actually spent in spec.
type Robustness struct {
	// SettlingTime is the first period index after which the smoothed
	// utilization of every processor stays within InSpecTol of its set
	// point for the rest of the run, or -1 when some processor never
	// settles. Measured over the whole run, so fault-induced excursions
	// (and the recovery from them) push it out.
	SettlingTime int
	// MaxOvershoot is the largest excursion above any processor's set
	// point inside the measurement window (0 when utilization never
	// exceeds a set point there).
	MaxOvershoot float64
	// TimeInSpec is, per processor, the fraction of measurement-window
	// periods whose utilization is within InSpecTol of the set point.
	TimeInSpec []float64
}

// TraceRobustness measures tr against the per-processor set points:
// settling time over the whole run, overshoot and time-in-spec over the
// window [from, to) (clamped to the trace length, as in metrics.Window).
func TraceRobustness(tr *sim.Trace, setPoints []float64, from, to int) Robustness {
	if to > len(tr.Utilization) {
		to = len(tr.Utilization)
	}
	if from < 0 {
		from = 0
	}
	if from > to {
		from = to
	}
	r := Robustness{TimeInSpec: make([]float64, len(setPoints))}
	for p, b := range setPoints {
		col := metrics.Column(tr.Utilization, p)
		st := metrics.SettlingTime(metrics.MovingAverage(col, settleSmooth), b, InSpecTol)
		if st < 0 || r.SettlingTime < 0 {
			r.SettlingTime = -1
		} else if st > r.SettlingTime {
			r.SettlingTime = st
		}
		in := 0
		for k := from; k < to; k++ {
			v := col[k]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				// Degraded feedback (lost feedback, fault injection) can
				// leave non-finite samples in a trace. They are maximally
				// out of spec: never in the in-spec count, and a
				// full-scale excursion for the overshoot — an ordinary max
				// comparison silently drops NaN (every comparison is
				// false), which made a broken run look calm.
				if ov := 1 - b; ov > r.MaxOvershoot {
					r.MaxOvershoot = ov
				}
				continue
			}
			d := v - b
			if d > r.MaxOvershoot {
				r.MaxOvershoot = d
			}
			if d <= InSpecTol && d >= -InSpecTol {
				in++
			}
		}
		if to > from {
			r.TimeInSpec[p] = float64(in) / float64(to-from)
		}
	}
	return r
}

// worseRobustness pools two replications into their worst case: the later
// settling time (never settling dominates), the larger overshoot, and the
// smaller per-processor in-spec fraction. a's TimeInSpec is mutated and
// returned, so callers pass a private copy. NaN fields — possible only for
// Robustness values built outside TraceRobustness, which sanitizes its
// inputs — count as worst case (full-scale overshoot, zero time in spec)
// instead of being dropped by NaN-absorbing comparisons.
func worseRobustness(a, b Robustness) Robustness {
	if a.SettlingTime < 0 || b.SettlingTime < 0 {
		a.SettlingTime = -1
	} else if b.SettlingTime > a.SettlingTime {
		a.SettlingTime = b.SettlingTime
	}
	if math.IsNaN(a.MaxOvershoot) {
		a.MaxOvershoot = 1
	}
	ov := b.MaxOvershoot
	if math.IsNaN(ov) {
		ov = 1
	}
	if ov > a.MaxOvershoot {
		a.MaxOvershoot = ov
	}
	for p := range a.TimeInSpec {
		if math.IsNaN(a.TimeInSpec[p]) {
			a.TimeInSpec[p] = 0
		}
		if p < len(b.TimeInSpec) {
			if bv := b.TimeInSpec[p]; math.IsNaN(bv) {
				a.TimeInSpec[p] = 0
			} else if bv < a.TimeInSpec[p] {
				a.TimeInSpec[p] = bv
			}
		}
	}
	return a
}
