package sim

import (
	"math"
	"testing"

	"github.com/rtsyslab/eucon/internal/fault"
)

// applyOK runs one Apply and checks its substitution count, its skip
// verdict, and that no NaN survives a period that is not skipped.
func applyOK(t *testing.T, h *HoldLast, u []float64, wantHeld int, wantSkip bool) []float64 {
	t.Helper()
	v, held, skip := h.Apply(u)
	if held != wantHeld || skip != wantSkip {
		t.Fatalf("Apply(%v) = held %d, skip %v; want %d, %v", u, held, skip, wantHeld, wantSkip)
	}
	for p, x := range v {
		if !skip && math.IsNaN(x) {
			t.Fatalf("Apply(%v): NaN left for processor %d: %v", u, p, v)
		}
	}
	return v
}

// TestHoldLastHoldsLast: a NaN within the staleness bound is replaced by
// the processor's last measurement, bit for bit, and the period goes on;
// ages 1 to StalenessBound are all held, none skipped.
func TestHoldLastHoldsLast(t *testing.T) {
	var h HoldLast
	h.Reset(2, []float64{0.8, 0.7})
	if v := applyOK(t, &h, []float64{0.5, 0.6}, 0, false); v[0] != 0.5 || v[1] != 0.6 {
		t.Fatalf("clean vector came back as %v", v)
	}
	lossy := []float64{math.NaN(), 0.6}
	for age := 1; age <= StalenessBound; age++ {
		if v := applyOK(t, &h, lossy, 1, false); v[0] != 0.5 || v[1] != 0.6 {
			t.Fatalf("sample age %d: got %v, want the last measurement [0.5 0.6]", age, v)
		}
	}
}

// TestHoldLastSkipsPastBound: once a missing sample's last measurement is
// older than the bound, every period is skipped until fresh feedback
// returns; fresh feedback ends the degradation at once, and Reset forgets
// every sample.
func TestHoldLastSkipsPastBound(t *testing.T) {
	var h HoldLast
	h.Reset(2, []float64{0.8, 0.7})
	applyOK(t, &h, []float64{0.5, 0.6}, 0, false)
	lossy := []float64{math.NaN(), 0.6}
	for age := 1; age <= StalenessBound; age++ {
		applyOK(t, &h, lossy, 1, false)
	}
	for age := StalenessBound + 1; age <= 7; age++ {
		applyOK(t, &h, lossy, 0, true)
	}
	applyOK(t, &h, []float64{0.5, 0.6}, 0, false)
	applyOK(t, &h, lossy, 1, false) // age 1 again

	h.Reset(2, []float64{0.8, 0.7})
	if v := applyOK(t, &h, lossy, 1, false); v[0] != 0.8 {
		t.Errorf("after Reset a missing sample became %g, want the set point 0.8", v[0])
	}
}

// TestHoldLastNeverMeasured: a processor dropped from the first period on
// is held at its set point (zero tracking error), never skipped however
// long the loss lasts, and at 0 for a controller without set points.
func TestHoldLastNeverMeasured(t *testing.T) {
	var h HoldLast
	h.Reset(2, []float64{0.8, 0.7})
	both := []float64{math.NaN(), math.NaN()}
	for k := 0; k < 3*StalenessBound; k++ {
		if v := applyOK(t, &h, both, 2, false); v[0] != 0.8 || v[1] != 0.7 {
			t.Fatalf("period %d: got %v, want the set points [0.8 0.7]", k, v)
		}
	}
	h.Reset(2, nil)
	if v := applyOK(t, &h, both, 2, false); v[0] != 0 || v[1] != 0 {
		t.Errorf("no set points: got %v, want [0 0]", v)
	}
}

// stepCounter raises task 0's rate 1% per Step and records which periods
// it was stepped in, processor 0's sample in each, and whether any input
// was NaN.
type stepCounter struct {
	stepped []int
	u0      []float64
	sawNaN  bool
	buf     []float64
}

func (*stepCounter) Name() string         { return "COUNT" }
func (*stepCounter) Reset()               {}
func (*stepCounter) SetPoints() []float64 { return []float64{0.5} }

func (c *stepCounter) Step(k int, u, rates []float64) ([]float64, error) {
	c.stepped = append(c.stepped, k)
	c.u0 = append(c.u0, u[0])
	for _, x := range u {
		c.sawNaN = c.sawNaN || math.IsNaN(x)
	}
	c.buf = append(c.buf[:0], rates...)
	c.buf[0] *= 1.01
	return c.buf, nil
}

// TestSimulatorSkipsPastBound drops processor 0's feedback for periods 5
// through 11: the simulator feeds the held sample for ages 1 to 4, then
// skips periods 9 to 11 — no Step, rates unchanged — and records both in
// PeriodStats.
func TestSimulatorSkipsPastBound(t *testing.T) {
	ctrl := &stepCounter{}
	tr := mustRun(t, Config{
		System:         oneTaskSystem(10, 0.01),
		SamplingPeriod: 1000,
		Periods:        16,
		Controller:     ctrl,
		Faults:         []fault.Spec{{Kind: fault.FeedbackDrop, Proc: 0, Task: fault.All, Sub: fault.All, Start: 5, Stop: 12, Magnitude: 1}},
	})
	if ctrl.sawNaN {
		t.Error("a NaN reached the controller")
	}
	skipped := map[int]bool{9: true, 10: true, 11: true}
	for k, ps := range tr.Periods {
		wantHeld := 0
		if k >= 5 && k <= 8 {
			wantHeld = 1
		}
		wantSkip := 0
		if skipped[k] {
			wantSkip = 1
		}
		if ps.HeldSamples != wantHeld || ps.ControlSkipped != wantSkip {
			t.Errorf("period %d: HeldSamples %d, ControlSkipped %d; want %d, %d", k, ps.HeldSamples, ps.ControlSkipped, wantHeld, wantSkip)
		}
		if skipped[k] && k+1 < len(tr.Rates) && tr.Rates[k+1][0] != tr.Rates[k][0] {
			t.Errorf("period %d was skipped but the rate moved %g -> %g", k, tr.Rates[k][0], tr.Rates[k+1][0])
		}
	}
	for _, k := range ctrl.stepped {
		if skipped[k] {
			t.Errorf("controller stepped in skipped period %d", k)
		}
	}
	if got, want := len(ctrl.stepped), len(tr.Periods)-len(skipped); got != want {
		t.Errorf("controller stepped %d times, want %d", got, want)
	}
}

// TestSimulatorHoldsNeverMeasuredAtSetPoint drops processor 0's feedback
// from the first period on: the simulator hands the controller its own
// set point (SetPoints, fetched at Reset for faulted runs) for every lost
// sample, steps every period, and the first real sample replaces it.
func TestSimulatorHoldsNeverMeasuredAtSetPoint(t *testing.T) {
	ctrl := &stepCounter{}
	tr := mustRun(t, Config{
		System:         oneTaskSystem(10, 0.01),
		SamplingPeriod: 1000,
		Periods:        4 + 2*StalenessBound,
		Controller:     ctrl,
		Faults:         []fault.Spec{{Kind: fault.FeedbackDrop, Proc: 0, Task: fault.All, Sub: fault.All, Start: 0, Stop: 2 * StalenessBound, Magnitude: 1}},
	})
	if len(ctrl.stepped) != len(tr.Periods) {
		t.Fatalf("controller stepped %d of %d periods; a never-measured processor must not skip", len(ctrl.stepped), len(tr.Periods))
	}
	sp := ctrl.SetPoints()[0]
	for k, ps := range tr.Periods {
		want, wantHeld := tr.Utilization[k][0], 0
		if k < 2*StalenessBound {
			want, wantHeld = sp, 1
		}
		if got := ctrl.u0[k]; got != want {
			t.Errorf("period %d: controller saw %g, want %g", k, got, want)
		}
		if ps.HeldSamples != wantHeld || ps.ControlSkipped != 0 {
			t.Errorf("period %d: HeldSamples %d, ControlSkipped %d; want %d, 0", k, ps.HeldSamples, ps.ControlSkipped, wantHeld)
		}
	}
}
