package sim

import (
	"math"
	"testing"

	"github.com/rtsyslab/eucon/internal/task"
)

// threeTaskSystem is one processor with three tasks of distinct rate
// boxes, so one guardRates call can exercise every repair case at once.
func threeTaskSystem() *task.System {
	mk := func(name string, lo, hi, r0 float64) task.Task {
		return task.Task{
			Name:        name,
			Subtasks:    []task.Subtask{{Processor: 0, EstimatedCost: 5}},
			RateMin:     lo,
			RateMax:     hi,
			InitialRate: r0,
		}
	}
	return &task.System{
		Name:       "three",
		Processors: 1,
		Tasks: []task.Task{
			mk("T1", 0.001, 0.01, 0.005),
			mk("T2", 0.002, 0.02, 0.01),
			mk("T3", 0.003, 0.03, 0.015),
		},
	}
}

// TestGuardRatesWhiteBox drives the rate guard directly: a clean command
// passes through untouched (same backing array — the zero-allocation
// steady state), and a poisoned command is repaired per element: NaN/Inf
// hold the last applied rate, finite excursions clamp to the box, and both
// counters record every bad element.
func TestGuardRatesWhiteBox(t *testing.T) {
	s, err := New(Config{System: threeTaskSystem(), SamplingPeriod: 1000, Periods: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.trace.Periods = append(s.trace.Periods, PeriodStats{})

	clean := []float64{0.005, 0.01, 0.015}
	if got := s.guardRates(0, clean); &got[0] != &clean[0] {
		t.Fatal("clean command was copied; the hot path must return the caller's slice")
	}
	if s.trace.Stats.GuardRateFirings != 0 {
		t.Fatalf("clean command counted %d firings", s.trace.Stats.GuardRateFirings)
	}

	bad := []float64{math.NaN(), 1e-9, 99}
	out := s.guardRates(0, bad)
	if out[0] != s.rates[0] {
		t.Errorf("NaN command repaired to %g, want held rate %g", out[0], s.rates[0])
	}
	if out[1] != 0.002 {
		t.Errorf("below-min command repaired to %g, want RateMin 0.002", out[1])
	}
	if out[2] != 0.03 {
		t.Errorf("above-max command repaired to %g, want RateMax 0.03", out[2])
	}
	if s.trace.Periods[0].GuardRateFirings != 3 || s.trace.Stats.GuardRateFirings != 3 {
		t.Errorf("firings = (period %d, total %d), want 3 bad elements counted in both",
			s.trace.Periods[0].GuardRateFirings, s.trace.Stats.GuardRateFirings)
	}
	if &out[0] == &bad[0] {
		t.Error("repaired command aliases the caller's slice; must use the guard buffer")
	}

	// Inf is held like NaN.
	if out := s.guardRates(0, []float64{math.Inf(1), 0.01, 0.015}); out[0] != s.rates[0] {
		t.Errorf("Inf command repaired to %g, want held rate %g", out[0], s.rates[0])
	}
}

// nanController emits a NaN rate for task 0 from period `from` onward —
// the planted controller bug of the chaos harness, at the sim layer.
type nanController struct{ from int }

func (nanController) Name() string { return "NANBUG" }

func (nanController) Reset() {}

func (nanController) SetPoints() []float64 { return nil }

func (c nanController) Step(k int, u, rates []float64) ([]float64, error) {
	out := append([]float64(nil), rates...)
	if k >= c.from {
		out[0] = math.NaN()
	}
	return out, nil
}

// TestGuardContainsNaNController pins end-to-end containment: a controller
// emitting NaN never reaches the plant — the run completes, every recorded
// rate stays finite at the held value, and the firings are counted.
func TestGuardContainsNaNController(t *testing.T) {
	sys := oneTaskSystem(10, 0.01)
	tr := mustRun(t, Config{
		System:         sys,
		SamplingPeriod: 1000,
		Periods:        20,
		Controller:     nanController{from: 3},
	})
	if len(tr.Utilization) != 20 {
		t.Fatalf("run truncated to %d periods with guards enabled", len(tr.Utilization))
	}
	if tr.Stats.GuardRateFirings == 0 {
		t.Fatal("no rate-guard firings recorded for a NaN-emitting controller")
	}
	for k, row := range tr.Rates {
		if row[0] != 0.01 {
			t.Fatalf("period %d: rate %g, want the held initial 0.01", k, row[0])
		}
	}
	if tr.Periods[3].GuardRateFirings != 1 {
		t.Errorf("period 3 firings = %d, want 1", tr.Periods[3].GuardRateFirings)
	}
}

// TestDisableGuardsLetsNaNPoisonTheRun pins the test-only escape hatch the
// chaos shrinker depends on: with guards off, the NaN reaches the rate
// modulator, poisons the event clock, and the run-loop safety net
// truncates the run instead of spinning forever. The truncation — not a
// hang, not a panic — is the observable violation.
func TestDisableGuardsLetsNaNPoisonTheRun(t *testing.T) {
	s, err := New(Config{
		System:         oneTaskSystem(10, 0.01),
		SamplingPeriod: 1000,
		Periods:        20,
		Controller:     nanController{from: 3},
		DisableGuards:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats.GuardRateFirings != 0 {
		t.Fatalf("guards fired %d times while disabled", tr.Stats.GuardRateFirings)
	}
	if len(tr.Utilization) >= 20 {
		t.Fatalf("run recorded %d periods; expected NaN poisoning to truncate it", len(tr.Utilization))
	}
}

// zeroRateController commands rate 0 for task 0 from period `from` onward
// and records, at every later boundary, whether the task's queued first
// release sits at +Inf.
type zeroRateController struct {
	s      *Simulator
	from   int
	atInf  int
	queued int
}

func (*zeroRateController) Name() string { return "ZERORATE" }

func (*zeroRateController) Reset() {}

func (*zeroRateController) SetPoints() []float64 { return nil }

func (c *zeroRateController) Step(k int, u, rates []float64) ([]float64, error) {
	if e := c.s.firstRel[0]; e != nil && c.s.events.queued(e) {
		c.queued++
		if math.IsInf(e.at, 1) {
			c.atInf++
		}
	}
	out := append([]float64(nil), rates...)
	if k >= c.from {
		out[0] = 0
	}
	return out, nil
}

// TestDisableGuardsLetsInfPeriodFinishTheRun is the +Inf twin of
// TestDisableGuardsLetsNaNPoisonTheRun: with guards off, a commanded rate 0
// is clamped to a subnormal RateMin whose period 1/r overflows to +Inf, so
// the task's next release is queued at +Inf. Unlike NaN, +Inf is ordered:
// it waits behind every sampling boundary, and the run records all its
// periods.
func TestDisableGuardsLetsInfPeriodFinishTheRun(t *testing.T) {
	sys := oneTaskSystem(10, 0.01)
	sys.Tasks[0].RateMin = 1e-310
	if p := 1 / sys.Tasks[0].RateMin; !math.IsInf(p, 1) {
		t.Fatalf("period at RateMin = %v, want +Inf", p)
	}
	ctrl := &zeroRateController{from: 3}
	s, err := New(Config{
		System:         sys,
		SamplingPeriod: 1000,
		Periods:        20,
		Controller:     ctrl,
		DisableGuards:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.s = s
	tr, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats.GuardRateFirings != 0 {
		t.Fatalf("guards fired %d times while disabled", tr.Stats.GuardRateFirings)
	}
	if len(tr.Utilization) != 20 {
		t.Fatalf("run recorded %d of 20 periods", len(tr.Utilization))
	}
	if ctrl.atInf == 0 || ctrl.atInf != ctrl.queued-4 {
		t.Errorf("first release queued at +Inf at %d of %d boundaries, want every one after the rate-0 command", ctrl.atInf, ctrl.queued)
	}
}

// TestEventQueueFilesNonFiniteTimes pins the calendar day of non-finite
// and out-of-range times: Go leaves converting them to an integer
// implementation-defined, so the queue must never do it.
func TestEventQueueFilesNonFiniteTimes(t *testing.T) {
	q := eventQueue{invWidth: 1}
	for _, tc := range []struct {
		at   float64
		want int64
	}{
		{math.NaN(), math.MinInt64},
		{math.Inf(-1), math.MinInt64},
		{-1e300, math.MinInt64},
		{-0x1p63, math.MinInt64},
		{-2.5, -3},
		{0, 0},
		{2.5, 2},
		{0x1p62, 1 << 62},
		{0x1p63, math.MaxInt64},
		{1e300, math.MaxInt64},
		{math.Inf(1), math.MaxInt64},
	} {
		if got := q.dayOf(tc.at); got != tc.want {
			t.Errorf("dayOf(%v) = %d, want %d", tc.at, got, tc.want)
		}
	}
}

// hookController runs a sabotage callback against the simulator each
// period before returning the rates unchanged — white-box fault planting
// for the audit and utilization guards.
type hookController struct {
	s    *Simulator
	hook func(k int, s *Simulator)
}

func (*hookController) Name() string { return "HOOK" }

func (*hookController) Reset() {}

func (*hookController) SetPoints() []float64 { return nil }

func (h *hookController) Step(k int, u, rates []float64) ([]float64, error) {
	h.hook(k, h.s)
	return rates, nil
}

// TestAuditPoolsDetectsLeak plants a phantom allocation mid-run and
// expects the conservation audit to flag every subsequent boundary.
func TestAuditPoolsDetectsLeak(t *testing.T) {
	hc := &hookController{hook: func(k int, s *Simulator) {
		if k == 5 {
			s.jobsMade++ // a job the free lists will never see again
		}
	}}
	s, err := New(Config{System: oneTaskSystem(10, 0.01), SamplingPeriod: 1000, Periods: 12, Controller: hc})
	if err != nil {
		t.Fatal(err)
	}
	hc.s = s
	tr, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats.GuardPoolFirings == 0 {
		t.Fatal("pool audit never fired after a planted leak")
	}
	if tr.Periods[5].GuardPoolImbalance != 0 {
		t.Error("audit fired before the leak existed")
	}
	if got := tr.Periods[6].GuardPoolImbalance; got != 1 {
		t.Errorf("period 6 imbalance = %d, want 1 leaked object", got)
	}
}

// TestAuditPoolsDetectsStaleBackPointers plants a first-release and a
// completion back-pointer naming events that are not queued and expects
// the audit to count each; the run itself keeps its real pointers.
func TestAuditPoolsDetectsStaleBackPointers(t *testing.T) {
	var clean, planted int
	hc := &hookController{hook: func(k int, s *Simulator) {
		if k != 5 {
			return
		}
		rel, comp := s.firstRel[0], s.procs[0].comp
		clean = s.auditPools()
		s.firstRel[0], s.procs[0].comp = &event{}, &event{}
		planted = s.auditPools()
		s.firstRel[0], s.procs[0].comp = rel, comp
	}}
	s, err := New(Config{System: oneTaskSystem(10, 0.01), SamplingPeriod: 1000, Periods: 12, Controller: hc})
	if err != nil {
		t.Fatal(err)
	}
	hc.s = s
	tr, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if clean != 0 || planted != 2 {
		t.Errorf("audit = %d before and %d after planting two stale back-pointers, want 0 and 2", clean, planted)
	}
	if tr.Stats.GuardPoolFirings != 0 {
		t.Errorf("GuardPoolFirings = %d with the real pointers restored, want 0", tr.Stats.GuardPoolFirings)
	}
}

// TestUtilGuardClampsPoisonedMonitor plants a NaN busy-time accumulator
// and expects the utilization guard to zero the sample, keep the trace
// finite, and count the firing.
func TestUtilGuardClampsPoisonedMonitor(t *testing.T) {
	hc := &hookController{hook: func(k int, s *Simulator) {
		if k == 5 {
			s.procs[0].busy = math.NaN()
		}
	}}
	s, err := New(Config{System: oneTaskSystem(10, 0.01), SamplingPeriod: 1000, Periods: 12, Controller: hc})
	if err != nil {
		t.Fatal(err)
	}
	hc.s = s
	tr, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats.GuardUtilFirings == 0 {
		t.Fatal("utilization guard never fired on a NaN busy accumulator")
	}
	for k, row := range tr.Utilization {
		if math.IsNaN(row[0]) || math.IsInf(row[0], 0) {
			t.Fatalf("period %d: non-finite utilization entered the trace", k)
		}
	}
	if tr.Utilization[6][0] != 0 {
		t.Errorf("poisoned sample recorded as %g, want guarded 0", tr.Utilization[6][0])
	}
}
