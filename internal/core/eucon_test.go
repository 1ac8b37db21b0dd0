package core

import (
	"math"
	"slices"
	"testing"

	"github.com/rtsyslab/eucon/internal/mpc"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
)

func simpleSystem() *task.System {
	return &task.System{
		Name:       "SIMPLE",
		Processors: 2,
		Tasks: []task.Task{
			{Name: "T1", Subtasks: []task.Subtask{{Processor: 0, EstimatedCost: 35}}, RateMin: 1.0 / 700, RateMax: 1.0 / 35, InitialRate: 1.0 / 60},
			{Name: "T2", Subtasks: []task.Subtask{{Processor: 0, EstimatedCost: 35}, {Processor: 1, EstimatedCost: 35}}, RateMin: 1.0 / 700, RateMax: 1.0 / 35, InitialRate: 1.0 / 90},
			{Name: "T3", Subtasks: []task.Subtask{{Processor: 1, EstimatedCost: 45}}, RateMin: 1.0 / 900, RateMax: 1.0 / 45, InitialRate: 1.0 / 100},
		},
	}
}

func TestNewDefaults(t *testing.T) {
	c, err := New(simpleSystem(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b := c.SetPoints()
	for p, v := range b {
		if math.Abs(v-0.8284) > 5e-4 {
			t.Errorf("default set point for P%d = %v, want Liu–Layland 0.828", p+1, v)
		}
	}
}

func TestNewValidation(t *testing.T) {
	sys := simpleSystem()
	if _, err := New(&task.System{Name: "bad", Processors: 1}, nil, Config{}); err == nil {
		t.Error("invalid system accepted")
	}
	if _, err := New(sys, []float64{0.5}, Config{}); err == nil {
		t.Error("wrong set-point count accepted")
	}
	if _, err := New(sys, []float64{0.5, 1.5}, Config{}); err == nil {
		t.Error("set point above 1 accepted")
	}
	if _, err := New(sys, []float64{0, 0.5}, Config{}); err == nil {
		t.Error("zero set point accepted")
	}
	if _, err := New(sys, nil, Config{PredictionHorizon: 1, ControlHorizon: 4}); err == nil {
		t.Error("M > P accepted")
	}
}

func TestEUCONDrivesSimulatorToSetPoint(t *testing.T) {
	sys := simpleSystem()
	c, err := New(sys, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.Config{
		System:         sys,
		SamplingPeriod: 1000,
		Periods:        100,
		Controller:     c,
		ETF:            sim.ConstantETF(0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Average over the tail must sit at the set point (Figure 3a behavior).
	var sum0, sum1 float64
	tail := tr.Utilization[60:]
	for _, u := range tail {
		sum0 += u[0]
		sum1 += u[1]
	}
	m0, m1 := sum0/float64(len(tail)), sum1/float64(len(tail))
	if math.Abs(m0-0.828) > 0.02 {
		t.Errorf("P1 tail mean = %v, want ≈ 0.828", m0)
	}
	if math.Abs(m1-0.828) > 0.02 {
		t.Errorf("P2 tail mean = %v, want ≈ 0.828", m1)
	}
	if c.Steps() != 100 {
		t.Errorf("Steps = %d, want 100", c.Steps())
	}
}

func TestRatesRespectsBounds(t *testing.T) {
	sys := simpleSystem()
	c, err := New(sys, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rates := sys.InitialRates()
	rmin, rmax := sys.RateBounds()
	u := []float64{0.99, 0.99}
	for k := 0; k < 50; k++ {
		var err error
		rates, err = c.Step(k, u, rates)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rates {
			if rates[i] < rmin[i]-1e-12 || rates[i] > rmax[i]+1e-12 {
				t.Fatalf("step %d: rate[%d] = %v outside [%v, %v]", k, i, rates[i], rmin[i], rmax[i])
			}
		}
	}
}

func TestRelaxedPeriodsCountsOverload(t *testing.T) {
	sys := simpleSystem()
	c, err := New(sys, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rmin, _ := sys.RateBounds()
	// Rates pinned at minimum, yet massive overload: infeasible constraints.
	if _, err := c.Step(0, []float64{1, 1}, rmin); err != nil {
		t.Fatal(err)
	}
	if c.RelaxedPeriods() != 1 {
		t.Fatalf("RelaxedPeriods = %d, want 1", c.RelaxedPeriods())
	}
}

func TestUpdateSetPointsOnline(t *testing.T) {
	c, err := New(simpleSystem(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateSetPoints([]float64{0.5, 0.6}); err != nil {
		t.Fatal(err)
	}
	got := c.SetPoints()
	if math.Abs(got[0]-0.5) > 1e-12 || math.Abs(got[1]-0.6) > 1e-12 {
		t.Fatalf("SetPoints = %v after update", got)
	}
	if err := c.UpdateSetPoints([]float64{0.5}); err == nil {
		t.Error("short set-point vector accepted")
	}
}

// TestUpdateSetPointsValidatesLikeNew: set points New rejects are rejected
// online too, and a rejected update changes nothing — the next Step is the
// one a controller that never saw it takes.
func TestUpdateSetPointsValidatesLikeNew(t *testing.T) {
	bad := []float64{1.7, -0.2}
	if _, err := New(simpleSystem(), bad, Config{}); err == nil {
		t.Fatal("New accepted set points outside (0, 1]")
	}
	c, err := New(simpleSystem(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(simpleSystem(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]float64{bad, {0.5, math.NaN()}, {0.5, 0.5, 0.5}} {
		if err := c.UpdateSetPoints(b); err == nil {
			t.Errorf("UpdateSetPoints(%v) accepted", b)
		}
	}
	if got, want := c.SetPoints(), twin.SetPoints(); got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("rejected updates moved the set points to %v, want %v", got, want)
	}
	u, rates := []float64{0.6, 0.7}, simpleSystem().InitialRates()
	got, err := c.Step(0, u, rates)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Step(0, u, rates)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("after rejected updates the step commands %v, want %v", got, want)
		}
	}
}

// TestStepRejectsMisSizedVectors: a utilization or rate vector of the wrong
// length is an error, also after a good step.
func TestStepRejectsMisSizedVectors(t *testing.T) {
	c, err := New(simpleSystem(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rates := simpleSystem().InitialRates()
	if _, err := c.Step(0, []float64{0.5, 0.5}, rates); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		u, rates []float64
	}{
		{"longer u", []float64{0.5, 0.5, 0.5}, rates},
		{"shorter u", []float64{0.5}, rates},
		{"longer rates", []float64{0.5, 0.5}, append(rates[:3:3], 0.01)},
		{"shorter rates", []float64{0.5, 0.5}, rates[:2]},
	} {
		if _, err := c.Step(1, tc.u, tc.rates); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if _, err := c.Step(2, []float64{0.5, 0.5}, rates); err != nil {
		t.Fatalf("good step after rejected ones: %v", err)
	}
}

func TestCriticalGainSimple(t *testing.T) {
	c, err := New(simpleSystem(), []float64{0.828, 0.828}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.CriticalGain(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 5.95 analytic, 6.5–7 empirical.
	if g < 5.5 || g > 7 {
		t.Fatalf("critical gain = %v, want within [5.5, 7]", g)
	}
	stable, err := c.StableAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Error("StableAt(1) = false")
	}
	unstable, err := c.StableAt(8)
	if err != nil {
		t.Fatal(err)
	}
	if unstable {
		t.Error("StableAt(8) = true")
	}
}

func TestConfigDefaults(t *testing.T) {
	got := Config{}.withDefaults()
	if got.PredictionHorizon != 2 || got.ControlHorizon != 1 || got.TrefOverTs != 4 {
		t.Fatalf("withDefaults = %+v, want paper Table 2 SIMPLE values", got)
	}
	custom := Config{PredictionHorizon: 4, ControlHorizon: 2, TrefOverTs: 8}.withDefaults()
	if custom.PredictionHorizon != 4 || custom.ControlHorizon != 2 || custom.TrefOverTs != 8 {
		t.Fatalf("withDefaults clobbered explicit values: %+v", custom)
	}
}

func TestName(t *testing.T) {
	c, err := New(simpleSystem(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "EUCON" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestMeasurementFilterValidation(t *testing.T) {
	if _, err := New(simpleSystem(), nil, Config{MeasurementFilter: 1.5}); err == nil {
		t.Error("filter above 1 accepted")
	}
	if _, err := New(simpleSystem(), nil, Config{MeasurementFilter: -0.1}); err == nil {
		t.Error("negative filter accepted")
	}
}

func TestMeasurementFilterSmoothsNoise(t *testing.T) {
	// Feed measurements alternating symmetrically around the set point with
	// fixed rates: the filtered controller's commanded rate changes must be
	// smaller, because the EWMA converges to the (on-target) mean while the
	// unfiltered controller chases every sample.
	variation := func(alpha float64) float64 {
		c, err := New(simpleSystem(), nil, Config{MeasurementFilter: alpha})
		if err != nil {
			t.Fatal(err)
		}
		rates := simpleSystem().InitialRates()
		var total float64
		for k := 5; k < 40; k++ { // skip the filter's warm-up
			u := []float64{0.778, 0.778}
			if k%2 == 1 {
				u = []float64{0.878, 0.878}
			}
			next, err := c.Step(k, u, rates)
			if err != nil {
				t.Fatal(err)
			}
			for i := range next {
				d := next[i] - rates[i]
				if d < 0 {
					d = -d
				}
				if k >= 10 {
					total += d
				}
			}
		}
		return total
	}
	unfiltered := variation(0)
	filtered := variation(0.3)
	if filtered >= unfiltered {
		t.Fatalf("filtered rate variation %v >= unfiltered %v", filtered, unfiltered)
	}
}

// TestFilterSurvivesNaN: a raw NaN sample reaching a filtered controller
// holds that period's rates and leaves the filter state as a twin's that
// never saw the NaN row, so the controller steers again as soon as finite
// samples return.
func TestFilterSurvivesNaN(t *testing.T) {
	newFiltered := func() *Controller {
		c, err := New(simpleSystem(), nil, Config{MeasurementFilter: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	lossy, twin := newFiltered(), newFiltered()
	step := func(c *Controller, k int, u, r []float64) []float64 {
		t.Helper()
		next, err := c.Step(k, u, r)
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), next...)
	}
	rates := step(lossy, 0, []float64{0.5, 0.6}, simpleSystem().InitialRates())
	step(twin, 0, []float64{0.5, 0.6}, simpleSystem().InitialRates())
	held := step(lossy, 1, []float64{math.NaN(), 0.6}, rates)
	if lossy.LastOutcome() != mpc.SolveHeld || !slices.Equal(held, rates) {
		t.Fatalf("NaN step: outcome %v, rates %v; want SolveHeld and the applied %v", lossy.LastOutcome(), held, rates)
	}
	if !slices.Equal(lossy.filtered, twin.filtered) {
		t.Fatalf("filter state after the NaN step = %v, want the twin's %v", lossy.filtered, twin.filtered)
	}
	for k, u := range [][]float64{{0.7, 0.65}, {0.75, 0.7}, {0.8, 0.72}} {
		next := step(lossy, k+2, u, rates)
		if lossy.LastOutcome() == mpc.SolveHeld || slices.Equal(next, rates) {
			t.Fatalf("period %d after the NaN: outcome %v, rates %v unchanged; want the loop to steer again", k+2, lossy.LastOutcome(), next)
		}
		rates = next
	}
}

func TestResetClearsFilter(t *testing.T) {
	c, err := New(simpleSystem(), nil, Config{MeasurementFilter: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rates := simpleSystem().InitialRates()
	r1, err := c.Step(0, []float64{0.5, 0.5}, rates)
	if err != nil {
		t.Fatal(err)
	}
	r1 = append([]float64(nil), r1...) // the next Step overwrites the returned slice
	if _, err := c.Step(1, []float64{0.9, 0.9}, r1); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	r2, err := c.Step(0, []float64{0.5, 0.5}, rates)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if math.Abs(r1[i]-r2[i]) > 1e-12 {
			t.Fatalf("Reset did not clear filter state: %v vs %v", r1, r2)
		}
	}
}

// TestRatesSteadyStateAllocs guards the hot-path optimization: after
// warm-up, one control period must stay near-allocation-free (the C stack,
// its factorization, the constraint matrices, and all solver scratch are
// cached on the controller; only the small result slices escape).
func TestRatesSteadyStateAllocs(t *testing.T) {
	c, err := New(simpleSystem(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	u := []float64{0.5, 0.6}
	rates := simpleSystem().InitialRates()
	for i := 0; i < 10; i++ { // warm the solver's active-set memory
		if _, err := c.Step(i, u, rates); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Step(0, u, rates); err != nil {
			t.Fatal(err)
		}
	})
	// The seed implementation allocated ~94 per step on SIMPLE; the cached
	// controller needs only the per-step result slices. Allow headroom for
	// an occasional active-set excursion.
	if allocs > 18 {
		t.Errorf("steady-state Rates allocates %.0f objects/op, want <= 18", allocs)
	}
}
