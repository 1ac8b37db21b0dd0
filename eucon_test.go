package eucon_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	eucon "github.com/rtsyslab/eucon"
)

func TestQuickstartConvergence(t *testing.T) {
	sys := eucon.SimpleWorkload()
	ctrl, err := eucon.NewController(sys, nil, eucon.ControllerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eucon.SimulateContext(context.Background(), eucon.SimulationConfig{
		System:         sys,
		Controller:     ctrl,
		SamplingPeriod: 1000,
		Periods:        120,
		ETF:            eucon.ConstantETF(0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		s := eucon.Summarize(eucon.UtilizationSeries(tr, p)[60:])
		if math.Abs(s.Mean-0.828) > 0.02 {
			t.Errorf("P%d mean = %v, want ≈ 0.828", p+1, s.Mean)
		}
	}
}

func TestPublicBaseline(t *testing.T) {
	sys := eucon.SimpleWorkload()
	open, err := eucon.NewOpenBaseline(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	u := open.ExpectedUtilization(sys, 0.5)
	if math.Abs(u[0]-0.414) > 0.01 {
		t.Fatalf("OPEN expected u1 at etf 0.5 = %v, want ≈ 0.414", u[0])
	}
}

func TestPublicWorkloads(t *testing.T) {
	if sys := eucon.SimpleWorkload(); sys.Processors != 2 || len(sys.Tasks) != 3 {
		t.Error("SimpleWorkload shape wrong")
	}
	if sys := eucon.MediumWorkload(); sys.Processors != 4 || len(sys.Tasks) != 12 {
		t.Error("MediumWorkload shape wrong")
	}
	cfg := eucon.RandomWorkloadConfig{
		Processors: 3, EndToEndTasks: 4, LocalTasks: 1, MaxChainLength: 3,
		MinCost: 10, MaxCost: 40,
	}
	sys, err := eucon.RandomWorkload(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicConfigsAndBounds(t *testing.T) {
	if c := eucon.SimpleControllerConfig(); c.PredictionHorizon != 2 {
		t.Error("SimpleControllerConfig wrong")
	}
	if c := eucon.MediumControllerConfig(); c.PredictionHorizon != 4 {
		t.Error("MediumControllerConfig wrong")
	}
	if b := eucon.LiuLaylandBound(2); math.Abs(b-0.8284) > 1e-3 {
		t.Errorf("LiuLaylandBound(2) = %v", b)
	}
}

func TestPublicStepETF(t *testing.T) {
	sched, err := eucon.StepETF(eucon.ETFStep{At: 0, Factor: 0.5}, eucon.ETFStep{At: 100, Factor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sched.At(50) != 0.5 || sched.At(150) != 2 {
		t.Error("StepETF schedule wrong")
	}
}

func TestRateSeriesExtraction(t *testing.T) {
	sys := eucon.SimpleWorkload()
	tr, err := eucon.SimulateContext(context.Background(), eucon.SimulationConfig{
		System:         sys,
		SamplingPeriod: 1000,
		Periods:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := eucon.RateSeries(tr, 0)
	if len(r) != 5 {
		t.Fatalf("RateSeries length = %d, want 5", len(r))
	}
	for _, v := range r {
		if math.Abs(v-1.0/60) > 1e-12 {
			t.Fatalf("rate = %v, want initial 1/60 with no controller", v)
		}
	}
}

func TestControllerStabilityAPI(t *testing.T) {
	ctrl, err := eucon.NewController(eucon.SimpleWorkload(), nil, eucon.SimpleControllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, err := ctrl.CriticalGain(1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if g < 5 || g > 8 {
		t.Fatalf("critical gain = %v out of expected band", g)
	}
}
