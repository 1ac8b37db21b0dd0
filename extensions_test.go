package eucon_test

import (
	"context"
	"math"
	"strings"
	"testing"

	eucon "github.com/rtsyslab/eucon"
)

func TestDecentralizedControllerPublicAPI(t *testing.T) {
	sys := eucon.SimpleWorkload()
	ctrl, err := eucon.NewDecentralizedController(sys, nil, eucon.DecentralizedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eucon.SimulateContext(context.Background(), eucon.SimulationConfig{
		System:         sys,
		Controller:     ctrl,
		SamplingPeriod: 1000,
		Periods:        150,
		ETF:            eucon.ConstantETF(0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		s := eucon.Summarize(eucon.UtilizationSeries(tr, p)[90:])
		if math.Abs(s.Mean-0.828) > 0.03 {
			t.Errorf("P%d mean = %v under DEUCON, want ≈ 0.828", p+1, s.Mean)
		}
	}
	if ctrl.Messages() == 0 {
		t.Error("no messages counted")
	}
}

func TestPIDBaselinePublicAPI(t *testing.T) {
	sys := eucon.SimpleWorkload()
	ctrl, err := eucon.NewPIDBaseline(sys, nil, eucon.PIDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Name() != "PID" {
		t.Fatalf("Name = %q", ctrl.Name())
	}
}

func TestSchedulabilityPublicAPI(t *testing.T) {
	jobs := []eucon.SchedJob{
		{Cost: 1, Period: 4},
		{Cost: 2, Period: 6},
	}
	resp, err := eucon.ResponseTimes(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if resp[0] != 1 || resp[1] != 3 {
		t.Fatalf("response times = %v, want [1 3]", resp)
	}
	sys := eucon.SimpleWorkload()
	ok, _, err := eucon.SystemSchedulable(sys, []float64{0.005, 0.005, 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("light load rejected")
	}
	admitted, err := eucon.Admit(sys, []float64{0.005, 0.005, 0.005}, eucon.Task{
		Name:     "extra",
		Subtasks: []eucon.Subtask{{Processor: 0, EstimatedCost: 5}},
		RateMin:  0.001, RateMax: 0.01, InitialRate: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !admitted {
		t.Error("small task not admitted")
	}
}

func TestTraceExportPublicAPI(t *testing.T) {
	sys := eucon.SimpleWorkload()
	tr, err := eucon.SimulateContext(context.Background(), eucon.SimulationConfig{
		System:         sys,
		SamplingPeriod: 1000,
		Periods:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := eucon.WriteUtilizationCSV(&sb, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "u_p1") {
		t.Error("utilization CSV missing header")
	}
	sb.Reset()
	if err := eucon.WriteRatesCSV(&sb, tr); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := eucon.WriteMissRatioCSV(&sb, tr); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := eucon.WriteTraceJSON(&sb, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sampling_period") {
		t.Error("JSON missing sampling_period")
	}
	if len(tr.Periods) != 3 {
		t.Errorf("PeriodStats rows = %d, want 3", len(tr.Periods))
	}
}
