package baseline

import (
	"math"
	"testing"

	"github.com/rtsyslab/eucon/internal/metrics"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
)

// decoupledSystem has one local task per processor — the setting the
// original FCS work assumed, where per-processor PID is sound.
func decoupledSystem() *task.System {
	return &task.System{
		Name:       "decoupled",
		Processors: 2,
		Tasks: []task.Task{
			{Name: "A", Subtasks: []task.Subtask{{Processor: 0, EstimatedCost: 20}}, RateMin: 0.0005, RateMax: 0.1, InitialRate: 0.01},
			{Name: "B", Subtasks: []task.Subtask{{Processor: 1, EstimatedCost: 30}}, RateMin: 0.0005, RateMax: 0.1, InitialRate: 0.01},
		},
	}
}

// couplingTrap is a workload where per-processor control provably fails:
// P1 hosts ONLY a stage of the shared task T1, while P2 hosts T1's other
// stage plus a local task T2. Reaching P1's set point requires raising T1
// while lowering T2 — a trade-off only a controller that models the
// coupling can make. PID's conservative per-processor rule freezes T1 as
// soon as P2 reaches its set point, stranding P1 below its own.
func couplingTrap() *task.System {
	return &task.System{
		Name:       "trap",
		Processors: 2,
		Tasks: []task.Task{
			{
				Name: "T1",
				Subtasks: []task.Subtask{
					{Processor: 0, EstimatedCost: 35},
					{Processor: 1, EstimatedCost: 35},
				},
				RateMin: 1.0 / 700, RateMax: 1.0 / 35, InitialRate: 1.0 / 200,
			},
			{
				Name:     "T2",
				Subtasks: []task.Subtask{{Processor: 1, EstimatedCost: 45}},
				RateMin:  1.0 / 9000, RateMax: 1.0 / 45, InitialRate: 1.0 / 100,
			},
		},
	}
}

func TestPIDValidation(t *testing.T) {
	if _, err := NewPID(&task.System{Name: "bad", Processors: 1}, nil); err == nil {
		t.Error("invalid system accepted")
	}
	if _, err := NewPID(decoupledSystem(), []float64{0.5}); err == nil {
		t.Error("wrong set-point count accepted")
	}
}

func TestPIDConvergesOnDecoupledWorkload(t *testing.T) {
	sys := decoupledSystem()
	ctrl, err := NewPID(sys, []float64{0.7, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.Config{
		System:         sys,
		SamplingPeriod: 1000,
		Periods:        150,
		Controller:     ctrl,
		ETF:            sim.ConstantETF(0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		m := metrics.Mean(metrics.Window(metrics.Column(tr.Utilization, p), 75, 150))
		if math.Abs(m-0.7) > 0.03 {
			t.Errorf("P%d mean = %v, want ≈ 0.7 on a decoupled workload", p+1, m)
		}
	}
}

func TestPIDDegradesUnderCoupling(t *testing.T) {
	// On the coupling-trap workload the conservative-minimum rule leaves a
	// large steady-state error on P1 — the paper's argument for MIMO model
	// predictive control over per-processor PID.
	sys := couplingTrap()
	ctrl, err := NewPID(sys, []float64{0.828, 0.828})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.Config{
		System:         sys,
		SamplingPeriod: 1000,
		Periods:        200,
		Controller:     ctrl,
		ETF:            sim.ConstantETF(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	mP1 := metrics.Mean(metrics.Window(metrics.Column(tr.Utilization, 0), 100, 200))
	if math.Abs(mP1-0.828) < 0.05 {
		t.Errorf("PID P1 mean = %v: expected a large steady-state error on the coupling trap", mP1)
	}
	// Rates must stay within bounds regardless of tracking quality.
	rmin, rmax := sys.RateBounds()
	for k, r := range tr.Rates {
		for i := range r {
			if r[i] < rmin[i]-1e-12 || r[i] > rmax[i]+1e-12 {
				t.Fatalf("period %d: rate[%d] = %v outside bounds", k, i, r[i])
			}
		}
	}
}

func TestEUCONSolvesCouplingTrap(t *testing.T) {
	// The same workload under the unconstrained utilization target is
	// solvable: MPC raises the shared task and pushes the local task toward
	// R_min so BOTH processors reach 0.828. We verify the rate pattern
	// analytically: u1 = 35·r1 = 0.828 needs r1 ≈ 0.02366 which is within
	// T1's bounds, and then u2 = 0.828 + 45·r2 forces r2 → R_min.
	sys := couplingTrap()
	f := sys.AllocationMatrix()
	r := []float64{0.828 / 35, sys.Tasks[1].RateMin}
	u := f.MulVec(r)
	if math.Abs(u[0]-0.828) > 1e-9 {
		t.Fatalf("analytic u1 = %v", u[0])
	}
	if u[1] > 0.9 {
		t.Fatalf("analytic u2 = %v exceeds feasibility slack", u[1])
	}
}

func TestPIDAntiWindup(t *testing.T) {
	// Drive the loop into saturation (set point unreachable), then release:
	// the integral must not have wound up so far that recovery stalls.
	sys := decoupledSystem()
	ctrl, err := NewPID(sys, []float64{0.9, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	rates := sys.InitialRates()
	// 200 periods of heavy underutilization reports (simulates saturation).
	var err2 error
	for k := 0; k < 200; k++ {
		rates, err2 = ctrl.Step(k, []float64{0.05, 0.05}, rates)
		if err2 != nil {
			t.Fatal(err2)
		}
	}
	// Now report over-target utilization; rates must start dropping within
	// a bounded number of periods.
	dropped := false
	prev := rates[0]
	for k := 0; k < 60; k++ {
		rates, err2 = ctrl.Step(200+k, []float64{1.0, 1.0}, rates)
		if err2 != nil {
			t.Fatal(err2)
		}
		if rates[0] < prev {
			dropped = true
			break
		}
		prev = rates[0]
	}
	if !dropped {
		t.Fatal("rates never decreased after saturation released: integral wind-up")
	}
}

func TestPIDResetAndName(t *testing.T) {
	ctrl, err := NewPID(decoupledSystem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Name() != "PID" {
		t.Fatalf("Name = %q", ctrl.Name())
	}
	rates := []float64{0.01, 0.01}
	r1, err := ctrl.Step(0, []float64{0.3, 0.3}, rates)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Reset()
	r2, err := ctrl.Step(0, []float64{0.3, 0.3}, rates)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if math.Abs(r1[i]-r2[i]) > 1e-12 {
			t.Fatalf("Reset did not clear integral state: %v vs %v", r1, r2)
		}
	}
}

func TestPIDDimensionErrors(t *testing.T) {
	ctrl, err := NewPID(decoupledSystem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Step(0, []float64{0.3}, []float64{0.01, 0.01}); err == nil {
		t.Error("short utilization accepted")
	}
	if _, err := ctrl.Step(0, []float64{0.3, 0.3}, []float64{0.01}); err == nil {
		t.Error("short rates accepted")
	}
}
