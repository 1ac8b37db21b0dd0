package deucon

import (
	"math"
	"math/rand"
	"testing"

	"github.com/rtsyslab/eucon/internal/metrics"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

func runDeucon(t *testing.T, sys *task.System, etf float64, periods int, jitter float64) (*sim.Trace, *Controller) {
	t.Helper()
	ctrl, err := New(sys, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.Config{
		System:         sys,
		SamplingPeriod: workload.SamplingPeriod,
		Periods:        periods,
		Controller:     ctrl,
		ETF:            sim.ConstantETF(etf),
		Jitter:         jitter,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return tr, ctrl
}

func TestNewValidation(t *testing.T) {
	if _, err := New(&task.System{Name: "bad", Processors: 1}, nil, Config{}); err == nil {
		t.Error("invalid system accepted")
	}
	if _, err := New(workload.Simple(), []float64{0.5}, Config{}); err == nil {
		t.Error("wrong set-point count accepted")
	}
}

func TestLeaderPartition(t *testing.T) {
	sys := workload.Medium()
	leaders := leadersOf(sys)
	total := 0
	for _, led := range leaders {
		total += len(led)
	}
	if total != len(sys.Tasks) {
		t.Fatalf("leaders cover %d tasks, want %d", total, len(sys.Tasks))
	}
	// Every led task's first subtask is on its leader.
	for p, led := range leaders {
		for _, j := range led {
			if sys.Tasks[j].Subtasks[0].Processor != p {
				t.Errorf("task %d led by P%d but starts on P%d", j, p+1, sys.Tasks[j].Subtasks[0].Processor+1)
			}
		}
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	sys := workload.Medium()
	ns := neighborsOf(sys)
	for p, neigh := range ns {
		for _, q := range neigh {
			found := false
			for _, back := range ns[q] {
				if back == p {
					found = true
				}
			}
			if !found {
				t.Errorf("neighbor relation not symmetric: %d → %d", p, q)
			}
		}
	}
}

func TestDeuconConvergesOnSimple(t *testing.T) {
	tr, ctrl := runDeucon(t, workload.Simple(), 0.5, 200, 0)
	for p := 0; p < 2; p++ {
		m := metrics.Mean(metrics.Window(metrics.Column(tr.Utilization, p), 120, 200))
		if math.Abs(m-0.828) > 0.03 {
			t.Errorf("P%d mean = %v, want ≈ 0.828 under decentralized control", p+1, m)
		}
	}
	if ctrl.Messages() == 0 {
		t.Error("no control-plane messages counted")
	}
	if ctrl.Periods() != 200 {
		t.Errorf("Periods = %d, want 200", ctrl.Periods())
	}
}

func TestDeuconConvergesOnMedium(t *testing.T) {
	sys := workload.Medium()
	tr, _ := runDeucon(t, sys, 1, 200, workload.MediumJitter)
	b := sys.DefaultSetPoints()
	for p := 0; p < 4; p++ {
		m := metrics.Mean(metrics.Window(metrics.Column(tr.Utilization, p), 120, 200))
		if math.Abs(m-b[p]) > 0.05 {
			t.Errorf("P%d mean = %v, want ≈ %v under decentralized control", p+1, m, b[p])
		}
	}
}

func TestDeuconTracksDynamicWorkload(t *testing.T) {
	sys := workload.Medium()
	ctrl, err := New(sys, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := sim.StepETF(
		sim.ETFStep{At: 0, Factor: 0.5},
		sim.ETFStep{At: 100 * workload.SamplingPeriod, Factor: 0.9},
	)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.Config{
		System:         sys,
		SamplingPeriod: workload.SamplingPeriod,
		Periods:        200,
		Controller:     ctrl,
		ETF:            sched,
		Jitter:         workload.MediumJitter,
		Seed:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	b := sys.DefaultSetPoints()
	for p := 0; p < 4; p++ {
		m := metrics.Mean(metrics.Window(metrics.Column(tr.Utilization, p), 160, 200))
		if math.Abs(m-b[p]) > 0.06 {
			t.Errorf("P%d post-step mean = %v, want ≈ %v", p+1, m, b[p])
		}
	}
}

func TestLocalProblemSizeBounded(t *testing.T) {
	// On a large ring-structured workload, the local problem must stay
	// bounded by the neighborhood even as the system grows — the point of
	// decentralization.
	rng := rand.New(rand.NewSource(3))
	const procs = 16
	sys := &task.System{Name: "ring", Processors: procs}
	for p := 0; p < procs; p++ {
		cost := 20 + rng.Float64()*20
		sys.Tasks = append(sys.Tasks, task.Task{
			Name: "R" + string(rune('A'+p)),
			Subtasks: []task.Subtask{
				{Processor: p, EstimatedCost: cost},
				{Processor: (p + 1) % procs, EstimatedCost: cost},
			},
			RateMin: 1.0 / 4000, RateMax: 1.0 / 50, InitialRate: 1.0 / 400,
		})
	}
	ctrl, err := New(sys, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	scopeProcs, ledTasks := ctrl.MaxLocalProblemSize()
	if scopeProcs > 3 {
		t.Errorf("max local scope = %d processors on a ring, want ≤ 3", scopeProcs)
	}
	if ledTasks != 1 {
		t.Errorf("max led tasks = %d on a ring, want 1", ledTasks)
	}
	if ctrl.LocalControllers() != procs {
		t.Errorf("local controllers = %d, want %d", ctrl.LocalControllers(), procs)
	}
}

func TestDeuconRingConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const procs = 8
	sys := &task.System{Name: "ring8", Processors: procs}
	for p := 0; p < procs; p++ {
		cost := 25 + rng.Float64()*10
		sys.Tasks = append(sys.Tasks, task.Task{
			Name: "R" + string(rune('A'+p)),
			Subtasks: []task.Subtask{
				{Processor: p, EstimatedCost: cost},
				{Processor: (p + 1) % procs, EstimatedCost: cost},
			},
			RateMin: 1.0 / 4000, RateMax: 1.0 / 50, InitialRate: 1.0 / 500,
		})
	}
	tr, _ := runDeucon(t, sys, 1, 250, 0)
	b := sys.DefaultSetPoints()
	for p := 0; p < procs; p++ {
		m := metrics.Mean(metrics.Window(metrics.Column(tr.Utilization, p), 180, 250))
		if math.Abs(m-b[p]) > 0.05 {
			t.Errorf("ring P%d mean = %v, want ≈ %v", p+1, m, b[p])
		}
	}
}

func TestRatesDimensionErrors(t *testing.T) {
	ctrl, err := New(workload.Simple(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Step(0, []float64{0.5}, []float64{0.01, 0.01, 0.01}); err == nil {
		t.Error("short utilization accepted")
	}
	if _, err := ctrl.Step(0, []float64{0.5, 0.5}, []float64{0.01}); err == nil {
		t.Error("short rates accepted")
	}
	if ctrl.Name() != "DEUCON" {
		t.Errorf("Name = %q", ctrl.Name())
	}
}
