package sim_test

import (
	"testing"

	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/deucon"
	"github.com/rtsyslab/eucon/internal/experiments"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/workload"
)

// liveProbe wraps a run's controller and checks the event queue at every
// sampling boundary, before the boundary's rate change is applied.
type liveProbe struct {
	sim.Controller
	t           *testing.T
	s           *sim.Simulator
	tasks       int
	boundaries  int
	completions int
}

func (p *liveProbe) Step(k int, u, rates []float64) ([]float64, error) {
	completions, firsts, err := sim.CheckLiveEvents(p.s)
	if err != nil {
		p.t.Errorf("boundary %d: %v", k+1, err)
	} else if firsts != p.tasks {
		p.t.Errorf("boundary %d: %d first releases queued for %d tasks", k+1, firsts, p.tasks)
	}
	p.boundaries++
	p.completions += completions
	return p.Controller.Step(k, u, rates)
}

// TestEventQueueHoldsOnlyLiveEvents pins the live-event queue: a preemption
// re-times its processor's queued completion and a rate change re-times its
// task's queued first release, so at every sampling boundary each queued
// completion belongs to a running job, each task has exactly one first
// release queued, and the calendar's invariants hold — on LARGE-16
// under DEUCON (rates move every period), MEDIUM dynamic-etf under core and
// fig4 SIMPLE at etf 2 (overloaded, so preemptions abound).
func TestEventQueueHoldsOnlyLiveEvents(t *testing.T) {
	large16, err := workload.Large(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  func(t *testing.T) sim.Config
	}{
		{"LARGE-16 DEUCON", func(t *testing.T) sim.Config {
			ctrl, err := deucon.New(large16, nil, deucon.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return sim.Config{System: large16, SamplingPeriod: workload.SamplingPeriod, Periods: 120,
				Controller: ctrl, Seed: experiments.DefaultSeed}
		}},
		{"MEDIUM dynamic", func(t *testing.T) sim.Config {
			ctrl, err := core.New(workload.Medium(), nil, workload.MediumController())
			if err != nil {
				t.Fatal(err)
			}
			return sim.Config{System: workload.Medium(), SamplingPeriod: workload.SamplingPeriod, Periods: experiments.DefaultPeriods,
				Controller: ctrl, ETF: experiments.DynamicETF(), Jitter: workload.MediumJitter, Seed: experiments.DefaultSeed}
		}},
		{"fig4 SIMPLE etf=2", func(t *testing.T) sim.Config {
			ctrl, err := core.New(workload.Simple(), nil, workload.SimpleController())
			if err != nil {
				t.Fatal(err)
			}
			return sim.Config{System: workload.Simple(), SamplingPeriod: workload.SamplingPeriod, Periods: experiments.DefaultPeriods,
				Controller: ctrl, ETF: sim.ConstantETF(2), Seed: experiments.DefaultSeed}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			s, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			probe := &liveProbe{Controller: cfg.Controller, t: t, s: s, tasks: len(cfg.System.Tasks)}
			cfg.Controller = probe
			if err := s.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			tr, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if probe.boundaries != cfg.Periods || probe.completions == 0 {
				t.Errorf("checked %d boundaries and %d queued completions; want %d boundaries and some completions",
					probe.boundaries, probe.completions, cfg.Periods)
			}
			if tr.Stats.GuardPoolFirings != 0 {
				t.Errorf("GuardPoolFirings = %d, want 0", tr.Stats.GuardPoolFirings)
			}
		})
	}
}
