package sim_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/experiments"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/workload"
)

// boundaryProbe wraps a run's controller to watch every sampling boundary
// from inside the event loop: boundary k+1 (Step's k) must be handled at
// exactly float64(k+1)·Ts, right after boundary k, with no boundary queued
// while it is handled. cancelAt > 0 cancels the run's context while that
// boundary is handled.
type boundaryProbe struct {
	sim.Controller
	t        *testing.T
	s        *sim.Simulator
	ts       float64
	handled  int
	cancelAt int
	cancel   context.CancelFunc
}

func (p *boundaryProbe) Step(k int, u, rates []float64) ([]float64, error) {
	if k != p.handled {
		p.t.Errorf("boundary %d handled after %d boundaries", k+1, p.handled)
	}
	if at, want := sim.Clock(p.s), float64(k+1)*p.ts; math.Float64bits(at) != math.Float64bits(want) {
		p.t.Errorf("boundary %d handled at t=%v, want %v", k+1, at, want)
	}
	if n := sim.QueuedSamplingEvents(p.s); n != 0 {
		p.t.Errorf("boundary %d: %d boundaries queued while it is handled, want 0", k+1, n)
	}
	p.handled++
	if p.handled == p.cancelAt {
		p.cancel()
	}
	return p.Controller.Step(k, u, rates)
}

// TestSamplingQueueHoldsOnlyTheNextBoundary pins the lazily queued sampling
// boundaries on the paper's runs and the edge cases: the queue never holds
// more than one sampling event (checked at every boundary and, on jittered
// runs, at every release), boundaries 1..Periods are each handled once at
// float64(k)·Ts, none is left queued when a run ends, and the pool audit
// stays clean — including after a run canceled mid-way and then Reset.
func TestSamplingQueueHoldsOnlyTheNextBoundary(t *testing.T) {
	simple := func(etf float64, periods int) sim.Config {
		ctrl, err := core.New(workload.Simple(), nil, workload.SimpleController())
		if err != nil {
			t.Fatal(err)
		}
		return sim.Config{System: workload.Simple(), SamplingPeriod: workload.SamplingPeriod, Periods: periods,
			Controller: ctrl, ETF: sim.ConstantETF(etf), Seed: experiments.DefaultSeed}
	}
	medium := func() sim.Config {
		ctrl, err := core.New(workload.Medium(), nil, workload.MediumController())
		if err != nil {
			t.Fatal(err)
		}
		return sim.Config{System: workload.Medium(), SamplingPeriod: workload.SamplingPeriod, Periods: experiments.DefaultPeriods,
			Controller: ctrl, ETF: experiments.DynamicETF(), Jitter: workload.MediumJitter, Seed: experiments.DefaultSeed}
	}
	// run drives cfg through s with a probe installed and checks the
	// boundaries it saw; it returns the number handled.
	run := func(t *testing.T, s *sim.Simulator, cfg sim.Config, cancelAt int) int {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		probe := &boundaryProbe{Controller: cfg.Controller, t: t, s: s, ts: cfg.SamplingPeriod, cancelAt: cancelAt, cancel: cancel}
		cfg.Controller = probe
		if err := s.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		end := float64(cfg.Periods) * cfg.SamplingPeriod
		draws := 0
		sim.ProbeDraws(s, func() {
			draws++
			n := sim.QueuedSamplingEvents(s)
			if n > 1 || (n == 0 && sim.Clock(s) < end) {
				t.Errorf("release at t=%v: %d boundaries queued, want 1", sim.Clock(s), n)
			}
		})
		tr, err := s.RunContext(ctx)
		if n := sim.QueuedSamplingEvents(s); n != 0 {
			t.Errorf("%d boundaries still queued after the run", n)
		}
		if cfg.Jitter > 0 && draws == 0 {
			t.Error("jittered run drew no execution time; the per-release check never ran")
		}
		if cancelAt > 0 {
			if err == nil {
				t.Fatal("canceled run returned no error")
			}
			return probe.handled
		}
		if err != nil {
			t.Fatal(err)
		}
		if probe.handled != cfg.Periods || len(tr.Utilization) != cfg.Periods {
			t.Errorf("%d boundaries handled, %d trace rows; want %d", probe.handled, len(tr.Utilization), cfg.Periods)
		}
		if tr.Stats.GuardPoolFirings != 0 {
			t.Errorf("GuardPoolFirings = %d, want 0", tr.Stats.GuardPoolFirings)
		}
		return probe.handled
	}
	newSim := func(t *testing.T, cfg sim.Config) *sim.Simulator {
		t.Helper()
		s, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	for _, etf := range []float64{0.5, 2} {
		cfg := simple(etf, experiments.DefaultPeriods)
		t.Run(fmt.Sprintf("fig4 SIMPLE etf=%g", etf), func(t *testing.T) {
			run(t, newSim(t, cfg), cfg, 0)
		})
	}
	t.Run("MEDIUM dynamic", func(t *testing.T) {
		cfg := medium()
		run(t, newSim(t, cfg), cfg, 0)
	})
	t.Run("Periods=1", func(t *testing.T) {
		cfg := simple(1, 1)
		run(t, newSim(t, cfg), cfg, 0)
	})
	t.Run("Periods=0", func(t *testing.T) {
		cfg := simple(1, 0)
		if _, err := sim.New(cfg); err == nil {
			t.Fatal("New accepted Periods = 0")
		}
		if err := newSim(t, simple(1, 1)).Reset(cfg); err == nil {
			t.Fatal("Reset accepted Periods = 0")
		}
	})
	t.Run("canceled then Reset", func(t *testing.T) {
		cfg := medium()
		s := newSim(t, cfg)
		if got := run(t, s, cfg, 10); got != 10 {
			t.Fatalf("canceled run handled %d boundaries, want 10", got)
		}
		run(t, s, medium(), 0)
	})
}
