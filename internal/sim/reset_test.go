package sim_test

import (
	"context"
	"reflect"
	"testing"

	"github.com/rtsyslab/eucon/internal/deucon"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/workload"
)

// mediumCfg is a jittered closed-plant configuration exercising every
// pooled path: preemption, chains, rate-independent randomness.
func mediumCfg(seed int64) sim.Config {
	return sim.Config{
		System:         workload.Medium(),
		SamplingPeriod: workload.SamplingPeriod,
		Periods:        30,
		Jitter:         workload.MediumJitter,
		Seed:           seed,
	}
}

// large16Deucon is LARGE-16 under a fresh localized DEUCON controller:
// rates move every period, so every boundary re-times queued first
// releases in place.
func large16Deucon(t *testing.T, seed int64) sim.Config {
	t.Helper()
	sys, err := workload.Large(16)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := deucon.New(sys, nil, deucon.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		System:         sys,
		SamplingPeriod: workload.SamplingPeriod,
		Periods:        40,
		Controller:     ctrl,
		Jitter:         workload.MediumJitter,
		Seed:           seed,
	}
}

// TestResetReproducesFreshTrace is the Reset contract: a reused simulator
// must reproduce a fresh simulator's trace exactly — including after an
// intermediate run with a different seed, a different workload shape, and
// shedding, which leaves the pools and buffers maximally perturbed — on a
// jittered closed plant and on LARGE-16 under DEUCON, where queued events
// are re-timed in place every period.
func TestResetReproducesFreshTrace(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(t *testing.T, seed int64) sim.Config // fresh controller per call
	}{
		{"MEDIUM", func(_ *testing.T, seed int64) sim.Config { return mediumCfg(seed) }},
		{"LARGE-16 DEUCON", large16Deucon},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := sim.New(tc.cfg(t, 42))
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run()
			if err != nil {
				t.Fatal(err)
			}

			reused, err := sim.New(tc.cfg(t, 7)) // different seed first
			if err != nil {
				t.Fatal(err)
			}
			if _, err := reused.Run(); err != nil {
				t.Fatal(err)
			}
			// Perturb with a different shape (SIMPLE: fewer processors and
			// tasks) plus overload shedding.
			simpleCfg := sim.Config{
				System:         workload.Simple(),
				SamplingPeriod: workload.SamplingPeriod,
				Periods:        40,
				ETF:            sim.ConstantETF(9),
				MaxBacklog:     1,
				Seed:           3,
			}
			if err := reused.Reset(simpleCfg); err != nil {
				t.Fatal(err)
			}
			if _, err := reused.Run(); err != nil {
				t.Fatal(err)
			}

			if err := reused.Reset(tc.cfg(t, 42)); err != nil {
				t.Fatal(err)
			}
			got, err := reused.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Utilization, got.Utilization) {
				t.Error("reused simulator's utilization trace differs from fresh simulator's")
			}
			if !reflect.DeepEqual(want.Rates, got.Rates) {
				t.Error("reused simulator's rate trace differs from fresh simulator's")
			}
			if !reflect.DeepEqual(want.Periods, got.Periods) {
				t.Error("reused simulator's period stats differ from fresh simulator's")
			}
			if want.Stats != got.Stats {
				t.Errorf("reused stats %+v != fresh stats %+v", got.Stats, want.Stats)
			}
			if got.Stats.GuardPoolFirings != 0 {
				t.Errorf("GuardPoolFirings = %d, want 0", got.Stats.GuardPoolFirings)
			}
		})
	}
}

// abortAt runs its controller until period k, where it ends the run early:
// by canceling the run's context when cancel is set, otherwise by returning
// a rate vector of the wrong length.
type abortAt struct {
	sim.Controller
	k      int
	cancel context.CancelFunc
}

func (c abortAt) Step(k int, u, rates []float64) ([]float64, error) {
	if k == c.k {
		if c.cancel == nil {
			return rates[:1], nil
		}
		c.cancel()
	}
	return c.Controller.Step(k, u, rates)
}

// TestResetAfterAbortedRun pins that a run ended early — canceled, or
// failed by its controller — leaks no pooled object and no back-pointer
// into the event queue: after Reset the pool-conservation audit stays
// silent and the trace is a fresh simulator's.
func TestResetAfterAbortedRun(t *testing.T) {
	for _, tc := range []struct {
		prefix string // of the subtest names
		cfg    func(t *testing.T) sim.Config
	}{
		{"", func(*testing.T) sim.Config {
			return sim.Config{System: workload.Simple(), SamplingPeriod: workload.SamplingPeriod, Periods: 50,
				Controller: sim.FixedRates{}, Seed: 1}
		}},
		{"LARGE-16 DEUCON/", func(t *testing.T) sim.Config { return large16Deucon(t, 1) }},
	} {
		fresh, err := sim.New(tc.cfg(t))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"canceled", "controller error"} {
			t.Run(tc.prefix+name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				aborted := tc.cfg(t)
				ab := abortAt{Controller: aborted.Controller, k: 10}
				if name == "canceled" {
					ab.cancel = cancel
				}
				aborted.Controller = ab
				s, err := sim.New(aborted)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.RunContext(ctx); err == nil {
					t.Fatal("aborted run returned no error")
				}
				if err := s.Reset(tc.cfg(t)); err != nil {
					t.Fatal(err)
				}
				got, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				if got.Stats.GuardPoolFirings != 0 {
					t.Errorf("GuardPoolFirings = %d after Reset, want 0", got.Stats.GuardPoolFirings)
				}
				if !reflect.DeepEqual(want, got) {
					t.Error("trace after an aborted run and Reset differs from a fresh simulator's")
				}
			})
		}
	}
}

// TestResetRejectsInvalidConfig ensures Reset validates like New and the
// simulator keeps working after a rejected Reset.
func TestResetRejectsInvalidConfig(t *testing.T) {
	s, err := sim.New(mediumCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(sim.Config{}); err == nil {
		t.Fatal("Reset accepted an invalid config")
	}
	if err := s.Reset(mediumCfg(1)); err != nil {
		t.Fatalf("Reset after rejected config: %v", err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateEventLoopAllocFree is the pinned allocation budget of the
// tentpole: once the pools are warm, a full Reset+Run cycle — releases,
// preemptions, completions, sampling — must not allocate at all. This
// mirrors the MPC steady-state budget test from the controller hot path.
func TestSteadyStateEventLoopAllocFree(t *testing.T) {
	cfg := mediumCfg(5)
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil { // warm the pools and buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := s.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Reset+Run allocates %.1f objects/op, want 0", allocs)
	}
}

// TestETFDuplicateStepsRejected covers the Config.validate guard: schedules
// with duplicated step times are ambiguous and must be rejected both at
// construction and at run configuration.
func TestETFDuplicateStepsRejected(t *testing.T) {
	if _, err := sim.StepETF(sim.ETFStep{At: 100, Factor: 2}, sim.ETFStep{At: 100, Factor: 3}); err == nil {
		t.Error("StepETF accepted duplicate step times")
	}
	if _, err := sim.StepETF(sim.ETFStep{At: 0, Factor: 1}, sim.ETFStep{At: 50, Factor: 2}); err != nil {
		t.Errorf("StepETF rejected strictly increasing steps: %v", err)
	}
}
