// Benchmarks the gates and DESIGN.md name: the simulator's steady-state
// Reset+Run cycle with and without the fault layer, and one localized
// DEUCON period at 1024 processors. Paper artifacts are regenerated by
// cmd/euconsim and checked by internal/experiments' TestPaperClaims;
// closed-loop timing is measured by the benchmark in bench/.
package eucon_test

import (
	"testing"

	"github.com/rtsyslab/eucon/internal/fault"
	"github.com/rtsyslab/eucon/internal/mpc"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/workload"
)

// BenchmarkSimulatorSteadyState measures the simulator's steady-state cost:
// one warm Reset+Run cycle on a reused simulator, the per-replication cost
// sweep workers pay. With warm pools and pre-sized trace buffers this is
// allocation-free (internal/sim's TestSteadyStateEventLoopAllocFree gates it
// at 0 allocs/op).
func BenchmarkSimulatorSteadyState(b *testing.B) {
	cfg := sim.Config{
		System:         workload.Medium(),
		SamplingPeriod: workload.SamplingPeriod,
		Periods:        50,
		Jitter:         workload.MediumJitter,
		Seed:           1,
	}
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(); err != nil { // warm the pools and buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorFaultedSteadyState is BenchmarkSimulatorSteadyState
// with the kitchen-sink fault scenario compiled in: the same warm
// Reset+Run cycle, but every period now reads the pre-resolved fault
// tables. Measured against the clean benchmark it isolates the fault
// layer's steady-state overhead. The only steady-state allocations are the per-Reset reseeding of the
// probabilistic injectors' private rand sources; the event loop itself
// stays allocation-free.
func BenchmarkSimulatorFaultedSteadyState(b *testing.B) {
	sc, ok := fault.Lookup("kitchen-sink")
	if !ok {
		b.Fatal("kitchen-sink fault scenario not registered")
	}
	cfg := sim.Config{
		System:         workload.Medium(),
		SamplingPeriod: workload.SamplingPeriod,
		Periods:        50,
		Jitter:         workload.MediumJitter,
		Seed:           1,
		Faults:         sc.Specs,
	}
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(); err != nil { // warm the pools and fault tables
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeuconLocalStepLarge1024 measures one full localized-DEUCON
// period on LARGE-1024 in the pinned regime TestSteadyStateAllocationFree
// gates at 128 processors (`large-deucon` in bench/ prices that size in
// closed loop). At this size the announcement dynamics under pinned
// utilization settle into a small limit cycle where a few locals
// periodically resolve SolveRelaxed; nothing deeper in the ladder may
// fire.
func BenchmarkDeuconLocalStepLarge1024(b *testing.B) {
	op, since := pinnedDeuconPeriod(b, workload.Large1024())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for o, n := range since() {
		if mpc.SolveOutcome(o) > mpc.SolveRelaxed && n != 0 {
			b.Fatalf("degradation rung %d resolved %d local solves during the timed window", o, n)
		}
	}
}
