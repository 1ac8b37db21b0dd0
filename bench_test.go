// Benchmark harness: one benchmark per table and figure of the EUCON
// paper's evaluation, plus ablation benchmarks for the design choices
// DESIGN.md calls out. Each benchmark regenerates its artifact's data and
// reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// doubles as a compact reproduction report. cmd/euconsim prints the full
// data series for every artifact; EXPERIMENTS.md records paper-vs-measured.
//
// Benchmarks use DefaultSeed and (for the heavier sweeps) a representative
// subset of the paper's x-axis so a full -bench=. pass stays in the
// minutes range; the euconsim binary runs the complete grids.
package eucon_test

import (
	"context"
	"math/rand"
	"testing"

	"github.com/rtsyslab/eucon/internal/baseline"
	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/deucon"
	"github.com/rtsyslab/eucon/internal/experiments"
	"github.com/rtsyslab/eucon/internal/fault"
	"github.com/rtsyslab/eucon/internal/mat"
	"github.com/rtsyslab/eucon/internal/metrics"
	"github.com/rtsyslab/eucon/internal/mpc"
	"github.com/rtsyslab/eucon/internal/qp"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// --- Tables ---

// BenchmarkTable1Simple regenerates Table 1 (the SIMPLE workload
// definition) and its derived allocation matrix.
func BenchmarkTable1Simple(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := workload.Simple()
		if err := sys.Validate(); err != nil {
			b.Fatal(err)
		}
		f := sys.AllocationMatrix()
		if f.At(0, 0) != 35 {
			b.Fatal("Table 1 mismatch")
		}
	}
}

// BenchmarkTable2Controllers regenerates Table 2: construction of both
// controllers with the published parameters.
func BenchmarkTable2Controllers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.New(workload.Simple(), nil, workload.SimpleController()); err != nil {
			b.Fatal(err)
		}
		if _, err := core.New(workload.Medium(), nil, workload.MediumController()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Stability analysis (paper §6.2) ---

// BenchmarkStabilityRegionSimple computes the critical uniform gain of the
// SIMPLE closed loop (paper: 5.95 analytic, 6.5–7 empirical).
func BenchmarkStabilityRegionSimple(b *testing.B) {
	var g float64
	for i := 0; i < b.N; i++ {
		var err error
		g, err = experiments.SimpleCriticalGain()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(g, "critical-gain")
}

// --- Figures ---

// BenchmarkFig3aSimpleEtf05 regenerates Figure 3(a): SIMPLE at etf = 0.5
// converging to the 0.828 set point.
func BenchmarkFig3aSimpleEtf05(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		tr, err := experiments.RunSimple(0.5, experiments.DefaultPeriods, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		mean = metrics.Mean(metrics.Window(metrics.Column(tr.Utilization, 0), 100, 300))
	}
	b.ReportMetric(mean, "mean-u1")
}

// BenchmarkFig3bSimpleEtf7 regenerates Figure 3(b): SIMPLE at etf = 7
// (beyond the stability bound — oscillation).
func BenchmarkFig3bSimpleEtf7(b *testing.B) {
	var std float64
	for i := 0; i < b.N; i++ {
		tr, err := experiments.RunSimple(7, experiments.DefaultPeriods, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		std = metrics.StdDev(metrics.Window(metrics.Column(tr.Utilization, 0), 100, 300))
	}
	b.ReportMetric(std, "std-u1")
}

// fig4BenchETFs is the representative Figure 4 subset swept by the
// benchmarks.
var fig4BenchETFs = []float64{0.5, 1, 2, 3, 7}

// fig5BenchETFs is the representative Figure 5 subset swept by the
// benchmarks.
var fig5BenchETFs = []float64{0.1, 0.5, 1, 2}

func benchFig4Sweep(b *testing.B, parallelism int) {
	var acceptable int
	for i := 0; i < b.N; i++ {
		pts, err := experiments.SweepParallel(context.Background(), experiments.Spec{
			Workload:    experiments.WorkloadSimple,
			Seed:        experiments.DefaultSeed,
			Parallelism: parallelism,
		}, fig4BenchETFs)
		if err != nil {
			b.Fatal(err)
		}
		acceptable = 0
		for _, p := range pts {
			if p.Acceptable {
				acceptable++
			}
		}
	}
	b.ReportMetric(float64(acceptable), "acceptable-points")
}

// BenchmarkFig4SimpleSweep regenerates the Figure 4 sweep through the
// worker-pool engine (GOMAXPROCS workers).
func BenchmarkFig4SimpleSweep(b *testing.B) { benchFig4Sweep(b, 0) }

// BenchmarkFig4SimpleSweepSerial is the single-worker baseline for the
// sweep-engine speedup comparison.
func BenchmarkFig4SimpleSweepSerial(b *testing.B) { benchFig4Sweep(b, 1) }

func benchFig5Sweep(b *testing.B, parallelism int) {
	if testing.Short() {
		b.Skip("MEDIUM sweep skipped in -short mode")
	}
	var worstErr float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.SweepParallel(context.Background(), experiments.Spec{
			Workload:    experiments.WorkloadMedium,
			Seed:        experiments.DefaultSeed,
			Parallelism: parallelism,
		}, fig5BenchETFs)
		if err != nil {
			b.Fatal(err)
		}
		worstErr = 0
		for _, p := range pts {
			if e := p.P1.Mean - p.SetPoint; e > worstErr || -e > worstErr {
				if e < 0 {
					e = -e
				}
				worstErr = e
			}
		}
	}
	b.ReportMetric(worstErr, "worst-mean-error")
}

// BenchmarkFig5MediumSweep regenerates the Figure 5 sweep through the
// worker-pool engine (GOMAXPROCS workers); the OPEN comparison line is
// computed alongside.
func BenchmarkFig5MediumSweep(b *testing.B) { benchFig5Sweep(b, 0) }

// BenchmarkFig5MediumSweepSerial is the single-worker baseline for the
// sweep-engine speedup comparison.
func BenchmarkFig5MediumSweepSerial(b *testing.B) { benchFig5Sweep(b, 1) }

// BenchmarkFig6OpenDynamic regenerates Figure 6: MEDIUM under OPEN with
// execution-time steps — utilization tracks the load instead of the set
// point.
func BenchmarkFig6OpenDynamic(b *testing.B) {
	if testing.Short() {
		b.Skip("MEDIUM dynamic run skipped in -short mode")
	}
	var swing float64
	for i := 0; i < b.N; i++ {
		tr, err := experiments.RunMediumDynamic(experiments.KindOPEN, experiments.DefaultPeriods, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		u1 := metrics.Column(tr.Utilization, 0)
		hi := metrics.Mean(metrics.Window(u1, 150, 200))
		lo := metrics.Mean(metrics.Window(u1, 250, 300))
		swing = hi - lo
	}
	b.ReportMetric(swing, "utilization-swing")
}

// BenchmarkFig7EuconDynamic regenerates Figure 7: MEDIUM under EUCON with
// execution-time steps — re-convergence to the set points.
func BenchmarkFig7EuconDynamic(b *testing.B) {
	if testing.Short() {
		b.Skip("MEDIUM dynamic run skipped in -short mode")
	}
	var settle float64
	for i := 0; i < b.N; i++ {
		tr, err := experiments.RunMediumDynamic(experiments.KindEUCON, experiments.DefaultPeriods, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		bp := workload.Medium().DefaultSetPoints()[0]
		seg := metrics.MovingAverage(metrics.Window(metrics.Column(tr.Utilization, 0), 100, 200), 5)
		settle = float64(metrics.SettlingTime(seg, bp, 0.05))
	}
	b.ReportMetric(settle, "settling-Ts")
}

// BenchmarkFig8EuconRates regenerates Figure 8: the task-rate trajectories
// of the Figure 7 run (rates drop on the +80% step, rise on the −67%
// step).
func BenchmarkFig8EuconRates(b *testing.B) {
	if testing.Short() {
		b.Skip("MEDIUM dynamic run skipped in -short mode")
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		tr, err := experiments.RunMediumDynamic(experiments.KindEUCON, experiments.DefaultPeriods, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		r1 := metrics.Mean(metrics.Column(tr.Rates, 0)[60:100])
		r2 := metrics.Mean(metrics.Column(tr.Rates, 0)[160:200])
		ratio = r2 / r1
	}
	b.ReportMetric(ratio, "rate-ratio-after-step")
}

// --- Ablations (DESIGN.md §5) ---

func simpleClosedLoopStd(b *testing.B, cfg core.Config, etf float64) float64 {
	b.Helper()
	sys := workload.Simple()
	ctrl, err := core.New(sys, nil, cfg)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.New(sim.Config{
		System:         sys,
		SamplingPeriod: workload.SamplingPeriod,
		Periods:        200,
		Controller:     ctrl,
		ETF:            sim.ConstantETF(etf),
		Seed:           experiments.DefaultSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := s.Run()
	if err != nil {
		b.Fatal(err)
	}
	return metrics.StdDev(metrics.Window(metrics.Column(tr.Utilization, 0), 100, 200))
}

// BenchmarkAblationHorizons compares oscillation at etf = 2 under the
// short (P=2, M=1) and long (P=4, M=2) horizons.
func BenchmarkAblationHorizons(b *testing.B) {
	var short, long float64
	for i := 0; i < b.N; i++ {
		short = simpleClosedLoopStd(b, core.Config{PredictionHorizon: 2, ControlHorizon: 1, TrefOverTs: 4}, 2)
		long = simpleClosedLoopStd(b, core.Config{PredictionHorizon: 4, ControlHorizon: 2, TrefOverTs: 4}, 2)
	}
	b.ReportMetric(short, "std-P2M1")
	b.ReportMetric(long, "std-P4M2")
}

// BenchmarkAblationTref compares convergence speed and oscillation for
// Tref/Ts ∈ {2, 4, 8} (paper §6.3: faster reference → faster convergence,
// more oscillation).
func BenchmarkAblationTref(b *testing.B) {
	stds := make([]float64, 3)
	trefs := []float64{2, 4, 8}
	for i := 0; i < b.N; i++ {
		for j, tref := range trefs {
			stds[j] = simpleClosedLoopStd(b, core.Config{PredictionHorizon: 2, ControlHorizon: 1, TrefOverTs: tref}, 2)
		}
	}
	b.ReportMetric(stds[0], "std-Tref2")
	b.ReportMetric(stds[1], "std-Tref4")
	b.ReportMetric(stds[2], "std-Tref8")
}

// BenchmarkAblationOutputConstraints compares steady-state overshoot with
// and without the hard u ≤ B constraints at etf = 1.
func BenchmarkAblationOutputConstraints(b *testing.B) {
	overshoot := func(disable bool) float64 {
		sys := workload.Simple()
		ctrl, err := core.New(sys, nil, core.Config{
			PredictionHorizon: 2, ControlHorizon: 1, TrefOverTs: 4,
			DisableOutputConstraints: disable,
		})
		if err != nil {
			b.Fatal(err)
		}
		s, err := sim.New(sim.Config{
			System:         sys,
			SamplingPeriod: workload.SamplingPeriod,
			Periods:        200,
			Controller:     ctrl,
			ETF:            sim.ConstantETF(1),
			Seed:           experiments.DefaultSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		tr, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, u := range tr.Utilization[100:] {
			if d := u[0] - 0.829; d > worst {
				worst = d
			}
		}
		return worst
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = overshoot(false)
		without = overshoot(true)
	}
	b.ReportMetric(with, "overshoot-constrained")
	b.ReportMetric(without, "overshoot-unconstrained")
}

// BenchmarkAblationPessimisticEstimates verifies the paper's §6.3 tuning
// guidance: overestimated execution times (gain < 1) oscillate less than
// underestimated ones (gain > 1).
func BenchmarkAblationPessimisticEstimates(b *testing.B) {
	var pessimistic, optimistic float64
	for i := 0; i < b.N; i++ {
		pessimistic = simpleClosedLoopStd(b, core.Config{}, 0.5) // etf < 1: estimates pessimistic
		optimistic = simpleClosedLoopStd(b, core.Config{}, 3)    // etf > 1: estimates optimistic
	}
	b.ReportMetric(pessimistic, "std-etf0.5")
	b.ReportMetric(optimistic, "std-etf3")
}

// --- Component micro-benchmarks (the §6.1 complexity claim) ---

// BenchmarkControllerStepSimple measures one MPC invocation on SIMPLE
// (3 tasks, 2 processors, P=2, M=1).
func BenchmarkControllerStepSimple(b *testing.B) {
	sys := workload.Simple()
	ctrl, err := core.New(sys, nil, workload.SimpleController())
	if err != nil {
		b.Fatal(err)
	}
	u := []float64{0.5, 0.6}
	rates := sys.InitialRates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.Step(i, u, rates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExplicitCompileMedium measures the offline compile: the
// one-time cost of enumerating the MEDIUM law's critical regions.
func BenchmarkExplicitCompileMedium(b *testing.B) {
	sys := workload.Medium()
	cfg := workload.MediumController()
	cfg.Explicit = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(sys, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllerStepLarge measures a 32-task / 8-processor random
// workload, probing the scaling limit the paper flags for future work.
func BenchmarkControllerStepLarge(b *testing.B) {
	rng := newRand(11)
	sys, err := workload.Random(workload.RandomConfig{
		Processors:     8,
		EndToEndTasks:  24,
		LocalTasks:     8,
		MaxChainLength: 4,
		MinCost:        10,
		MaxCost:        50,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := core.New(sys, nil, core.Config{PredictionHorizon: 4, ControlHorizon: 2, TrefOverTs: 4})
	if err != nil {
		b.Fatal(err)
	}
	u := make([]float64, 8)
	for i := range u {
		u[i] = 0.5
	}
	rates := sys.InitialRates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.Step(i, u, rates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQPSolver measures the active-set solver on an MPC-shaped
// problem (24 variables, 64 constraints).
func BenchmarkQPSolver(b *testing.B) {
	rng := newRand(5)
	const n, m = 24, 64
	cm := mat.New(n+n, n)
	d := make([]float64, 2*n)
	for i := 0; i < 2*n; i++ {
		d[i] = rng.NormFloat64()
		for j := 0; j < n; j++ {
			cm.Set(i, j, rng.NormFloat64())
		}
	}
	a := mat.New(m, n)
	bb := make([]float64, m)
	for i := 0; i < m; i++ {
		bb[i] = 1 + rng.Float64()
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	x0 := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qp.SolveLSI(cm, d, a, bb, x0, qp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQPSolverReused measures the same problem through a prepared LSI:
// the Hessian factorization is cached and scratch buffers are reused across
// solves, the MPC controller's steady-state path.
func BenchmarkQPSolverReused(b *testing.B) {
	rng := newRand(5)
	const n, m = 24, 64
	cm := mat.New(n+n, n)
	d := make([]float64, 2*n)
	for i := 0; i < 2*n; i++ {
		d[i] = rng.NormFloat64()
		for j := 0; j < n; j++ {
			cm.Set(i, j, rng.NormFloat64())
		}
	}
	a := mat.New(m, n)
	bb := make([]float64, m)
	for i := 0; i < m; i++ {
		bb[i] = 1 + rng.Float64()
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	x0 := make([]float64, n)
	solver, err := qp.NewLSI(cm, qp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(d, a, bb, x0); err != nil {
			b.Fatal(err)
		}
	}
}

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

// BenchmarkGainsComputation measures the stability-analysis gain
// extraction used by cmd/stability.
func BenchmarkGainsComputation(b *testing.B) {
	ctrl, err := core.New(workload.Medium(), nil, workload.MediumController())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ctrl.Gains(); err != nil {
			b.Fatal(err)
		}
	}
}

// newRand returns a deterministic source for benchmark inputs.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// --- Extension benchmarks: decentralized control and PID comparator ---

// BenchmarkDeuconVsEuconMedium compares centralized EUCON and
// decentralized DEUCON steady-state tracking error on MEDIUM at etf = 1.
func BenchmarkDeuconVsEuconMedium(b *testing.B) {
	if testing.Short() {
		b.Skip("MEDIUM comparison runs skipped in -short mode")
	}
	runWith := func(ctrl sim.Controller) float64 {
		sys := workload.Medium()
		s, err := sim.New(sim.Config{
			System:         sys,
			SamplingPeriod: workload.SamplingPeriod,
			Periods:        200,
			Controller:     ctrl,
			ETF:            sim.ConstantETF(1),
			Jitter:         workload.MediumJitter,
			Seed:           experiments.DefaultSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		tr, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		bset := sys.DefaultSetPoints()
		var worst float64
		for p := 0; p < sys.Processors; p++ {
			m := metrics.Mean(metrics.Window(metrics.Column(tr.Utilization, p), 120, 200))
			if d := m - bset[p]; d > worst {
				worst = d
			} else if -d > worst {
				worst = -d
			}
		}
		return worst
	}
	var central, decentral float64
	for i := 0; i < b.N; i++ {
		e, err := core.New(workload.Medium(), nil, workload.MediumController())
		if err != nil {
			b.Fatal(err)
		}
		central = runWith(e)
		d, err := deucon.New(workload.Medium(), nil, deucon.Config{})
		if err != nil {
			b.Fatal(err)
		}
		decentral = runWith(d)
	}
	b.ReportMetric(central, "worst-err-eucon")
	b.ReportMetric(decentral, "worst-err-deucon")
}

// --- LARGE scaling benchmarks ---

// largeBenchETFs is the execution-time-factor grid the LARGE Figure 4
// analogues sweep: underload, nominal, overload.
var largeBenchETFs = []float64{0.5, 1, 2}

// benchLargeCentralizedStep measures one interior step of the centralized
// MPC on LARGE-128 (640 tasks), with the Hessian factorization either
// structure-exploiting (banded after fill-reducing ordering) or forced
// dense. The pair quantifies what the banded backend buys per period at a
// scale where the dense path still runs at all; at LARGE-1024 the dense
// problem matrices alone exceed half a gigabyte, so only the localized
// controller is benchmarked there.
func benchLargeCentralizedStep(b *testing.B, forceDense bool) {
	sys := workload.Large128()
	cfg := workload.LargeController()
	rmin, rmax := sys.RateBounds()
	ctrl, err := mpc.New(sys.AllocationMatrix(), sys.DefaultSetPoints(), rmin, rmax, mpc.Config{
		PredictionHorizon: cfg.PredictionHorizon,
		ControlHorizon:    cfg.ControlHorizon,
		TrefOverTs:        cfg.TrefOverTs,
		Solver:            qp.Options{ForceDense: forceDense},
	})
	if err != nil {
		b.Fatal(err)
	}
	banded, bw := ctrl.Structured()
	if banded == forceDense {
		b.Fatalf("structured = %v with forceDense = %v", banded, forceDense)
	}
	setPoints := sys.DefaultSetPoints()
	u := make([]float64, sys.Processors)
	for i := range u {
		u[i] = setPoints[i] * 0.98
	}
	rates := make([]float64, len(rmin))
	for i := range rates {
		rates[i] = (rmin[i] + rmax[i]) / 2
	}
	out := ctrl.NewStepResult()
	if err := ctrl.StepTo(out, u, rates); err != nil {
		b.Fatal(err)
	}
	if out.Outcome != mpc.SolveOK {
		b.Fatalf("warm step outcome = %v, want SolveOK", out.Outcome)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctrl.StepTo(out, u, rates); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bw), "bandwidth")
}

// BenchmarkControllerStepLarge128 is the structured-solver step at 128
// processors.
func BenchmarkControllerStepLarge128(b *testing.B) { benchLargeCentralizedStep(b, false) }

// BenchmarkControllerStepLarge128Dense is the same step with the banded
// backend disabled — the dense O(n²)-per-solve baseline the structured
// path replaces.
func BenchmarkControllerStepLarge128Dense(b *testing.B) { benchLargeCentralizedStep(b, true) }

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

// benchFig4Large is the Figure 4 analogue at scale: a closed-loop
// execution-time-factor sweep of the localized DEUCON controller over a
// LARGE workload.
func benchFig4Large(b *testing.B, wl experiments.WorkloadKind) {
	if testing.Short() {
		b.Skip("LARGE sweep skipped in -short mode")
	}
	var acceptable int
	for i := 0; i < b.N; i++ {
		pts, err := experiments.SweepParallel(context.Background(), experiments.Spec{
			Workload:   wl,
			Controller: experiments.KindDEUCON,
			Periods:    120,
			Seed:       experiments.DefaultSeed,
		}, largeBenchETFs)
		if err != nil {
			b.Fatal(err)
		}
		acceptable = 0
		for _, p := range pts {
			if p.Acceptable {
				acceptable++
			}
		}
	}
	b.ReportMetric(float64(acceptable), "acceptable-points")
}

// BenchmarkFig4Large128 sweeps LARGE-128 under localized DEUCON.
func BenchmarkFig4Large128(b *testing.B) { benchFig4Large(b, experiments.WorkloadLarge128) }

// BenchmarkFig4Large1024 sweeps LARGE-1024 under localized DEUCON — 8× the
// processors of LARGE-128; near-linear scaling keeps its wall time within
// roughly that factor of the 128-processor sweep.
func BenchmarkFig4Large1024(b *testing.B) { benchFig4Large(b, experiments.WorkloadLarge1024) }

// BenchmarkAblationPIDCoupling contrasts decoupled PID control with the
// MIMO MPC on the coupling-trap workload: the steady-state error PID
// leaves on P1 is the paper's motivation for model predictive control.
func BenchmarkAblationPIDCoupling(b *testing.B) {
	trap := func() *task.System {
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
	errP1 := func(ctrl sim.Controller) float64 {
		s, err := sim.New(sim.Config{
			System:         trap(),
			SamplingPeriod: workload.SamplingPeriod,
			Periods:        200,
			Controller:     ctrl,
			ETF:            sim.ConstantETF(1),
			Seed:           experiments.DefaultSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		tr, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		m := metrics.Mean(metrics.Window(metrics.Column(tr.Utilization, 0), 100, 200))
		if m > 0.828 {
			return m - 0.828
		}
		return 0.828 - m
	}
	var pidErr, mpcErr float64
	for i := 0; i < b.N; i++ {
		p, err := baseline.NewPID(trap(), []float64{0.828, 0.828}, baseline.PIDConfig{})
		if err != nil {
			b.Fatal(err)
		}
		pidErr = errP1(p)
		e, err := core.New(trap(), []float64{0.828, 0.828}, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		mpcErr = errP1(e)
	}
	b.ReportMetric(pidErr, "P1-err-pid")
	b.ReportMetric(mpcErr, "P1-err-mpc")
}
