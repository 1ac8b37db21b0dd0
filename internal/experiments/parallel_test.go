package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/rtsyslab/eucon/internal/metrics"
	"github.com/rtsyslab/eucon/internal/sim"
)

// samePoint compares SweepPoints bit-exactly. SweepPoint is non-comparable
// (Robust.TimeInSpec is a slice), so the determinism tests use DeepEqual,
// which compares float64 fields by their exact values.
func samePoint(a, b SweepPoint) bool { return reflect.DeepEqual(a, b) }

// sweepTestSpec keeps the determinism matrix cheap: SIMPLE closed loop,
// short runs, two replications per point.
func sweepTestSpec(parallelism int) Spec {
	return Spec{
		Workload:     WorkloadSimple,
		Periods:      120,
		Seed:         DefaultSeed,
		Replications: 2,
		Parallelism:  parallelism,
	}
}

// TestSweepParallelDeterministic is the tentpole determinism guarantee:
// SweepParallel must return bit-identical series for 1, 2, and 8 workers,
// and agree bit-exactly with the serial Sweep.
func TestSweepParallelDeterministic(t *testing.T) {
	etfs := []float64{0.5, 1, 2}
	ref, err := Sweep(context.Background(), sweepTestSpec(0), etfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(etfs) {
		t.Fatalf("series has %d points, want %d", len(ref), len(etfs))
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := SweepParallel(context.Background(), sweepTestSpec(workers), etfs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ref {
			if !samePoint(got[i], ref[i]) {
				t.Errorf("workers=%d point %d: %+v, want bit-identical %+v", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestSweepReplicationsPoolWindows checks that replications change the
// summary (more samples pooled) but stay deterministic.
func TestSweepReplicationsPoolWindows(t *testing.T) {
	spec := sweepTestSpec(2)
	one := spec
	one.Replications = 1
	etfs := []float64{1}
	single, err := SweepParallel(context.Background(), one, etfs)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := SweepParallel(context.Background(), spec, etfs)
	if err != nil {
		t.Fatal(err)
	}
	again, err := SweepParallel(context.Background(), spec, etfs)
	if err != nil {
		t.Fatal(err)
	}
	if !samePoint(pooled[0], again[0]) {
		t.Errorf("replicated sweep not deterministic: %+v vs %+v", pooled[0], again[0])
	}
	// SIMPLE is deterministic given a seed, but replications use distinct
	// seeds only for jittered workloads; the pooled mean must still be a
	// valid utilization.
	if pooled[0].P1.Mean <= 0 || pooled[0].P1.Mean > 1 {
		t.Errorf("pooled mean %v out of range", pooled[0].P1.Mean)
	}
	if single[0].SetPoint != pooled[0].SetPoint {
		t.Errorf("set point changed with replications: %v vs %v", single[0].SetPoint, pooled[0].SetPoint)
	}
}

// TestSweepPooledDeterministicMedium extends the determinism matrix to the
// pooled worker path on the jittered workload: MEDIUM with replications
// exercises simulator Reset (rng reseeding, pool recycling) and EUCON
// controller Reset on every worker, and must stay bit-identical across
// 1, 2, and 8 workers and to the serial engine.
func TestSweepPooledDeterministicMedium(t *testing.T) {
	spec := Spec{
		Workload:     WorkloadMedium,
		Periods:      110,
		Seed:         DefaultSeed,
		Replications: 2,
	}
	etfs := []float64{0.5, 1}
	ref, err := Sweep(context.Background(), spec, etfs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		sp := spec
		sp.Parallelism = workers
		got, err := SweepParallel(context.Background(), sp, etfs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ref {
			if !samePoint(got[i], ref[i]) {
				t.Errorf("workers=%d point %d: %+v, want bit-identical %+v", workers, i, got[i], ref[i])
			}
		}
	}
	// Cross-check the first point against fresh construction: Run builds a
	// new controller and simulator per call, so this pins the pooled
	// Reset-reusing engine to the non-pooled path bit-exactly.
	var pooled []float64
	for rep := 0; rep < spec.Replications; rep++ {
		tr, err := Run(context.Background(), Spec{
			Workload: WorkloadMedium,
			Periods:  spec.Periods,
			ETF:      sim.ConstantETF(etfs[0]),
			Seed:     spec.Seed + int64(rep),
		})
		if err != nil {
			t.Fatal(err)
		}
		pooled = append(pooled, metrics.Window(metrics.Column(tr.Utilization, 0), WindowStart, WindowEnd)...)
	}
	if sum := metrics.Summarize(pooled); sum != ref[0].P1 {
		t.Errorf("fresh-construction summary %+v != pooled sweep point %+v", sum, ref[0].P1)
	}
}

// TestSweepPooledDeterministicDeucon covers the remaining shipped
// controller's Reset path: a reused DEUCON controller (local MPC state and
// the announced-plan exchange cleared between jobs) must reproduce the
// serial series bit-exactly.
func TestSweepPooledDeterministicDeucon(t *testing.T) {
	spec := Spec{
		Workload:   WorkloadMedium,
		Controller: KindDEUCON,
		Periods:    110, // the measurement window opens at 100 Ts
		Seed:       DefaultSeed,
	}
	etfs := []float64{0.5, 1}
	ref, err := Sweep(context.Background(), spec, etfs)
	if err != nil {
		t.Fatal(err)
	}
	sp := spec
	sp.Parallelism = 2
	got, err := SweepParallel(context.Background(), sp, etfs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if !samePoint(got[i], ref[i]) {
			t.Errorf("point %d: %+v, want bit-identical %+v", i, got[i], ref[i])
		}
	}
}

// TestSweepParallelCanceled verifies a canceled context aborts the sweep
// with context.Canceled surfaced.
func TestSweepParallelCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SweepParallel(ctx, sweepTestSpec(4), Fig4ETFs()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := Sweep(ctx, sweepTestSpec(0), Fig4ETFs()); !errors.Is(err, context.Canceled) {
		t.Fatalf("serial err = %v, want context.Canceled", err)
	}
}

// TestRunCanceled verifies the unified Run surfaces cancellation from the
// simulator's sampling-boundary checks.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Spec{Workload: WorkloadSimple}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunSpecDefaults checks the zero-value defaults of Spec and the
// workload validation.
func TestRunSpecDefaults(t *testing.T) {
	tr, err := Run(context.Background(), Spec{Workload: WorkloadSimple, Periods: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Controller; got != "EUCON" {
		t.Errorf("default controller = %q, want EUCON", got)
	}
	if len(tr.Utilization) != 10 {
		t.Errorf("trace has %d periods, want 10", len(tr.Utilization))
	}
	if _, err := Run(context.Background(), Spec{}); err == nil {
		t.Error("missing workload accepted")
	}
	if _, err := SweepParallel(context.Background(), Spec{}, []float64{1}); err == nil {
		t.Error("sweep with missing workload accepted")
	}
}

// TestWorkloadKindString covers the Stringer.
func TestWorkloadKindString(t *testing.T) {
	if WorkloadSimple.String() != "SIMPLE" || WorkloadMedium.String() != "MEDIUM" {
		t.Error("WorkloadKind.String mismatch")
	}
	if got := WorkloadKind(42).String(); got != "WorkloadKind(42)" {
		t.Errorf("unknown kind String = %q", got)
	}
	if KindDEUCON.String() != "DEUCON" {
		t.Errorf("KindDEUCON String = %q", KindDEUCON.String())
	}
}
