package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rtsyslab/eucon/internal/deucon"
	"github.com/rtsyslab/eucon/internal/fault"
	"github.com/rtsyslab/eucon/internal/metrics"
	"github.com/rtsyslab/eucon/internal/mpc"
	"github.com/rtsyslab/eucon/internal/workload"
)

// sweepDigest replicates cmd/euconsim's -sweep-digest hash bit-for-bit:
// an FNV-64a over the full-precision point series. The format must not
// change, or the committed golden digests (and scripts/check.sh) break.
func sweepDigest(pts []SweepPoint) string {
	h := fnv.New64a()
	for _, p := range pts {
		fmt.Fprintf(h, "%.17g %.17g %.17g %.17g %v %.17g\n",
			p.ETF, p.P1.Mean, p.P1.StdDev, p.SetPoint, p.Acceptable, p.OpenExpected)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func mustScenario(t *testing.T, name string) []fault.Spec {
	t.Helper()
	sc, ok := fault.Lookup(name)
	if !ok {
		t.Fatalf("fault scenario %q not registered", name)
	}
	return sc.Specs
}

// faultedSweepSpec drives the faulted determinism matrix: the jittered
// MEDIUM workload with the combined kitchen-sink scenario, replications,
// and simulator/controller reuse all in play at once.
func faultedSweepSpec(t *testing.T, parallelism int) Spec {
	return Spec{
		Workload:     WorkloadMedium,
		Periods:      120,
		Seed:         DefaultSeed,
		Replications: 2,
		Parallelism:  parallelism,
		Faults:       mustScenario(t, "kitchen-sink"),
	}
}

// TestFaultedSweepDeterministic extends the determinism matrix to faulted
// runs: an identical Spec (including its Faults) must produce bit-identical
// series — and digests — for the serial engine and 1, 2, and 8 workers,
// with Reset-reusing workers replaying the same pre-resolved fault
// schedules every time.
func TestFaultedSweepDeterministic(t *testing.T) {
	etfs := []float64{0.5, 1}
	ref, err := Sweep(context.Background(), faultedSweepSpec(t, 0), etfs)
	if err != nil {
		t.Fatal(err)
	}
	refDigest := sweepDigest(ref)
	for _, workers := range []int{1, 2, 8} {
		got, err := SweepParallel(context.Background(), faultedSweepSpec(t, workers), etfs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ref {
			if !samePoint(got[i], ref[i]) {
				t.Errorf("workers=%d point %d: %+v, want bit-identical %+v", workers, i, got[i], ref[i])
			}
		}
		if d := sweepDigest(got); d != refDigest {
			t.Errorf("workers=%d digest %s, want %s", workers, d, refDigest)
		}
	}
	// The scenario must actually bite: a clean sweep over the same grid
	// cannot produce the same digest.
	clean := faultedSweepSpec(t, 0)
	clean.Faults = nil
	cleanPts, err := Sweep(context.Background(), clean, etfs)
	if err != nil {
		t.Fatal(err)
	}
	if sweepDigest(cleanPts) == refDigest {
		t.Error("faulted sweep digest equals the clean sweep digest; faults did not affect the run")
	}
}

// sweepGoldens reads the per-sweep digests that
// scripts/golden/sweep-fig4-fig5.digest pins, keyed by sweep name, so the
// tests here compare against the same file cmd/euconsim's golden test does
// rather than a second copy of the values.
func sweepGoldens(t *testing.T) map[string]string {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("..", "..", "scripts", "golden", "sweep-fig4-fig5.digest"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		var rec struct{ Sweep, Digest string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		want[rec.Sweep] = rec.Digest
	}
	return want
}

// TestNoFaultSweepGoldenDigests pins the no-fault science: with Faults
// empty, the Figure 4 and Figure 5 sweep digests must match the goldens
// committed before the fault layer existed, proving the fault hooks are
// invisible when disabled.
func TestNoFaultSweepGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper-scale sweeps; skipped in -short")
	}
	want := sweepGoldens(t)
	for _, g := range []struct {
		name     string
		workload WorkloadKind
		etfs     []float64
	}{
		{"fig4", WorkloadSimple, Fig4ETFs()},
		{"fig5", WorkloadMedium, Fig5ETFs()},
	} {
		pts, err := SweepParallel(context.Background(), Spec{
			Workload: g.workload,
			Seed:     DefaultSeed,
			Faults:   nil,
		}, g.etfs)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if d := sweepDigest(pts); want[g.name] == "" || d != want[g.name] {
			t.Errorf("%s digest %s, want golden %q", g.name, d, want[g.name])
		}
	}
}

// TestCrashRecoveryReconvergence is the proc2-crash-recover acceptance run:
// processor P2 of SIMPLE is down for periods [100, 140); its monitor must
// report saturation throughout the outage, and the closed loop must pull
// every processor back into the ±InSpecTol band within a bounded number of
// periods after recovery.
func TestCrashRecoveryReconvergence(t *testing.T) {
	tr, err := Run(context.Background(), Spec{
		Workload: WorkloadSimple,
		Periods:  DefaultPeriods,
		Seed:     DefaultSeed,
		Faults:   mustScenario(t, "proc2-crash-recover"),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := Spec{Workload: WorkloadSimple}.workload()
	if err != nil {
		t.Fatal(err)
	}
	setPoints := sys.DefaultSetPoints()

	// During the outage the crashed processor's monitor reports u = 1 and
	// the trace records the down processor.
	for k := 100; k < 140; k++ {
		if u := tr.Utilization[k][1]; u != 1 {
			t.Fatalf("period %d: crashed P2 reports u=%g, want saturated 1", k, u)
		}
		if tr.Periods[k].ProcsDown == 0 {
			t.Fatalf("period %d: ProcsDown not recorded during outage", k)
		}
	}
	if tr.Stats.CrashShedJobs == 0 {
		t.Error("no jobs shed during a 40-period outage")
	}

	// After recovery every processor must re-converge: the smoothed
	// utilization enters and stays in the ±InSpecTol band.
	worst := -1
	for p, sp := range setPoints {
		tail := metrics.Column(tr.Utilization, p)[140:]
		st := metrics.SettlingTime(metrics.MovingAverage(tail, settleSmooth), sp, InSpecTol)
		if st < 0 {
			t.Fatalf("P%d never re-converged after the crash window", p+1)
		}
		if st > worst {
			worst = st
		}
	}
	t.Logf("crash recovery: worst settling %d periods after recovery", worst)
	if worst > 60 {
		t.Errorf("re-convergence took %d periods after recovery, want <= 60", worst)
	}

	// The post-recovery steady state is healthy: full time-in-spec over the
	// last 100 periods and bounded overshoot.
	rb := TraceRobustness(tr, setPoints, 200, 300)
	for p, f := range rb.TimeInSpec {
		if f < 0.95 {
			t.Errorf("P%d time-in-spec %.3f over periods [200,300), want >= 0.95", p+1, f)
		}
	}
	t.Logf("crash recovery: tail robustness %+v", rb)
}

// TestSpecFaultsValidation checks that invalid fault specs surface as
// errors from every entry point rather than being silently ignored.
func TestSpecFaultsValidation(t *testing.T) {
	bad := []fault.Spec{{Kind: fault.ProcCrash, Proc: 99}}
	if _, err := Run(context.Background(), Spec{Workload: WorkloadSimple, Periods: 10, Faults: bad}); err == nil {
		t.Error("Run accepted an out-of-range crash target")
	}
	if _, err := SweepParallel(context.Background(), Spec{Workload: WorkloadSimple, Periods: 10, Faults: bad}, []float64{1}); err == nil {
		t.Error("SweepParallel accepted an out-of-range crash target")
	}
	if _, err := Sweep(context.Background(), Spec{Workload: WorkloadSimple, Periods: 10, Faults: bad}, []float64{1}); err == nil {
		t.Error("Sweep accepted an out-of-range crash target")
	}
}

// TestFaultedRunDegradationVisible checks the trace surfaces the
// degradation telemetry end to end: a lossy feedback path makes the
// controller hold samples, and the per-period counters record both the
// faults and the policy that absorbed them.
func TestFaultedRunDegradationVisible(t *testing.T) {
	tr, err := Run(context.Background(), Spec{
		Workload: WorkloadSimple,
		Periods:  80,
		Seed:     DefaultSeed,
		Faults: []fault.Spec{
			{Kind: fault.FeedbackDrop, Proc: fault.All, Magnitude: 0.3, Seed: 7},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	missing, held := 0, 0
	for _, ps := range tr.Periods {
		missing += ps.FeedbackMissing
		held += ps.HeldSamples
	}
	if missing == 0 {
		t.Fatal("30% feedback loss over 80 periods produced no missing samples")
	}
	if held == 0 {
		t.Error("controller held no samples despite missing feedback")
	}
}

// TestCrashDuringFeedbackDropCompound drives the compound storm the
// containment pipeline exists for: a processor crash in the middle of a
// lossy-feedback window, so the controller is flying partially blind while
// the plant saturates. The run must complete with zero controller errors
// and zero runtime-guard firings (containment holds one layer down), and
// once both faults clear the loop must re-converge within a bounded number
// of periods.
func TestCrashDuringFeedbackDropCompound(t *testing.T) {
	tr, err := Run(context.Background(), Spec{
		Workload: WorkloadSimple,
		Periods:  DefaultPeriods,
		Seed:     DefaultSeed,
		Faults: []fault.Spec{
			{Kind: fault.FeedbackDrop, Proc: fault.All, Start: 80, Stop: 160, Magnitude: 0.3, Seed: 7},
			{Kind: fault.ProcCrash, Proc: 1, Start: 100, Stop: 140},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Utilization); got != DefaultPeriods {
		t.Fatalf("run truncated: %d of %d periods", got, DefaultPeriods)
	}

	// Invariant guards must stay silent: any firing is a contained
	// controller bug escaping the layers below.
	st := tr.Stats
	if st.GuardRateFirings != 0 || st.GuardUtilFirings != 0 || st.GuardPoolFirings != 0 {
		t.Fatalf("runtime guards fired (rate=%d util=%d pool=%d) under the compound fault",
			st.GuardRateFirings, st.GuardUtilFirings, st.GuardPoolFirings)
	}
	if st.ControllerErrors != 0 {
		t.Fatalf("controller returned errors in %d periods", st.ControllerErrors)
	}

	// The degradation machinery, not luck, carried the run: the lossy
	// window must show both the fault and the hold-last-sample policy.
	missing, held := 0, 0
	for _, ps := range tr.Periods {
		missing += ps.FeedbackMissing
		held += ps.HeldSamples
	}
	if missing == 0 || held == 0 {
		t.Fatalf("compound fault left no degradation trail (missing=%d held=%d)", missing, held)
	}
	if tr.Stats.CrashShedJobs == 0 {
		t.Error("no jobs shed during the 40-period outage")
	}

	// Re-convergence bound: after both windows close at period 160, every
	// processor settles back into the ±InSpecTol band within 60 periods.
	sys, _, err := Spec{Workload: WorkloadSimple}.workload()
	if err != nil {
		t.Fatal(err)
	}
	for p, sp := range sys.DefaultSetPoints() {
		tail := metrics.Column(tr.Utilization, p)[160:]
		st := metrics.SettlingTime(metrics.MovingAverage(tail, settleSmooth), sp, InSpecTol)
		if st < 0 {
			t.Fatalf("P%d never re-converged after the compound fault", p+1)
		}
		if st > 60 {
			t.Errorf("P%d re-convergence took %d periods after recovery, want <= 60", p+1, st)
		}
	}
}

// TestFeedbackLossReachesNoController pins that every controller, not just
// EUCON, gets the simulator's missing-feedback policy: under
// feedback-loss-10pct PID never emits a rate the guard must reject (a raw
// NaN would poison its integral from the first lost sample), and DEUCON's
// local solves never fall to the ladder's hold rung (a raw NaN sends them
// there).
func TestFeedbackLossReachesNoController(t *testing.T) {
	loss := mustScenario(t, "feedback-loss-10pct")
	tr, err := Run(context.Background(), Spec{Workload: WorkloadSimple, Controller: KindPID, Seed: DefaultSeed, Faults: loss})
	if err != nil {
		t.Fatal(err)
	}
	if n := tr.Stats.GuardRateFirings; n != 0 {
		t.Errorf("PID on SIMPLE: %d rate-guard firings, want 0", n)
	}

	dc, err := deucon.New(workload.Medium(), nil, deucon.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err = Run(context.Background(), Spec{Workload: WorkloadMedium, Custom: dc, Seed: DefaultSeed, Faults: loss})
	if err != nil {
		t.Fatal(err)
	}
	if n := dc.OutcomeCounts()[mpc.SolveHeld]; n != 0 {
		t.Errorf("DEUCON on MEDIUM: %d local solves held, want 0", n)
	}
	held := 0
	for _, ps := range tr.Periods {
		held += ps.HeldSamples
	}
	if held == 0 {
		t.Error("no sample was held: the scenario never exercised the policy")
	}
}
