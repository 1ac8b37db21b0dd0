package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"

	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/deucon"
	"github.com/rtsyslab/eucon/internal/experiments"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// largePeriods is the closed-loop run length for the LARGE workload
// digests: long enough to cover the transient and a steady-state tail,
// short enough that the 1024-processor runs stay a smoke test rather than
// a benchmark.
const largePeriods = 120

// largeETFs is the execution-time-factor grid for the LARGE digests —
// underload, nominal, and overload, like the fault-digest grid.
var largeETFs = []float64{0.5, 1, 2}

// largeStepPeriods is the open-loop step-response length for the
// centralized structured-solver digest.
const largeStepPeriods = 40

// listWorkloads prints the named workloads the -workload flag accepts.
func listWorkloads(w io.Writer) {
	fmt.Fprintf(w, "%-10s %s\n", "large128", "LARGE-128: 128 processors, 640 tasks, block-banded coupling")
	fmt.Fprintf(w, "%-10s %s\n", "large1024", "LARGE-1024: 1024 processors, 5120 tasks, localized DEUCON only")
}

// largeDigests runs the named LARGE workload and prints one JSON digest
// line per configuration. Two properties are pinned:
//
//   - on LARGE-128 the centralized EUCON controller must detect and use the
//     banded Hessian backend (the "structured" and "bandwidth" fields), and
//     its open-loop step-response trajectory — pure structured linear
//     algebra, period after period — must not drift across PRs;
//   - localized DEUCON's closed-loop trajectory at each execution-time
//     factor must not drift across PRs. TestGoldenDigests compares the
//     whole output with scripts/golden/, so any divergence fails
//     go test ./... .
//
// The centralized digest is open-loop (a scripted utilization sequence in
// the lightly-loaded regime) rather than a full closed-loop simulation:
// under saturation the dense active-set machinery re-factors the active
// constraint set from scratch each iteration, which is super-linear in the
// task count no matter how the Hessian is factored — at 640 tasks a single
// saturated solve takes minutes. That regime is exactly what the localized
// controller exists for, so the closed-loop LARGE digests are DEUCON's,
// and LARGE-1024 skips the centralized controller entirely (its dense
// Hessian alone would be ~210 MB).
func largeDigests(ctx context.Context, w io.Writer, name string) error {
	var sys *task.System
	var centralized bool
	etfs := largeETFs
	switch name {
	case "large128":
		sys, centralized = workload.Large128(), true
	case "large1024":
		sys, centralized = workload.Large1024(), false
		// At 1024 processors one closed-loop run is ~8 s; the nominal factor
		// alone keeps the gate a smoke test while the 128-processor grid
		// covers underload and overload.
		etfs = []float64{1}
	default:
		return fmt.Errorf("unknown workload %q (see -list-workloads)", name)
	}

	if centralized {
		banded, bw, digest, err := centralizedStepDigest(sys)
		if err != nil {
			return fmt.Errorf("%s EUCON: %w", sys.Name, err)
		}
		fmt.Fprintf(w, "{\"workload\":%q,\"controller\":\"EUCON\",\"mode\":\"step-response\",\"structured\":%v,\"bandwidth\":%d,\"periods\":%d,\"digest\":%q}\n",
			sys.Name, banded, bw, largeStepPeriods, digest)
	}

	for _, etf := range etfs {
		ctrl, err := deucon.New(sys, nil, deucon.Config{})
		if err != nil {
			return fmt.Errorf("%s DEUCON: %w", sys.Name, err)
		}
		digest, err := runLarge(ctx, sys, ctrl, etf)
		if err != nil {
			return fmt.Errorf("%s DEUCON etf=%g: %w", sys.Name, etf, err)
		}
		fmt.Fprintf(w, "{\"workload\":%q,\"controller\":\"DEUCON\",\"etf\":%g,\"periods\":%d,\"digest\":%q}\n",
			sys.Name, etf, largePeriods, digest)
	}
	return nil
}

// centralizedStepDigest builds the centralized controller on the
// structured solver path and digests its open-loop response to a scripted
// utilization sequence: every processor starts well below its set point,
// rises toward it, and dips again, so successive solves stay in the
// interior regime where the banded factorization carries the whole step.
func centralizedStepDigest(sys *task.System) (banded bool, bw int, digest string, err error) {
	ctrl, err := core.New(sys, nil, workload.LargeController())
	if err != nil {
		return false, 0, "", err
	}
	banded, bw = ctrl.Structured()
	b := sys.DefaultSetPoints()
	u := make([]float64, sys.Processors)
	rates := sys.InitialRates()
	h := fnv.New64a()
	for k := 0; k < largeStepPeriods; k++ {
		// Scripted measurement: a deterministic sweep through the
		// lightly-loaded band [0.80·B, 0.95·B], phase-shifted per processor.
		for i := range u {
			u[i] = b[i] * (0.875 + 0.075*ramp(k+i))
		}
		next, err := ctrl.Step(k, u, rates)
		if err != nil {
			return banded, bw, "", fmt.Errorf("step %d: %w", k, err)
		}
		for _, r := range next {
			fmt.Fprintf(h, "%.17g ", r)
		}
		fmt.Fprintln(h)
		copy(rates, next)
	}
	return banded, bw, fmt.Sprintf("%016x", h.Sum64()), nil
}

// ramp is a deterministic triangle wave on [-1, 1] with period 16.
func ramp(k int) float64 {
	k %= 16
	if k < 8 {
		return float64(k)/4 - 1
	}
	return 1 - float64(k-8)/4
}

// runLarge simulates one (controller, etf) point and digests the full
// utilization and rate trajectories at full precision.
func runLarge(ctx context.Context, sys *task.System, ctrl sim.Controller, etf float64) (string, error) {
	tr, err := experiments.Run(ctx, experiments.Spec{
		System:  sys,
		Custom:  ctrl,
		ETF:     sim.ConstantETF(etf),
		Periods: largePeriods,
		Seed:    experiments.DefaultSeed,
	})
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	for k := range tr.Utilization {
		for _, u := range tr.Utilization[k] {
			fmt.Fprintf(h, "%.17g ", u)
		}
		for _, r := range tr.Rates[k] {
			fmt.Fprintf(h, "%.17g ", r)
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
