package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"github.com/rtsyslab/eucon/internal/baseline"
	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/deucon"
	"github.com/rtsyslab/eucon/internal/metrics"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/stability"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// The extensions: experiments beyond the paper's artifacts.

// deuconRun is ext-deucon's run, Experiment II on MEDIUM under DEUCON,
// returned with the controller so its message counters can be reported.
func deuconRun(ctx context.Context) (*sim.Trace, *deucon.Controller, error) {
	ctrl, err := deucon.New(workload.Medium(), nil, deucon.Config{})
	if err != nil {
		return nil, nil, err
	}
	tr, err := Run(ctx, Spec{Workload: WorkloadMedium, Custom: ctrl, ETF: DynamicETF(), Seed: DefaultSeed})
	return tr, ctrl, err
}

func runExtDeucon(ctx context.Context, w io.Writer) (*sim.Trace, error) {
	tr, ctrl, err := deuconRun(ctx)
	if err != nil {
		return nil, err
	}
	printTrace(w, tr)
	fmt.Fprintf(w, "# local controllers: %d, control-plane messages: %d\n", ctrl.LocalControllers(), ctrl.Messages())
	for p, b := range workload.Medium().DefaultSetPoints() {
		m := metrics.Mean(metrics.Window(metrics.Column(tr.Utilization, p), 160, 200))
		fmt.Fprintf(w, "# P%d mean in [160,200)Ts: %.4f (set point %.4f)\n", p+1, m, b)
	}
	return tr, nil
}

// missRatioRuns is ext-missratio's pair of runs: MEDIUM overloaded at a
// constant etf = 1.5 (Experiment II never exceeds 0.9, where OPEN never
// misses) under EUCON and under OPEN.
func missRatioRuns(ctx context.Context) (eucon, open *sim.Trace, err error) {
	spec := Spec{Workload: WorkloadMedium, ETF: sim.ConstantETF(1.5), Seed: DefaultSeed}
	if eucon, err = Run(ctx, spec); err == nil {
		spec.Controller = KindOPEN
		open, err = Run(ctx, spec)
	}
	return eucon, open, err
}

// windowMisses counts tr's subtask deadline misses in [WindowStart, WindowEnd).
func windowMisses(tr *sim.Trace) int {
	n := 0
	for _, ps := range tr.Periods[WindowStart:WindowEnd] {
		n += ps.SubtaskMisses
	}
	return n
}

func printMissRatio(ctx context.Context, w io.Writer) error {
	trE, trO, err := missRatioRuns(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "period\tmiss_ratio_eucon\tmiss_ratio_open")
	for k := range trE.Periods {
		fmt.Fprintf(w, "%d\t%.4f\t%.4f\n", k+1, trE.Periods[k].MissRatio(), trO.Periods[k].MissRatio())
	}
	fmt.Fprintf(w, "# aggregate subtask misses: EUCON %d/%d, OPEN %d/%d\n",
		trE.Stats.SubtaskDeadlineMisses, trE.Stats.CompletedJobs,
		trO.Stats.SubtaskDeadlineMisses, trO.Stats.CompletedJobs)
	fmt.Fprintf(w, "# subtask misses in [%d,%d)Ts: EUCON %d, OPEN %d\n",
		WindowStart, WindowEnd, windowMisses(trE), windowMisses(trO))
	return nil
}

func printStabilityMedium(_ context.Context, w io.Writer) error {
	g, err := criticalGain(workload.Medium(), workload.MediumController())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "MEDIUM critical uniform gain g* = %.4f (P=4, M=2, Tref/Ts=4)\n", g)
	fmt.Fprintln(w, "longer horizons widen the stability region relative to SIMPLE's ~6.5,")
	fmt.Fprintln(w, "matching the paper's rationale for Table 2's MEDIUM parameters")
	return nil
}

// stabilityRegion is ext-stability-region's grid: the spectral radius of
// SIMPLE's closed loop per (g1, g2), regionSteps points per axis up to gainMax.
func stabilityRegion() ([]stability.RegionPoint, error) {
	const regionSteps = 13
	sys := workload.Simple()
	ctrl, err := core.New(sys, nil, workload.SimpleController())
	if err != nil {
		return nil, err
	}
	ke, kd, err := ctrl.Gains()
	if err != nil {
		return nil, err
	}
	gs := make([]float64, regionSteps)
	for i := range gs {
		gs[i] = gainMax * float64(i+1) / regionSteps
	}
	return stability.Region2D(sys.AllocationMatrix(), ke, kd, gs, gs, 1)
}

func printStabilityRegion(_ context.Context, w io.Writer) error {
	points, err := stabilityRegion()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "g1\tg2\trho\tstable")
	for _, p := range points {
		fmt.Fprintf(w, "%.3f\t%.3f\t%.4f\t%v\n", p.G1, p.G2, p.Rho, p.Stable)
	}
	return nil
}

// ablation is one measured variant of an ext-ablations study.
type ablation struct {
	study, variant, metric string
	value                  float64
}

// ablationPeriods is the length of every ablation run (window from WindowStart).
const ablationPeriods = 200

// ablations runs the design-choice comparisons of DESIGN.md §5 and the
// extensions' comparators, one closed-loop run per variant.
func ablations(ctx context.Context) ([]ablation, error) {
	short := core.Config{PredictionHorizon: 2, ControlHorizon: 1, TrefOverTs: 4}
	long, tref2, tref8, free := short, short, short, short
	long.PredictionHorizon, long.ControlHorizon = 4, 2
	tref2.TrefOverTs, tref8.TrefOverTs = 2, 8
	free.DisableOutputConstraints = true
	simple, trap := Spec{Workload: WorkloadSimple}, Spec{System: couplingTrap()}
	trapB := []float64{0.828, 0.828}
	trapErr := func(u [][]float64, _ []float64) float64 {
		return math.Abs(metrics.Mean(ablationWindow(u, 0, WindowStart)) - trapB[0])
	}
	variants := []struct {
		study, variant, metric string
		spec                   Spec
		ctrl                   func(*task.System) (sim.Controller, error) // nil: spec.Controller
		etf                    float64
		stat                   func(u [][]float64, b []float64) float64 // b: the default set points
	}{
		{"horizons", "P=2,M=1", "std(u1) etf=2", simple, euconWith(short, nil), 2, stdU1},
		{"horizons", "P=4,M=2", "std(u1) etf=2", simple, euconWith(long, nil), 2, stdU1},
		{"tref", "Tref/Ts=2", "std(u1) etf=2", simple, euconWith(tref2, nil), 2, stdU1},
		{"tref", "Tref/Ts=4", "std(u1) etf=2", simple, euconWith(short, nil), 2, stdU1},
		{"tref", "Tref/Ts=8", "std(u1) etf=2", simple, euconWith(tref8, nil), 2, stdU1},
		{"output-constraints", "on", "max(u1-B1) etf=1", simple, euconWith(short, nil), 1, overshootU1},
		{"output-constraints", "off", "max(u1-B1) etf=1", simple, euconWith(free, nil), 1, overshootU1},
		{"estimates", "pessimistic", "std(u1) etf=0.5", simple, euconWith(core.Config{}, nil), 0.5, stdU1},
		{"estimates", "optimistic", "std(u1) etf=3", simple, euconWith(core.Config{}, nil), 3, stdU1},
		{"pid-coupling", "PID", "|mean(u1)-B1| trap", trap, pidWith(trapB), 1, trapErr},
		{"pid-coupling", "EUCON", "|mean(u1)-B1| trap", trap, euconWith(core.Config{}, trapB), 1, trapErr},
		{"deucon", "EUCON", "max|mean(u)-B| MEDIUM [120,200)", Spec{Workload: WorkloadMedium}, nil, 1, worstErr},
		{"deucon", "DEUCON", "max|mean(u)-B| MEDIUM [120,200)", Spec{Workload: WorkloadMedium, Controller: KindDEUCON}, nil, 1, worstErr},
		{"scale", "LARGE-128 etf=0.5", "acceptable(u1) DEUCON", Spec{Workload: WorkloadLarge128, Controller: KindDEUCON}, nil, 0.5, acceptableU1},
		{"scale", "LARGE-128 etf=1", "acceptable(u1) DEUCON", Spec{Workload: WorkloadLarge128, Controller: KindDEUCON}, nil, 1, acceptableU1},
		{"scale", "LARGE-128 etf=2", "acceptable(u1) DEUCON", Spec{Workload: WorkloadLarge128, Controller: KindDEUCON}, nil, 2, acceptableU1},
	}
	out := make([]ablation, len(variants))
	for i, v := range variants {
		spec := v.spec
		spec.ETF, spec.Periods, spec.Seed = sim.ConstantETF(v.etf), ablationPeriods, DefaultSeed
		sys, _, err := spec.workload()
		if err == nil && v.ctrl != nil {
			spec.Custom, err = v.ctrl(sys)
		}
		var tr *sim.Trace
		if err == nil {
			tr, err = Run(ctx, spec)
		}
		if err != nil {
			return nil, fmt.Errorf("ablation %s/%s: %w", v.study, v.variant, err)
		}
		out[i] = ablation{v.study, v.variant, v.metric, v.stat(tr.Utilization, sys.DefaultSetPoints())}
	}
	return out, nil
}

func euconWith(cfg core.Config, setPoints []float64) func(*task.System) (sim.Controller, error) {
	return func(sys *task.System) (sim.Controller, error) {
		c, err := core.New(sys, setPoints, cfg)
		return c, err
	}
}

func pidWith(setPoints []float64) func(*task.System) (sim.Controller, error) {
	return func(sys *task.System) (sim.Controller, error) {
		c, err := baseline.NewPID(sys, setPoints, baseline.PIDConfig{})
		return c, err
	}
}

// Ablation statistics of utilizations u against set points b.
func stdU1(u [][]float64, _ []float64) float64 {
	return metrics.StdDev(ablationWindow(u, 0, WindowStart))
}

func overshootU1(u [][]float64, b []float64) float64 {
	worst := 0.0
	for _, v := range ablationWindow(u, 0, WindowStart) {
		worst = math.Max(worst, v-b[0])
	}
	return worst
}

func acceptableU1(u [][]float64, b []float64) float64 {
	if metrics.Summarize(ablationWindow(u, 0, WindowStart)).Acceptable(b[0]) {
		return 1
	}
	return 0
}

func worstErr(u [][]float64, b []float64) float64 {
	worst := 0.0
	for p := range b {
		worst = math.Max(worst, math.Abs(metrics.Mean(ablationWindow(u, p, 120))-b[p]))
	}
	return worst
}

func ablationWindow(u [][]float64, p, from int) []float64 {
	return metrics.Window(metrics.Column(u, p), from, ablationPeriods)
}

// couplingTrap is the PID coupling trap: T1 spans both processors and T2
// only P2, so P2's loop fights P1's for T1's rate — the paper's §2
// argument for MIMO control.
func couplingTrap() *task.System {
	return &task.System{Name: "trap", Processors: 2, Tasks: []task.Task{
		{Name: "T1", Subtasks: []task.Subtask{{Processor: 0, EstimatedCost: 35}, {Processor: 1, EstimatedCost: 35}},
			RateMin: 1.0 / 700, RateMax: 1.0 / 35, InitialRate: 1.0 / 200},
		{Name: "T2", Subtasks: []task.Subtask{{Processor: 1, EstimatedCost: 45}},
			RateMin: 1.0 / 9000, RateMax: 1.0 / 45, InitialRate: 1.0 / 100},
	}}
}

func printAblations(ctx context.Context, w io.Writer) error {
	rows, err := ablations(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# %d periods, seed %d, window [%d,%d)Ts; SIMPLE unless noted\n", ablationPeriods, DefaultSeed, WindowStart, ablationPeriods)
	fmt.Fprintln(w, "study\tvariant\tmetric\tvalue")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%.4f\n", r.study, r.variant, r.metric, r.value)
	}
	return nil
}
