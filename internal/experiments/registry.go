package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/metrics"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// Experiment is a runnable reproduction of one table or figure.
type Experiment struct {
	// ID is the paper artifact identifier (e.g. "fig4").
	ID string
	// Title describes what the paper artifact shows.
	Title string
	// Run regenerates the artifact, writing its data to w, and returns the
	// trace when the artifact is one (euconsim -csv exports what was
	// printed). Canceling ctx aborts simulations at the next sampling boundary.
	Run func(ctx context.Context, w io.Writer) (*sim.Trace, error)
}

// All returns every experiment: the paper artifacts in paper order,
// followed by the extensions (IDs prefixed "ext-").
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table 1: SIMPLE task parameters", Run: printed(printTable1)},
		{ID: "table2", Title: "Table 2: controller parameters", Run: printed(printTable2)},
		{ID: "stability", Title: "Section 6.2: SIMPLE stability bound (paper: 5.95 analytic, 6.5-7 empirical)", Run: printed(printStability)},
		{ID: "fig3a", Title: "Figure 3(a): SIMPLE utilization, etf = 0.5", Run: traced(fig3aTrace, printTrace)},
		{ID: "fig3b", Title: "Figure 3(b): SIMPLE utilization, etf = 7 (unstable)", Run: traced(fig3bTrace, printTrace)},
		{ID: "fig4", Title: "Figure 4: SIMPLE mean/std of u(P1) vs execution-time factor", Run: swept(fig4Points, false)},
		{ID: "fig5", Title: "Figure 5: MEDIUM mean/std of u(P1) vs execution-time factor, with OPEN", Run: swept(fig5Points, true)},
		{ID: "fig6", Title: "Figure 6: MEDIUM under OPEN with execution-time steps", Run: traced(fig6Trace, printTrace)},
		{ID: "fig7", Title: "Figure 7: MEDIUM under EUCON with execution-time steps", Run: traced(fig7Trace, printFig7)},
		{ID: "fig8", Title: "Figure 8: task rates under EUCON with execution-time steps", Run: traced(fig7Trace, printRates)},
		{ID: "ext-deucon", Title: "Extension: decentralized control (DEUCON) under the Experiment II workload", Run: runExtDeucon},
		{ID: "ext-missratio", Title: "Extension: per-period deadline miss ratios, EUCON vs OPEN, MEDIUM overloaded at etf = 1.5", Run: printed(printMissRatio)},
		{ID: "ext-stability-medium", Title: "Extension: critical gain of the MEDIUM closed loop (P=4, M=2)", Run: printed(printStabilityMedium)},
		{ID: "ext-stability-region", Title: "Extension: SIMPLE (g1, g2) stability region, 13x13 grid up to g = 12", Run: printed(printStabilityRegion)},
		{ID: "ext-ablations", Title: "Extension: design-choice ablations (horizons, Tref/Ts, output constraints, estimates, PID coupling, DEUCON, LARGE-128)", Run: printed(printAblations)},
	}
}

// traced is the Run of a one-trace artifact: data computes it, print writes it.
func traced(data func(context.Context) (*sim.Trace, error), print func(io.Writer, *sim.Trace)) func(context.Context, io.Writer) (*sim.Trace, error) {
	return func(ctx context.Context, w io.Writer) (*sim.Trace, error) {
		tr, err := data(ctx)
		if err == nil {
			print(w, tr)
		}
		return tr, err
	}
}

// printed is the Run of an artifact that is not one trace.
func printed(run func(context.Context, io.Writer) error) func(context.Context, io.Writer) (*sim.Trace, error) {
	return func(ctx context.Context, w io.Writer) (*sim.Trace, error) { return nil, run(ctx, w) }
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the sorted experiment identifiers.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
}

func printTable1(_ context.Context, w io.Writer) error {
	sys := workload.Simple()
	fmt.Fprintln(w, "Tij\tProc\tcij\t1/Rmax\t1/Rmin\t1/r(0)")
	for i := range sys.Tasks {
		t := &sys.Tasks[i]
		for j, st := range t.Subtasks {
			fmt.Fprintf(w, "T%d%d\tP%d\t%.0f\t%.0f\t%.0f\t%.0f\n",
				i+1, j+1, st.Processor+1, st.EstimatedCost, 1/t.RateMax, 1/t.RateMin, 1/t.InitialRate)
		}
	}
	return nil
}

func printTable2(_ context.Context, w io.Writer) error {
	fmt.Fprintln(w, "System\tP\tM\tTref/Ts\tTs")
	s := workload.SimpleController()
	m := workload.MediumController()
	fmt.Fprintf(w, "SIMPLE\t%d\t%d\t%g\t%g\n", s.PredictionHorizon, s.ControlHorizon, s.TrefOverTs, workload.SamplingPeriod)
	fmt.Fprintf(w, "MEDIUM\t%d\t%d\t%g\t%g\n", m.PredictionHorizon, m.ControlHorizon, m.TrefOverTs, workload.SamplingPeriod)
	return nil
}

// gainMax bounds every critical-gain bisection ([1, gainMax] to 1e-4).
const gainMax = 12

// criticalGain is a workload's critical uniform gain (§6.2): the
// execution-time factor beyond which its closed loop loses stability.
func criticalGain(sys *task.System, cfg core.Config) (float64, error) {
	ctrl, err := core.New(sys, nil, cfg)
	if err != nil {
		return 0, err
	}
	return ctrl.CriticalGain(1, gainMax)
}

func printStability(_ context.Context, w io.Writer) error {
	g, err := criticalGain(workload.Simple(), workload.SimpleController())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "SIMPLE critical uniform gain g* = %.4f\n", g)
	fmt.Fprintf(w, "paper: 5.95 (hand analysis); empirical boundary in paper Figure 4: 6.5-7\n")
	return nil
}

// fig3aTrace is Figure 3(a)'s run: SIMPLE under EUCON at etf = 0.5.
func fig3aTrace(ctx context.Context) (*sim.Trace, error) {
	return Run(ctx, Spec{Workload: WorkloadSimple, ETF: sim.ConstantETF(0.5), Seed: DefaultSeed})
}

// fig3bTrace is Figure 3(b)'s run: SIMPLE under EUCON at etf = 7.
func fig3bTrace(ctx context.Context) (*sim.Trace, error) {
	return Run(ctx, Spec{Workload: WorkloadSimple, ETF: sim.ConstantETF(7), Seed: DefaultSeed})
}

// fig4Points is the Figure 4 series: SIMPLE under EUCON across Fig4ETFs.
func fig4Points(ctx context.Context) ([]SweepPoint, error) {
	return SweepParallel(ctx, Spec{Workload: WorkloadSimple, Seed: DefaultSeed}, Fig4ETFs())
}

// fig5Points is the Figure 5 series: MEDIUM under EUCON across Fig5ETFs,
// with the analytic OPEN expectation alongside.
func fig5Points(ctx context.Context) ([]SweepPoint, error) {
	return SweepParallel(ctx, Spec{Workload: WorkloadMedium, Seed: DefaultSeed}, Fig5ETFs())
}

// fig6Trace is Figure 6's run: MEDIUM under OPEN with the Experiment II
// execution-time steps.
func fig6Trace(ctx context.Context) (*sim.Trace, error) {
	return Run(ctx, Spec{Workload: WorkloadMedium, Controller: KindOPEN, ETF: DynamicETF(), Seed: DefaultSeed})
}

// fig7Trace is the run behind Figures 7 and 8: MEDIUM under EUCON with the
// Experiment II execution-time steps.
func fig7Trace(ctx context.Context) (*sim.Trace, error) {
	return Run(ctx, Spec{Workload: WorkloadMedium, ETF: DynamicETF(), Seed: DefaultSeed})
}

// swept is the Run of a sweep artifact; withOpen adds OPEN's expectation.
func swept(data func(context.Context) ([]SweepPoint, error), withOpen bool) func(context.Context, io.Writer) (*sim.Trace, error) {
	return printed(func(ctx context.Context, w io.Writer) error {
		points, err := data(ctx)
		if err != nil {
			return err
		}
		fmt.Fprint(w, "etf\tmean(u1)\tstd(u1)\tset_point\tacceptable")
		if withOpen {
			fmt.Fprint(w, "\topen_expected")
		}
		fmt.Fprintln(w)
		for _, p := range points {
			fmt.Fprintf(w, "%.2f\t%.4f\t%.4f\t%.4f\t%v", p.ETF, p.P1.Mean, p.P1.StdDev, p.SetPoint, p.Acceptable)
			if withOpen {
				fmt.Fprintf(w, "\t%.4f", p.OpenExpected)
			}
			fmt.Fprintln(w)
		}
		return nil
	})
}

// stepSettling is each processor's settling time after the Experiment II
// step at period from (100: the +80% step and the paper's ~20Ts claim;
// 200: the −67% step), over the 100 periods that follow, on a moving
// average against jitter.
func stepSettling(tr *sim.Trace, from int) []int {
	b := workload.Medium().DefaultSetPoints()
	st := make([]int, len(b))
	for p := range b {
		seg := metrics.MovingAverage(metrics.Window(metrics.Column(tr.Utilization, p), from, from+100), settleSmooth)
		st[p] = metrics.SettlingTime(seg, b[p], InSpecTol)
	}
	return st
}

func printFig7(w io.Writer, tr *sim.Trace) {
	printTrace(w, tr)
	for p, st := range stepSettling(tr, 100) {
		fmt.Fprintf(w, "# P%d settling after +80%% step: %d Ts\n", p+1, st)
	}
}

// printRates writes a per-period task-rate table (Figure 8).
func printRates(w io.Writer, tr *sim.Trace) {
	fmt.Fprint(w, "period")
	for i := 0; i < len(tr.Rates[0]); i++ {
		fmt.Fprintf(w, "\tr(T%d)", i+1)
	}
	fmt.Fprintln(w)
	for k, r := range tr.Rates {
		fmt.Fprintf(w, "%d", k+1)
		for _, v := range r {
			fmt.Fprintf(w, "\t%.6f", v)
		}
		fmt.Fprintln(w)
	}
}
