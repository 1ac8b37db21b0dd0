// Package experiments regenerates every table and figure of the EUCON
// paper's evaluation (§7) and the extensions. Each registry entry prints
// what one data function computes; TestPaperClaims checks the same data.
package experiments

import (
	"fmt"
	"io"

	"github.com/rtsyslab/eucon/internal/baseline"
	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/deucon"
	"github.com/rtsyslab/eucon/internal/metrics"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// ControllerKind selects the rate controller for a run.
//
//eucon:exhaustive
type ControllerKind int

// Controller kinds.
const (
	KindEUCON ControllerKind = iota + 1
	KindOPEN
	KindNone
	KindDEUCON
	KindPID
)

// controllerEntry is one row of the controller registry: the kind's
// display name and its builder. The cfg argument carries the spec's MPC
// parameters; kinds that are not MPC-based ignore it.
type controllerEntry struct {
	name  string
	build func(sys *task.System, cfg core.Config) (sim.Controller, error)
}

// controllerRegistry maps every ControllerKind to its builder. Adding a
// controller to the experiment API is one constant plus one entry here —
// no type switches anywhere else.
var controllerRegistry = map[ControllerKind]controllerEntry{
	KindEUCON: {"EUCON", func(sys *task.System, cfg core.Config) (sim.Controller, error) {
		c, err := core.New(sys, nil, cfg)
		if err != nil {
			return nil, err
		}
		return c, nil
	}},
	KindOPEN: {"OPEN", func(sys *task.System, _ core.Config) (sim.Controller, error) {
		c, err := baseline.NewOpen(sys, nil)
		if err != nil {
			return nil, err
		}
		return c, nil
	}},
	KindNone: {"NONE", func(*task.System, core.Config) (sim.Controller, error) {
		return nil, nil
	}},
	KindDEUCON: {"DEUCON", func(sys *task.System, _ core.Config) (sim.Controller, error) {
		c, err := deucon.New(sys, nil, deucon.Config{})
		if err != nil {
			return nil, err
		}
		return c, nil
	}},
	KindPID: {"PID", func(sys *task.System, _ core.Config) (sim.Controller, error) {
		c, err := baseline.NewPID(sys, nil)
		if err != nil {
			return nil, err
		}
		return c, nil
	}},
}

// String implements fmt.Stringer.
func (k ControllerKind) String() string {
	if e, ok := controllerRegistry[k]; ok {
		return e.name
	}
	return fmt.Sprintf("ControllerKind(%d)", int(k))
}

// Defaults shared by all experiments (paper §7.1–7.2).
const (
	// DefaultPeriods is the run length in sampling periods (the paper's
	// figures span 300 Ts).
	DefaultPeriods = 300
	// WindowStart and WindowEnd delimit the measurement window for the
	// sweep figures: 100Ts–300Ts, excluding the transient.
	WindowStart = 100
	WindowEnd   = 300
	// DefaultSeed keeps runs reproducible.
	DefaultSeed = 1
)

func newController(kind ControllerKind, sys *task.System, cfg core.Config) (sim.Controller, error) {
	e, ok := controllerRegistry[kind]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown controller kind %d", int(kind))
	}
	return e.build(sys, cfg)
}

// DynamicETF is the Experiment II schedule: etf = 0.5 initially, 0.9 from
// 100Ts (an 80% execution-time increase), 0.33 from 200Ts (a 67%
// decrease).
func DynamicETF() sim.ETFSchedule {
	sched, err := sim.StepETF(
		sim.ETFStep{At: 0, Factor: 0.5},
		sim.ETFStep{At: 100 * workload.SamplingPeriod, Factor: 0.9},
		sim.ETFStep{At: 200 * workload.SamplingPeriod, Factor: 0.33},
	)
	if err != nil {
		// The schedule is a compile-time constant; failure is a programming
		// error.
		panic(err)
	}
	return sched
}

// SweepPoint is one x-value of Figures 4 and 5: steady-state utilization
// statistics of processor P1 at a given execution-time factor.
type SweepPoint struct {
	ETF float64
	// P1 summarizes the measured utilization of P1 over the window
	// 100Ts–300Ts.
	P1 metrics.Summary
	// SetPoint is the P1 utilization set point.
	SetPoint float64
	// Acceptable applies the paper's criterion (±0.02 mean, <0.05 σ).
	Acceptable bool
	// OpenExpected is the analytic OPEN utilization etf·B (Figure 5 only;
	// zero for SIMPLE sweeps).
	OpenExpected float64
	// Robust is the worst case across the point's replications of each
	// run's robustness metrics (settling time, overshoot, time-in-spec).
	// Note the TimeInSpec slice makes SweepPoint non-comparable; compare
	// points with reflect.DeepEqual or field-wise.
	Robust Robustness
}

// Fig4ETFs is the paper's Figure 4 x-axis: etf from 0.2 to 10.
func Fig4ETFs() []float64 {
	return []float64{0.2, 0.5, 1, 2, 3, 4, 5, 6, 6.5, 7, 8, 9, 10}
}

// Fig5ETFs is the paper's Figure 5 x-axis: etf from 0.1 to 6.
func Fig5ETFs() []float64 {
	return []float64{0.1, 0.2, 0.5, 1, 2, 3, 4, 5, 6}
}

// printTrace writes a per-period utilization table.
func printTrace(w io.Writer, tr *sim.Trace) {
	fmt.Fprintf(w, "# controller=%s Ts=%g\n", tr.Controller, tr.SamplingPeriod)
	fmt.Fprint(w, "period")
	for p := 0; p < len(tr.Utilization[0]); p++ {
		fmt.Fprintf(w, "\tu(P%d)", p+1)
	}
	fmt.Fprintln(w)
	for k, u := range tr.Utilization {
		fmt.Fprintf(w, "%d", k+1)
		for _, v := range u {
			fmt.Fprintf(w, "\t%.4f", v)
		}
		fmt.Fprintln(w)
	}
}
