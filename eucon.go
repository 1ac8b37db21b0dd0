// Package eucon is a Go implementation of EUCON — End-to-end Utilization
// CONtrol (Lu, Wang, Koutsoukos; ICDCS 2004) — together with everything
// needed to use and evaluate it: the end-to-end periodic task model, a
// MIMO model-predictive rate controller with a native constrained
// least-squares solver, closed-loop stability analysis, an event-driven
// distributed real-time system simulator (preemptive RMS + release guard),
// the OPEN open-loop baseline, and a TCP control plane for running the
// feedback loop across real processes.
//
// # Quick start
//
//	trace, err := eucon.RunExperiment(context.Background(), eucon.ExperimentSpec{
//		Workload: eucon.WorkloadSimple,
//		ETF:      eucon.ConstantETF(0.5), // actual execution times are half the estimates
//	})
//
// The trace holds per-sampling-period utilizations and task rates; with the
// defaults above every processor's utilization converges to its
// Liu–Layland set point even though execution times are mis-estimated by
// 2×. For custom workloads or controller tuning, build a controller with
// NewController and a ControllerConfig and run it through an
// ExperimentSpec with System and Custom set.
//
// The package is a facade: implementations live in internal/ packages and
// are re-exported here as type aliases, so the types below are the same
// types used throughout the library.
package eucon

import (
	"context"

	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/metrics"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// Task model (see internal/task).
type (
	// System is a workload: a set of end-to-end tasks over n processors.
	System = task.System
	// Task is a periodic end-to-end task: a chain of subtasks with an
	// adjustable invocation rate.
	Task = task.Task
	// Subtask is one stage of a task, pinned to a processor with an
	// estimated execution time.
	Subtask = task.Subtask
)

// Controller types (see internal/core and internal/sim).
type (
	// Controller is the unified rate-controller interface of the feedback
	// loop: Name, Step, Reset, and SetPoints. Every controller in the
	// library implements it — MPCController and the controllers
	// ExperimentSpec.Controller selects — and SimulationConfig.Controller
	// and ExperimentSpec.Custom accept any implementation.
	Controller = sim.Controller
	// MPCController is the EUCON model-predictive rate controller, the
	// paper's primary contribution. (Before the unified Controller
	// interface this concrete type was named eucon.Controller.)
	MPCController = core.Controller
	// ControllerConfig tunes the MPC controller; the zero value selects
	// the paper's SIMPLE parameters (P=2, M=1, Tref/Ts=4).
	ControllerConfig = core.Config
)

// Simulation types (see internal/sim).
type (
	// SimulationConfig describes one simulation run.
	SimulationConfig = sim.Config
	// Trace is the per-period record of a run.
	Trace = sim.Trace
	// ETFSchedule is a piecewise-constant execution-time factor over time.
	ETFSchedule = sim.ETFSchedule
	// ETFStep is one segment of an ETFSchedule.
	ETFStep = sim.ETFStep
)

// Summary bundles mean/std/min/max of a utilization series (see
// internal/metrics).
type Summary = metrics.Summary

// NewController builds an EUCON MPC controller for a system. setPoints
// gives the desired utilization per processor; nil selects each
// processor's Liu–Layland schedulable bound, which makes utilization
// control enforce all subtask deadlines (paper eq. 13). The zero
// ControllerConfig selects the paper's SIMPLE parameters; set its fields
// to tune the controller:
//
//	ctrl, err := eucon.NewController(sys, nil, eucon.ControllerConfig{
//		PredictionHorizon: 4, // P
//		ControlHorizon:    2, // M
//		TrefOverTs:        4,
//	})
func NewController(sys *System, setPoints []float64, cfg ControllerConfig) (*MPCController, error) {
	return core.New(sys, setPoints, cfg)
}

// SimulateContext runs the event-driven simulator on a raw
// SimulationConfig for cfg.Periods sampling periods and returns the trace.
// The context is checked at every sampling boundary and the run aborts
// with ctx.Err() once it is done. RunExperiment is the declarative
// experiment API, which also validates fault specs and applies the paper
// defaults.
func SimulateContext(ctx context.Context, cfg SimulationConfig) (*Trace, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx)
}

// ConstantETF returns a schedule where actual execution times are factor
// times the design-time estimates for the whole run.
func ConstantETF(factor float64) ETFSchedule { return sim.ConstantETF(factor) }

// StepETF builds a piecewise-constant execution-time factor schedule.
func StepETF(steps ...ETFStep) (ETFSchedule, error) { return sim.StepETF(steps...) }

// SimpleWorkload returns the paper's SIMPLE configuration (Table 1):
// 3 tasks, 4 subtasks, 2 processors.
func SimpleWorkload() *System { return workload.Simple() }

// MediumWorkload returns the paper's MEDIUM configuration: 12 tasks
// (25 subtasks) on 4 processors, 8 end-to-end + 4 local tasks.
func MediumWorkload() *System { return workload.Medium() }

// SimpleControllerConfig returns the paper's Table 2 controller parameters
// for SIMPLE (P=2, M=1, Tref/Ts=4).
func SimpleControllerConfig() ControllerConfig { return workload.SimpleController() }

// MediumControllerConfig returns the paper's Table 2 controller parameters
// for MEDIUM (P=4, M=2, Tref/Ts=4).
func MediumControllerConfig() ControllerConfig { return workload.MediumController() }

// LiuLaylandBound returns the RMS schedulable utilization bound
// m·(2^{1/m} − 1) for m tasks on one processor.
func LiuLaylandBound(m int) float64 { return task.LiuLaylandBound(m) }

// Summarize computes mean/std/min/max of a series, e.g. one processor's
// utilization column.
func Summarize(series []float64) Summary { return metrics.Summarize(series) }

// UtilizationSeries extracts processor p's utilization series from a
// trace.
func UtilizationSeries(tr *Trace, p int) []float64 {
	return metrics.Column(tr.Utilization, p)
}

// RateSeries extracts task i's rate series from a trace.
func RateSeries(tr *Trace, i int) []float64 {
	return metrics.Column(tr.Rates, i)
}
