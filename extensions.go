package eucon

import (
	"io"

	"github.com/rtsyslab/eucon/internal/baseline"
	"github.com/rtsyslab/eucon/internal/deucon"
	"github.com/rtsyslab/eucon/internal/sched"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/trace"
)

// Extensions beyond the paper's centralized controller: the decentralized
// DEUCON-style controller (the paper's stated future work), the
// per-processor PID comparator from the earlier feedback-control
// scheduling literature, RMS schedulability analysis with admission
// control, and trace export.

type (
	// DecentralizedController is a DEUCON-style controller: one local MPC
	// per processor, neighbor-scope information only.
	DecentralizedController = deucon.Controller
	// DecentralizedConfig tunes the local controllers.
	DecentralizedConfig = deucon.Config
	// PIDBaseline is the decoupled per-processor PID comparator (FCS
	// style); it degrades on strongly coupled workloads, motivating the
	// MIMO MPC design.
	PIDBaseline = baseline.PID
	// PIDConfig tunes the PID comparator.
	PIDConfig = baseline.PIDConfig
	// SchedJob is one periodic job stream for schedulability analysis.
	SchedJob = sched.Job
	// PeriodStats are per-sampling-period job counters from a trace.
	PeriodStats = sim.PeriodStats
)

// NewDecentralizedController builds the DEUCON-style controller. Passing
// nil set points selects the Liu–Layland defaults.
func NewDecentralizedController(sys *System, setPoints []float64, cfg DecentralizedConfig) (*DecentralizedController, error) {
	return deucon.New(sys, setPoints, cfg)
}

// NewPIDBaseline builds the decoupled PID comparator.
func NewPIDBaseline(sys *System, setPoints []float64, cfg PIDConfig) (*PIDBaseline, error) {
	return baseline.NewPID(sys, setPoints, cfg)
}

// ResponseTimes computes exact worst-case response times under preemptive
// RMS (deadline = period).
func ResponseTimes(jobs []SchedJob) ([]float64, error) { return sched.ResponseTimes(jobs) }

// SystemSchedulable reports whether every processor passes exact
// response-time analysis at the given task rates; when false, the second
// result is the first failing processor.
func SystemSchedulable(sys *System, rates []float64) (ok bool, failingProcessor int, err error) {
	return sched.SystemSchedulable(sys, rates)
}

// Admit is the admission-control adaptation mechanism (paper §3.2): it
// reports whether adding candidate at its initial rate keeps every
// processor it touches schedulable.
func Admit(sys *System, rates []float64, candidate Task) (bool, error) {
	return sched.Admit(sys, rates, candidate)
}

// WriteUtilizationCSV exports a trace's utilization series as CSV.
func WriteUtilizationCSV(w io.Writer, tr *Trace) error { return trace.WriteUtilizationCSV(w, tr) }

// WriteRatesCSV exports a trace's task-rate series as CSV.
func WriteRatesCSV(w io.Writer, tr *Trace) error { return trace.WriteRatesCSV(w, tr) }

// WriteMissRatioCSV exports a trace's per-period deadline-miss ratios as
// CSV.
func WriteMissRatioCSV(w io.Writer, tr *Trace) error { return trace.WriteMissRatioCSV(w, tr) }

// WriteTraceJSON exports a whole trace as indented JSON.
func WriteTraceJSON(w io.Writer, tr *Trace) error { return trace.WriteJSON(w, tr) }

// compile-time interface checks: every controller in the public set
// implements the unified Controller interface.
var (
	_ Controller = (*MPCController)(nil)
	_ Controller = (*DecentralizedController)(nil)
	_ Controller = (*OpenBaseline)(nil)
	_ Controller = (*PIDBaseline)(nil)
	_ Controller = sim.FixedRates{}
	_            = task.LiuLaylandBound
)
