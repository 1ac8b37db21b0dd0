// Package sim is an event-driven simulator for distributed real-time
// systems executing end-to-end periodic tasks — the Go equivalent of the
// C++ simulation environment in the EUCON paper's evaluation (§7.1).
//
// Each processor schedules its subtasks with preemptive Rate Monotonic
// Scheduling (RMS); precedence constraints between subsequent subtasks are
// enforced by the release guard protocol (Sun & Liu), which keeps every
// subtask periodic at its task's rate. A utilization monitor measures the
// busy fraction of each processor per sampling period, and a rate modulator
// applies the controller's new rates at sampling boundaries. Network delay
// is ignored, as in the paper.
//
// The simulator is deterministic for a fixed Config.Seed, and its
// steady-state event loop is allocation-free: events and jobs are recycled
// through per-simulator free lists, the event queue is a calendar queue,
// the per-processor ready queues are flat concrete-typed heaps, and trace
// rows are carved out of buffers pre-sized for the whole run. A Simulator
// can be reused across runs with Reset, which keeps those pools and buffers
// warm — the intended pattern for sweep workers (see internal/experiments).
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/rtsyslab/eucon/internal/fault"
	"github.com/rtsyslab/eucon/internal/task"
)

// timeEps absorbs floating-point drift when comparing virtual times.
const timeEps = 1e-9

// Config describes one simulation run.
type Config struct {
	// System is the workload to simulate. Required.
	System *task.System
	// SamplingPeriod is Ts in time units. Required, positive.
	SamplingPeriod float64
	// Periods is the number of sampling periods to simulate. Required,
	// positive.
	Periods int
	// Controller adjusts task rates at each sampling boundary; nil keeps
	// the initial rates for the whole run.
	Controller Controller
	// ETF is the execution-time factor schedule (zero value: etf = 1).
	ETF ETFSchedule
	// Jitter, in [0, 1), draws each job's execution time uniformly from
	// [mean·(1−Jitter), mean·(1+Jitter)]. Zero means deterministic
	// execution times (the paper's SIMPLE runs); MEDIUM uses uniform random
	// execution times.
	Jitter float64
	// Seed drives all randomness; runs with equal seeds are identical.
	Seed int64
	// MaxBacklog, when positive, sheds load under overload: a subtask
	// release is skipped while that subtask already has MaxBacklog
	// incomplete jobs in the system. This models DRE applications that
	// drop work rather than queue it unboundedly (e.g. sensor frames);
	// zero disables shedding.
	MaxBacklog int
	// Faults is the fault scenario injected into the run: execution-time
	// perturbations, feedback and actuator faults, and processor crash
	// windows (see internal/fault). All probabilistic fault outcomes are
	// pre-resolved from Seed at Reset, so faulted runs stay bit-identical
	// for equal configs. Empty means a fault-free run with zero overhead
	// beyond one branch per hook.
	Faults []fault.Spec
	// DisableGuards turns off the runtime invariant guards: controller
	// rate commands are no longer screened for non-finite or out-of-bounds
	// values, utilization samples are not sanity-checked, and the pooled-
	// object audit is skipped. Test-only: the chaos shrinker disables the
	// guards so a deliberately seeded violation can escape containment and
	// exercise the shrinking machinery. Production runs must leave this
	// false — the guards are allocation-free and bit-transparent on
	// healthy runs.
	DisableGuards bool
}

// validate checks the configuration. validatedSys, when non-nil and equal
// to c.System, marks a system this simulator already validated on a
// previous New/Reset; the structural walk (which allocates) is then
// skipped, keeping Reset with an unchanged system allocation-free.
func (c *Config) validate(validatedSys *task.System) error {
	if c.System == nil {
		return errors.New("sim: Config.System is nil")
	}
	if c.System != validatedSys {
		if err := c.System.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	if c.SamplingPeriod <= 0 {
		return fmt.Errorf("sim: sampling period %g must be positive", c.SamplingPeriod)
	}
	if c.Periods <= 0 {
		return fmt.Errorf("sim: period count %d must be positive", c.Periods)
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		return fmt.Errorf("sim: jitter %g must be in [0, 1)", c.Jitter)
	}
	if err := c.ETF.validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// job is one invocation of one subtask. Jobs are pooled: the Simulator
// recycles them through its free list on completion or shedding, so no job
// pointer may be retained past those points.
type job struct {
	taskIdx    int
	subIdx     int
	proc       int
	release    float64 // actual release time
	remaining  float64 // execution time still needed
	deadline   float64 // subtask deadline (release + period at release)
	chainStart float64 // release time of the chain's first subtask
	chainDL    float64 // absolute end-to-end deadline of the chain
}

// processor is the run state of one CPU.
type processor struct {
	ready    jobHeap // pending jobs ordered by RMS priority, excluding running
	running  *job
	runStart float64 // when the running job last got the CPU
	busy     float64 // busy time accumulated in the current window
	comp     *event  // running's queued completion; nil once it pops
}

// Stats aggregates counters over a run.
type Stats struct {
	// ReleasedJobs counts subtask invocations released.
	ReleasedJobs int
	// CompletedJobs counts subtask invocations completed.
	CompletedJobs int
	// SubtaskDeadlineMisses counts subtask completions after their
	// subdeadline.
	SubtaskDeadlineMisses int
	// EndToEndCompletions counts completed end-to-end instances.
	EndToEndCompletions int
	// EndToEndDeadlineMisses counts end-to-end instances finishing after
	// their end-to-end deadline.
	EndToEndDeadlineMisses int
	// ControllerErrors counts sampling periods where the controller
	// returned an error (rates kept unchanged).
	ControllerErrors int
	// SkippedJobs counts releases shed because the subtask's backlog
	// reached Config.MaxBacklog.
	SkippedJobs int
	// CrashShedJobs counts releases refused because the target processor
	// was inside a fault.ProcCrash window.
	CrashShedJobs int
	// GuardRateFirings counts controller rate commands the runtime
	// invariant guard rejected (non-finite, or outside the task's rate
	// bounds) and replaced with a safe substitute. Zero on every healthy
	// run: containment in the controller layers should make the guard
	// unreachable, so any firing marks a contained controller bug.
	GuardRateFirings int
	// GuardUtilFirings counts utilization samples the guard found insane
	// (non-finite or negative) and clamped before they entered the trace.
	GuardUtilFirings int
	// GuardPoolFirings counts sampling boundaries where the pooled-object
	// audit found the event/job accounting out of balance (a leak or a
	// double-recycle in the event loop).
	GuardPoolFirings int
	// ContainmentHeld mirrors the controller's count of held steps (a
	// failed solve or non-finite inputs) as of the end of the run.
	// Populated only when the controller implements ContainmentReporter;
	// the count is cumulative since the controller's construction or last
	// Reset.
	ContainmentHeld int
	// ExplicitHits and ExplicitMisses mirror the controller's explicit-MPC
	// counters as of the end of the run: control steps that lay in the
	// interior critical region of the offline-compiled piecewise-affine
	// law versus anywhere else. Populated only when the controller implements
	// ExplicitReporter; both stay zero without an explicit law.
	ExplicitHits, ExplicitMisses int
}

// PeriodStats are the per-sampling-period counters behind the aggregate
// Stats, enabling deadline-miss-ratio time series.
type PeriodStats struct {
	// Released and Completed count subtask jobs in this period.
	Released, Completed int
	// SubtaskMisses counts subtask completions past their subdeadline.
	SubtaskMisses int
	// EndToEndCompletions and EndToEndMisses count whole task instances.
	EndToEndCompletions, EndToEndMisses int
	// FeedbackMissing and FeedbackStale count utilization samples that a
	// feedback fault dropped or delivered from an earlier period.
	FeedbackMissing, FeedbackStale int
	// HeldSamples counts samples the HoldLast policy substituted before
	// the controller saw them this period; ControlSkipped is 1 when it
	// skipped the period (staleness bound exceeded) and the rates were held
	// without a Step.
	HeldSamples, ControlSkipped int
	// RateCmdFaults counts task rate commands perturbed by an actuator
	// fault (drop, delay, or clamp) this period.
	RateCmdFaults int
	// ProcsDown counts processors whose monitor was pegged at u = 1 by a
	// crash window overlapping this period.
	ProcsDown int
	// GuardRateFirings and GuardUtilFirings are the per-period runtime
	// invariant-guard counters behind the aggregate Stats fields of the
	// same names: rate commands rejected and utilization samples clamped
	// in this period.
	GuardRateFirings, GuardUtilFirings int
	// GuardPoolImbalance is the pooled-object accounting discrepancy (in
	// objects) found by the audit at this period's sampling boundary; 0
	// when the pools balance.
	GuardPoolImbalance int
}

// MissRatio returns the subtask deadline miss ratio of the period (0 when
// nothing completed).
func (p PeriodStats) MissRatio() float64 {
	if p.Completed == 0 {
		return 0
	}
	return float64(p.SubtaskMisses) / float64(p.Completed)
}

// Trace is the full per-period record of a run. Its slices are owned by
// the Simulator that produced it and are overwritten by the next Reset;
// callers that outlive the Simulator (or Reset it) must copy what they
// need first.
type Trace struct {
	// Controller is the name of the rate controller used.
	Controller string
	// SamplingPeriod is Ts.
	SamplingPeriod float64
	// Utilization[k][p] is processor p's measured utilization in sampling
	// period k (k = 0 is the first period).
	Utilization [][]float64
	// Rates[k][i] is task i's rate during sampling period k.
	Rates [][]float64
	// Periods[k] holds the per-period job counters.
	Periods []PeriodStats
	// Stats holds aggregate counters.
	Stats Stats
}

// Simulator runs one configuration. Create with New, drive with Run, and
// reuse across runs with Reset.
type Simulator struct {
	cfg    Config
	sys    *task.System
	rng    *rand.Rand
	events eventQueue
	seq    uint64
	now    float64

	procs []processor
	rates []float64

	// firstRel[i] is task i's queued next first-subtask release; nil once
	// it pops. A rate change re-times it in place.
	firstRel []*event

	// subOff[i] is task i's base index into the flat per-subtask arrays
	// below: subtask (i, j) lives at subOff[i]+j.
	subOff      []int
	lastRelease []float64 // per subtask: last release time (-1: never)
	backlog     []int     // per subtask: incomplete jobs in flight

	// Free lists (see pool.go). eventsMade and jobsMade count every object
	// the pools ever allocated (never reset: pooled objects outlive Reset),
	// giving the invariant-guard audit a conservation law to check.
	freeEvents []*event
	freeJobs   []*job
	eventsMade int
	jobsMade   int

	// utilBacking and ratesBacking hold every trace row of the run
	// contiguously; handleSampling carves rows out of them so the sampling
	// path does not allocate.
	utilBacking  []float64
	ratesBacking []float64

	// faults holds the compiled fault scenario (idle when Config.Faults is
	// empty); hold is the missing-feedback policy applied to every vector
	// the controller receives.
	faults fault.Engine
	hold   HoldLast

	// Fault-path scratch, sized at Reset only when faults are enabled:
	// uDeliver is the corrupted utilization vector handed to the
	// controller, cmdBacking records every period's commanded rates (the
	// source for delayed actuation), and effRates is the post-fault rate
	// vector actually applied.
	subsBuf    []int
	uDeliver   []float64
	cmdBacking []float64
	effRates   []float64

	// guardBuf holds the sanitized rate vector when the invariant guard
	// fires (the controller's slice may alias a trace row, so it is never
	// mutated in place). Sized at Reset; untouched on healthy periods.
	guardBuf []float64

	trace Trace
	cur   PeriodStats // counters for the in-progress sampling period
}

// New validates cfg and builds a Simulator.
func New(cfg Config) (*Simulator, error) {
	s := &Simulator{}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset validates cfg and rebinds the Simulator to it, recycling every
// buffer, pool object, and trace row of the previous run. After Reset the
// Simulator behaves exactly like one freshly built with New(cfg): runs are
// bit-identical to a fresh simulator's for the same config, which the
// determinism tests pin. Any Trace returned by a previous Run is
// invalidated. Reset does not allocate when the new config's shape (number
// of processors, tasks, subtasks, and periods) fits the previous one.
func (s *Simulator) Reset(cfg Config) error {
	if err := cfg.validate(s.sys); err != nil {
		return err
	}
	// Compile the fault scenario before any state is touched, so a bad
	// scenario leaves the simulator bound to its previous config. An empty
	// scenario disables the engine without allocating.
	var shape fault.Shape
	if len(cfg.Faults) > 0 {
		nTasks := len(cfg.System.Tasks)
		s.subsBuf = growSlice(s.subsBuf, nTasks)
		for i := range cfg.System.Tasks {
			s.subsBuf[i] = len(cfg.System.Tasks[i].Subtasks)
		}
		shape = fault.Shape{
			Procs:          cfg.System.Processors,
			Tasks:          nTasks,
			SubsPerTask:    s.subsBuf,
			Periods:        cfg.Periods,
			SamplingPeriod: cfg.SamplingPeriod,
		}
	}
	if err := s.faults.Compile(cfg.Faults, shape, cfg.Seed); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	// Reclaim the previous run's working set before any slice is resized.
	s.recycleInFlight()

	sys := cfg.System
	s.cfg = cfg
	s.sys = sys
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		s.rng.Seed(cfg.Seed)
	}
	s.seq = 0
	s.now = 0
	s.cur = PeriodStats{}

	s.procs = growProcs(s.procs, sys.Processors)
	for p := range s.procs {
		pr := &s.procs[p]
		pr.ready.sim = s
		pr.running = nil
		pr.runStart = 0
		pr.busy = 0
	}

	nTasks := len(sys.Tasks)
	s.rates = growSlice(s.rates, nTasks)
	s.firstRel = growSlice(s.firstRel, nTasks)
	s.subOff = growSlice(s.subOff, nTasks)
	nSubs := 0
	for i := range sys.Tasks {
		s.rates[i] = sys.Tasks[i].InitialRate
		s.subOff[i] = nSubs
		nSubs += len(sys.Tasks[i].Subtasks)
	}
	s.lastRelease = growSlice(s.lastRelease, nSubs)
	s.backlog = growSlice(s.backlog, nSubs)
	for i := 0; i < nSubs; i++ {
		s.lastRelease[i] = -1 // never released
		s.backlog[i] = 0
	}

	name := "NONE"
	if cfg.Controller != nil {
		name = cfg.Controller.Name()
	}
	var setPoints []float64
	if cfg.Controller != nil && s.faults.Enabled() {
		// Only a feedback fault can hide a never-measured processor, the
		// one case needing a set point: otherwise period 0 is measured
		// under the validated initial rates. Only faulted runs pay for
		// the copy; the no-fault Reset stays allocation-free.
		setPoints = cfg.Controller.SetPoints()
	}
	s.hold.Reset(sys.Processors, setPoints)
	if s.faults.Enabled() {
		s.uDeliver = growSlice(s.uDeliver, sys.Processors)
		s.effRates = growSlice(s.effRates, nTasks)
		s.cmdBacking = growSlice(s.cmdBacking, cfg.Periods*nTasks)
	}
	s.guardBuf = growSlice(s.guardBuf, nTasks)
	s.utilBacking = growSlice(s.utilBacking, cfg.Periods*sys.Processors)
	s.ratesBacking = growSlice(s.ratesBacking, cfg.Periods*nTasks)
	s.trace.Controller = name
	s.trace.SamplingPeriod = cfg.SamplingPeriod
	s.trace.Utilization = growRows(s.trace.Utilization, cfg.Periods)
	s.trace.Rates = growRows(s.trace.Rates, cfg.Periods)
	s.trace.Periods = growPeriodStats(s.trace.Periods, cfg.Periods)
	s.trace.Stats = Stats{}
	return nil
}

// growSlice returns a slice of length n, and growRows and growPeriodStats
// an empty one of capacity n, reusing the backing array when it is large
// enough. Contents are unspecified; callers overwrite them.
func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

func growRows(s [][]float64, n int) [][]float64 {
	if cap(s) >= n {
		return s[:0]
	}
	return make([][]float64, 0, n)
}

func growPeriodStats(s []PeriodStats, n int) []PeriodStats {
	if cap(s) >= n {
		return s[:0]
	}
	return make([]PeriodStats, 0, n)
}

// growProcs resizes the processor table, preserving each slot's ready-queue
// backing array so reuse stays allocation-free.
func growProcs(s []processor, n int) []processor {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]processor, n)
	copy(out, s)
	return out
}

// Run executes the configured number of sampling periods and returns the
// trace. Run may only be called once per New or Reset.
func (s *Simulator) Run() (*Trace, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cancellation: the context is checked at every
// sampling boundary (the natural control-loop granularity), and the run
// stops with ctx.Err() once it is done. Partial trace data is discarded.
func (s *Simulator) RunContext(ctx context.Context) (*Trace, error) {
	// Initial releases of every task's first subtask at t = 0.
	for i := range s.sys.Tasks {
		s.scheduleFirstRelease(i, 0)
	}
	// Sampling boundary 1 at Ts; each handled boundary queues the next.
	s.scheduleSampling(1)

	end := float64(s.cfg.Periods) * s.cfg.SamplingPeriod
	for s.events.len() > 0 {
		e := s.events.pop()
		s.unlink(e)
		// Termination safety net: the negated comparison also trips on a
		// NaN event time (identical to e.at > end+timeEps for any finite
		// time). Without it, a NaN-poisoned clock — reachable only when
		// the invariant guards are disabled — would regenerate NaN-timed
		// release chains forever and the loop would never exit; with it,
		// poisoning truncates the run, which the chaos harness detects.
		if !(e.at <= end+timeEps) {
			// Past the horizon: this event and anything still queued are
			// reclaimed by the next Reset.
			if e.job != nil {
				s.putJob(e.job)
			}
			s.putEvent(e)
			break
		}
		s.now = e.at
		switch e.kind {
		case evRelease:
			s.handleRelease(e)
		case evCompletion:
			s.handleCompletion(e)
		case evSampling:
			err := ctx.Err()
			if err != nil {
				err = fmt.Errorf("sim: run canceled: %w", err)
			} else {
				err = s.handleSampling()
			}
			if err != nil {
				// Reset reclaims what is still queued, not what was popped:
				// recycle the event or every later pool audit is off by one.
				s.putEvent(e)
				return nil, err
			}
			// handleSampling appended boundary k's trace row.
			if k := len(s.trace.Utilization); k < s.cfg.Periods {
				s.scheduleSampling(k + 1)
			}
		}
		// Handlers take ownership of e.job; the event itself is done.
		s.putEvent(e)
	}
	if cr, ok := s.cfg.Controller.(ContainmentReporter); ok {
		_, _, s.trace.Stats.ContainmentHeld = cr.ContainmentCounts()
	}
	if er, ok := s.cfg.Controller.(ExplicitReporter); ok {
		s.trace.Stats.ExplicitHits, s.trace.Stats.ExplicitMisses = er.ExplicitCounts()
	}
	return &s.trace, nil
}

// push assigns the event its global sequence number and enqueues it.
//
//eucon:noalloc
func (s *Simulator) push(e *event) *event {
	s.seq++
	e.seq = s.seq
	s.events.push(e)
	return e
}

// rekey moves the queued event e to time at. It draws the next sequence
// number exactly as a push at this point would, so e gets the key a fresh
// event would, and the pop order does not depend on re-keying instead of
// pushing anew (DESIGN.md §6).
//
//eucon:noalloc
func (s *Simulator) rekey(e *event, at float64) {
	s.seq++
	s.events.move(e, at, s.seq)
}

// unlink clears the back-pointer naming e, which has just been popped.
//
//eucon:noalloc
func (s *Simulator) unlink(e *event) {
	switch e.kind {
	case evCompletion:
		s.procs[e.proc].comp = nil
	case evRelease:
		if e.job.subIdx == 0 {
			s.firstRel[e.job.taskIdx] = nil
		}
	case evSampling: // nothing points at a boundary
	}
}

// scheduleSampling queues sampling boundary k at k·Ts. Only the next
// boundary is ever queued — the run loop queues k+1 once k is handled — so
// the queue holds one sampling event instead of one per remaining period.
// Queuing late cannot move a boundary in the pop order: boundaries never
// share a time, and one that ties with a release or completion is ordered
// by kind, so the seq it gets when queued never decides an order.
//
//eucon:noalloc
func (s *Simulator) scheduleSampling(k int) {
	e := s.newEvent()
	e.at = float64(k) * s.cfg.SamplingPeriod
	e.kind = evSampling
	s.push(e)
}

// period returns task i's current period 1/r_i.
//
//eucon:noalloc
func (s *Simulator) period(i int) float64 { return 1 / s.rates[i] }

// drawExecTime draws the actual execution time for subtask (taskIdx,
// subIdx) released now on processor proc.
//
//eucon:noalloc
func (s *Simulator) drawExecTime(estimatedCost float64, proc, taskIdx, subIdx int) float64 {
	mean := estimatedCost * s.cfg.ETF.At(s.now)
	if s.faults.Enabled() {
		mean *= s.faults.ExecFactor(proc, taskIdx, subIdx, s.now)
	}
	if s.cfg.Jitter == 0 { //eucon:float-exact Jitter is copied from the config, never computed
		return mean
	}
	lo := mean * (1 - s.cfg.Jitter)
	hi := mean * (1 + s.cfg.Jitter)
	return lo + s.rng.Float64()*(hi-lo)
}

// scheduleFirstRelease schedules the periodic release of task i's first
// subtask at time at, re-timing the queued one when there is one.
//
//eucon:noalloc
func (s *Simulator) scheduleFirstRelease(i int, at float64) {
	if e := s.firstRel[i]; e != nil {
		e.job.release = at
		s.rekey(e, at)
		return
	}
	j := s.newJob()
	j.taskIdx = i
	j.release = at
	e := s.newEvent()
	e.at = at
	e.kind = evRelease
	e.job = j
	s.firstRel[i] = s.push(e)
}

// handleRelease admits a job to its processor's ready queue.
//
//eucon:noalloc
func (s *Simulator) handleRelease(e *event) {
	j := e.job
	ti := j.taskIdx
	t := &s.sys.Tasks[ti]
	period := s.period(ti)
	if j.subIdx == 0 {
		j.chainStart = s.now
		j.chainDL = s.now + float64(len(t.Subtasks))*period
		// Schedule the next periodic release.
		s.scheduleFirstRelease(ti, s.now+period)
	}
	sub := s.subOff[ti] + j.subIdx
	// Load shedding: skip the release when this subtask's backlog is full.
	if s.cfg.MaxBacklog > 0 && s.backlog[sub] >= s.cfg.MaxBacklog {
		s.trace.Stats.SkippedJobs++
		s.putJob(j)
		return
	}
	st := &t.Subtasks[j.subIdx]
	// Crash windows: a down processor refuses admission; the release is
	// lost, not queued (the periodic chain above keeps running, so the
	// task resumes when the processor recovers).
	if s.faults.Enabled() && s.faults.Down(st.Processor, s.now) {
		s.trace.Stats.CrashShedJobs++
		s.putJob(j)
		return
	}
	j.proc = st.Processor
	j.release = s.now
	j.deadline = s.now + period
	j.remaining = s.drawExecTime(st.EstimatedCost, j.proc, ti, j.subIdx)
	s.lastRelease[sub] = s.now
	s.backlog[sub]++
	s.trace.Stats.ReleasedJobs++
	s.cur.Released++

	s.procs[j.proc].ready.push(j)
	s.dispatch(j.proc)
}

// handleCompletion finishes the running job on a processor.
//
//eucon:noalloc
func (s *Simulator) handleCompletion(e *event) {
	p := &s.procs[e.proc]
	s.accrue(e.proc)
	j := p.running
	if j.remaining > timeEps {
		// Numerical drift: reschedule the residue.
		s.scheduleCompletion(e.proc)
		return
	}
	p.running = nil
	s.completeJob(j)
	s.putJob(j)
	s.dispatch(e.proc)
}

// completeJob records statistics and releases the successor subtask under
// the release guard protocol. The caller still owns j and recycles it.
//
//eucon:noalloc
func (s *Simulator) completeJob(j *job) {
	s.trace.Stats.CompletedJobs++
	s.cur.Completed++
	s.backlog[s.subOff[j.taskIdx]+j.subIdx]--
	if s.now > j.deadline+timeEps {
		s.trace.Stats.SubtaskDeadlineMisses++
		s.cur.SubtaskMisses++
	}
	t := &s.sys.Tasks[j.taskIdx]
	if j.subIdx == len(t.Subtasks)-1 {
		s.trace.Stats.EndToEndCompletions++
		s.cur.EndToEndCompletions++
		if s.now > j.chainDL+timeEps {
			s.trace.Stats.EndToEndDeadlineMisses++
			s.cur.EndToEndMisses++
		}
		return
	}
	// Release guard: the successor is released at
	// max(predecessor completion, previous release + period), keeping it
	// periodic with minimum separation of one period.
	next := j.subIdx + 1
	guard := s.now
	if last := s.lastRelease[s.subOff[j.taskIdx]+next]; last >= 0 {
		if g := last + s.period(j.taskIdx); g > guard {
			guard = g
		}
	}
	succ := s.newJob()
	succ.taskIdx = j.taskIdx
	succ.subIdx = next
	succ.chainStart = j.chainStart
	succ.chainDL = j.chainDL
	e := s.newEvent()
	e.at = guard
	e.kind = evRelease
	e.job = succ
	s.push(e)
}

// accrue charges CPU time to the running job up to the current instant.
//
//eucon:noalloc
func (s *Simulator) accrue(procIdx int) {
	p := &s.procs[procIdx]
	if p.running == nil {
		return
	}
	elapsed := s.now - p.runStart
	if elapsed <= 0 {
		return
	}
	p.running.remaining -= elapsed
	if p.running.remaining < 0 {
		p.running.remaining = 0
	}
	p.busy += elapsed
	p.runStart = s.now
}

// dispatch re-evaluates which job should hold processor procIdx under RMS
// (shortest current period first) and schedules its completion.
//
//eucon:noalloc
func (s *Simulator) dispatch(procIdx int) {
	s.accrue(procIdx)
	p := &s.procs[procIdx]
	if p.running != nil {
		// Fast path: the incumbent keeps the CPU unless a higher-priority
		// job is waiting.
		if p.ready.len() == 0 || !s.higherPriority(p.ready.peek(), p.running) {
			return
		}
		p.ready.push(p.running)
		p.running = nil
	}
	if p.ready.len() == 0 {
		return
	}
	p.running = p.ready.pop()
	p.runStart = s.now
	s.scheduleCompletion(procIdx)
}

// higherPriority implements RMS with deterministic tie-breaking: shorter
// current period wins; ties break by task index, then subtask index, then
// earlier release.
//
//eucon:noalloc
//eucon:float-exact tie-break of a total order; equal periods must compare equal
func (s *Simulator) higherPriority(a, b *job) bool {
	pa, pb := s.period(a.taskIdx), s.period(b.taskIdx)
	if pa != pb {
		return pa < pb
	}
	if a.taskIdx != b.taskIdx {
		return a.taskIdx < b.taskIdx
	}
	if a.subIdx != b.subIdx {
		return a.subIdx < b.subIdx
	}
	return a.release < b.release
}

// scheduleCompletion schedules the tentative finish of the running job,
// re-timing the processor's queued completion when there is one (the job
// it was for was just preempted).
//
//eucon:noalloc
func (s *Simulator) scheduleCompletion(procIdx int) {
	p := &s.procs[procIdx]
	at := s.now + p.running.remaining
	if p.comp != nil {
		s.rekey(p.comp, at)
		return
	}
	e := s.newEvent()
	e.at = at
	e.kind = evCompletion
	e.proc = procIdx
	p.comp = s.push(e)
}

// handleSampling closes the current sampling window: it records
// utilizations and rates, consults the controller, and applies new rates.
// Trace rows are slices of the run-length backing buffers, so the steady
// state allocates nothing here.
//
//eucon:noalloc
func (s *Simulator) handleSampling() error {
	k := len(s.trace.Utilization)
	np := len(s.procs)
	faulted := s.faults.Enabled()
	guarded := !s.cfg.DisableGuards
	u := s.utilBacking[k*np : (k+1)*np : (k+1)*np]
	for i := range s.procs {
		s.accrue(i)
		u[i] = s.procs[i].busy / s.cfg.SamplingPeriod
		if guarded && !(u[i] >= 0) {
			// Invariant guard: a NaN or negative busy fraction means clock
			// arithmetic was poisoned upstream; record 0 rather than let a
			// non-finite sample enter the trace and the feedback loop.
			u[i] = 0
			s.cur.GuardUtilFirings++
			s.trace.Stats.GuardUtilFirings++
		}
		if u[i] > 1 {
			u[i] = 1
		}
		if faulted && s.faults.DownPeriod(k, i) {
			// A crashed processor's monitor reports saturation; the trace
			// records what the monitor reported, not the idle truth.
			u[i] = 1
			s.cur.ProcsDown++
		}
		s.procs[i].busy = 0
	}
	if guarded {
		if imbalance := s.auditPools(); imbalance != 0 {
			s.cur.GuardPoolImbalance = imbalance
			s.trace.Stats.GuardPoolFirings++
		}
	}
	s.trace.Utilization = append(s.trace.Utilization, u) //eucon:alloc-ok appends a row header into a run-length pre-capped slice
	s.trace.Periods = append(s.trace.Periods, s.cur)     //eucon:alloc-ok appends into a run-length pre-capped slice
	s.cur = PeriodStats{}
	nt := len(s.rates)
	applied := s.ratesBacking[k*nt : (k+1)*nt : (k+1)*nt]
	copy(applied, s.rates)
	s.trace.Rates = append(s.trace.Rates, applied) //eucon:alloc-ok appends a row header into a run-length pre-capped slice

	if s.cfg.Controller == nil {
		return nil
	}
	uIn := u
	if faulted {
		uIn = s.deliverFeedback(k, u)
	}
	uIn, held, skip := s.hold.Apply(uIn)
	ps := &s.trace.Periods[k]
	ps.HeldSamples = held
	newRates := applied
	if skip {
		// No trustworthy utilization picture: hold the applied rates.
		ps.ControlSkipped = 1
	} else {
		var err error
		newRates, err = s.cfg.Controller.Step(k, uIn, applied) //eucon:alloc-ok controller boundary: plugged controllers may allocate; the plant does not
		if err != nil {
			// A controller failure must not crash the plant: keep current rates.
			s.trace.Stats.ControllerErrors++
			if faulted {
				// Keeping the rates is this period's effective command; record
				// it so delayed actuation has a source to replay.
				copy(s.cmdBacking[k*nt:(k+1)*nt], s.rates)
			}
			return nil
		}
		if len(newRates) != len(s.rates) {
			//eucon:alloc-ok fatal error path, not steady state
			return fmt.Errorf("sim: controller %s returned %d rates, want %d", s.cfg.Controller.Name(), len(newRates), len(s.rates))
		}
	}
	if guarded {
		newRates = s.guardRates(k, newRates)
	}
	if faulted {
		newRates = s.applyCommandFaults(k, newRates)
	}
	s.applyRates(newRates)
	return nil
}

// guardRates is the runtime invariant guard on controller output: every
// commanded rate must be finite and inside its task's [RateMin, RateMax]
// box. Healthy vectors pass through untouched (same slice, zero cost);
// violations are counted in the trace and replaced — non-finite commands
// hold the task's current rate, out-of-bounds commands clamp — in a
// scratch copy, because the controller's slice may alias a trace row.
//
//eucon:noalloc
func (s *Simulator) guardRates(k int, newRates []float64) []float64 {
	bad := 0
	for i, r := range newRates {
		t := &s.sys.Tasks[i]
		if !(r >= t.RateMin) || !(r <= t.RateMax) {
			bad++
		}
	}
	if bad == 0 {
		return newRates
	}
	out := s.guardBuf
	copy(out, newRates)
	for i, r := range out {
		t := &s.sys.Tasks[i]
		switch {
		case math.IsNaN(r) || math.IsInf(r, 0):
			out[i] = s.rates[i] // no trustworthy command: hold
		case r < t.RateMin:
			out[i] = t.RateMin
		case r > t.RateMax:
			out[i] = t.RateMax
		}
	}
	ps := &s.trace.Periods[k]
	ps.GuardRateFirings += bad
	s.trace.Stats.GuardRateFirings += bad
	return out
}

// auditPools checks the pooled-object conservation law at a sampling
// boundary: every event and job ever allocated is either in its free list
// or accounted for in exactly one live location (the event queue, a ready
// queue, a running slot, or — for the sampling event being handled — the
// run loop's hands). A back-pointer (firstRel, processor.comp) naming an
// event that is not queued counts one more. A nonzero return is the total
// accounting discrepancy in objects, marking a leak or double-recycle.
//
//eucon:noalloc
func (s *Simulator) auditPools() int {
	imbalance := 0
	carriedJobs := 0
	for i := range s.events.buckets {
		for e := s.events.buckets[i].head; e != nil; e = e.next {
			if e.job != nil {
				carriedJobs++
			}
		}
	}
	liveJobs := carriedJobs
	for p := range s.procs {
		pr := &s.procs[p]
		liveJobs += pr.ready.len()
		if pr.running != nil {
			liveJobs++
		}
		if pr.comp != nil && !s.events.queued(pr.comp) {
			imbalance++
		}
	}
	for _, e := range s.firstRel {
		if e != nil && !s.events.queued(e) {
			imbalance++
		}
	}
	// +1: the sampling event driving this call is popped but not yet
	// recycled by the run loop.
	liveEvents := s.events.len() + 1
	if d := s.eventsMade - len(s.freeEvents) - liveEvents; d != 0 {
		if d < 0 {
			d = -d
		}
		imbalance += d
	}
	if d := s.jobsMade - len(s.freeJobs) - liveJobs; d != 0 {
		if d < 0 {
			d = -d
		}
		imbalance += d
	}
	return imbalance
}

// deliverFeedback builds the utilization vector the controller actually
// receives under the compiled feedback faults: dropped samples become NaN
// (HoldLast takes over), delayed samples replay the recorded measurement
// of an earlier period, and quantized samples are rounded to the fault's
// step. The pristine vector u stays in the trace.
//
//eucon:noalloc
func (s *Simulator) deliverFeedback(k int, u []float64) []float64 {
	ps := &s.trace.Periods[k]
	for p := range u {
		cell := s.faults.Feedback(k, p)
		v := u[p]
		switch {
		case cell.Src < 0:
			v = math.NaN()
			ps.FeedbackMissing++
		case cell.Src < k:
			v = s.trace.Utilization[cell.Src][p]
			ps.FeedbackStale++
		}
		if cell.Quant > 0 && cell.Src >= 0 {
			v = math.Round(v/cell.Quant) * cell.Quant
		}
		s.uDeliver[p] = v
	}
	return s.uDeliver
}

// applyCommandFaults records the controller's commanded rates for period k
// and returns the rate vector the modulator actually applies under the
// compiled actuator faults: delayed commands replay the command issued
// Delay periods earlier, dropped commands hold the current rate, and
// clamped commands bound the per-period rate move around it.
//
//eucon:noalloc
func (s *Simulator) applyCommandFaults(k int, newRates []float64) []float64 {
	nt := len(newRates)
	cmd := s.cmdBacking[k*nt : (k+1)*nt : (k+1)*nt]
	copy(cmd, newRates)
	ps := &s.trace.Periods[k]
	for i := 0; i < nt; i++ {
		cell := s.faults.Command(k, i)
		want := cmd[i]
		hit := false
		if cell.Delay > 0 {
			hit = true
			if src := k - cell.Delay; src >= 0 {
				want = s.cmdBacking[src*nt+i]
			} else {
				want = s.rates[i] // nothing was commanded that early: hold
			}
		}
		if cell.Drop {
			hit = true
			want = s.rates[i] // dropped command: the modulator holds its rate
		}
		if cell.Clamp >= 0 {
			hit = true
			if lo := s.rates[i] - cell.Clamp; want < lo {
				want = lo
			}
			if hi := s.rates[i] + cell.Clamp; want > hi {
				want = hi
			}
		}
		if hit {
			ps.RateCmdFaults++
		}
		s.effRates[i] = want
	}
	return s.effRates
}

// applyRates installs new task rates, clamped to each task's bounds, and
// reschedules pending periodic releases to honor the new periods.
//
//eucon:noalloc
func (s *Simulator) applyRates(newRates []float64) {
	changed := false
	for i, r := range newRates {
		t := &s.sys.Tasks[i]
		if r < t.RateMin {
			r = t.RateMin
		}
		if r > t.RateMax {
			r = t.RateMax
		}
		if r != s.rates[i] { //eucon:float-exact change detection on values that are only ever copied
			s.rates[i] = r
			changed = true
			// Re-time the next periodic release of the first subtask.
			next := s.now
			if last := s.lastRelease[s.subOff[i]]; last >= 0 {
				if g := last + s.period(i); g > next {
					next = g
				}
			}
			s.scheduleFirstRelease(i, next)
		}
	}
	if !changed {
		return
	}
	// Periods changed, so RMS priorities changed: restore each ready heap's
	// invariant under the new order and re-dispatch so preemption reflects
	// it.
	for p := range s.procs {
		s.procs[p].ready.reinit()
		s.dispatch(p)
	}
}
