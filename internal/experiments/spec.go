package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"github.com/rtsyslab/eucon/internal/baseline"
	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/fault"
	"github.com/rtsyslab/eucon/internal/metrics"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// WorkloadKind selects one of the paper's workload configurations.
//
//eucon:exhaustive
type WorkloadKind int

// Workload kinds.
const (
	// WorkloadSimple is the paper's SIMPLE system (Table 1): deterministic
	// execution times, P=2/M=1 controller.
	WorkloadSimple WorkloadKind = iota + 1
	// WorkloadMedium is the paper's MEDIUM system: uniform-random execution
	// times, P=4/M=2 controller.
	WorkloadMedium
	// WorkloadLarge128 is this reproduction's LARGE-128 scaling system: 128
	// processors in a line, 640 tasks with bounded chain fan-out so the
	// allocation matrix is block-banded (see workload.Large).
	WorkloadLarge128
	// WorkloadLarge1024 is LARGE-1024: 1024 processors, 5120 tasks, same
	// banded structure at a scale where dense centralized control is
	// infeasible.
	WorkloadLarge1024
)

// String implements fmt.Stringer.
func (k WorkloadKind) String() string {
	switch k {
	case WorkloadSimple:
		return "SIMPLE"
	case WorkloadMedium:
		return "MEDIUM"
	case WorkloadLarge128:
		return "LARGE-128"
	case WorkloadLarge1024:
		return "LARGE-1024"
	default:
		return fmt.Sprintf("WorkloadKind(%d)", int(k))
	}
}

// Spec describes one experiment run or sweep in the unified API. The zero
// values of optional fields select the paper defaults, so
//
//	Run(ctx, Spec{Workload: WorkloadSimple})
//
// reproduces a Figure 3 style run under EUCON at etf = 1.
type Spec struct {
	// Workload selects the system and its controller parameters (Table 2).
	// Required. Execution-time jitter is a property of the workload, as in
	// the paper: SIMPLE is deterministic, MEDIUM draws uniform-random
	// execution times.
	Workload WorkloadKind
	// Controller selects the rate controller. Zero selects KindEUCON.
	Controller ControllerKind
	// ETF is the execution-time factor schedule for Run (zero: etf = 1).
	// Sweeps ignore it: each sweep point installs its own constant factor.
	ETF sim.ETFSchedule
	// Periods is the run length in sampling periods. Zero selects
	// DefaultPeriods (300, the span of the paper's figures).
	Periods int
	// Seed drives all randomness. Replication r of a sweep point uses
	// Seed + r, so runs are reproducible and replications independent.
	Seed int64
	// Replications is the number of independently seeded runs per sweep
	// point; their measurement windows are pooled into the point's summary.
	// Zero selects 1 (the paper's single-run sweeps). Run ignores it.
	Replications int
	// Parallelism caps the worker count of SweepParallel. Zero selects
	// GOMAXPROCS. Run and Sweep ignore it.
	Parallelism int
	// Faults is the deterministic fault scenario injected into every run
	// (see package fault; named scenarios come from fault.Lookup). Empty
	// means no faults and leaves the simulator on its bit-identical
	// no-fault fast path. Sweeps inject the same scenario into every
	// (etf, replication) job; each job re-resolves probabilistic faults
	// from its own run seed, so replications see independent patterns.
	Faults []fault.Spec
	// Explicit runs the MPC controller in explicit mode (see
	// core.Config.Explicit). The mode changes no rate, so every trace,
	// sweep series, and digest is unchanged; only
	// Stats.ExplicitHits/ExplicitMisses differ. Ignored by non-MPC
	// controller kinds.
	Explicit bool
	// System overrides the paper workload with a custom task system; with
	// it set, Workload may be left zero. EUCON controllers for custom
	// systems are built with the paper's SIMPLE parameters — supply Custom
	// for different tuning.
	System *task.System
	// Custom supplies a pre-built controller, overriding Controller (and
	// the Explicit flag). Run uses it directly; sweeps reject it, because
	// one instance cannot be replicated across sweep workers.
	Custom sim.Controller
	// SamplingPeriod overrides the sampling period in time units; zero
	// selects the paper's (workload.SamplingPeriod).
	SamplingPeriod float64
	// Jitter sets the execution-time jitter for a custom System; paper
	// workloads keep their canonical jitter (SIMPLE 0, MEDIUM 0.15) and
	// ignore it.
	Jitter float64
	// MaxBacklog bounds each subtask's job backlog, shedding releases
	// beyond it; zero selects the simulator default.
	MaxBacklog int
}

// normalized returns a copy with defaults applied.
func (s Spec) normalized() Spec {
	if s.Controller == 0 {
		s.Controller = KindEUCON
	}
	if s.Periods == 0 {
		s.Periods = DefaultPeriods
	}
	if s.Replications <= 0 {
		s.Replications = 1
	}
	if s.Parallelism <= 0 {
		s.Parallelism = runtime.GOMAXPROCS(0)
	}
	return s
}

// workload materializes the system, controller parameters, and jitter for
// the spec's workload kind (or custom System).
func (s Spec) workload() (*task.System, workloadParams, error) {
	var sys *task.System
	var wp workloadParams
	switch {
	case s.System != nil:
		sys, wp = s.System, workloadParams{cfg: workload.SimpleController(), jitter: s.Jitter}
	case s.Workload == WorkloadSimple:
		sys, wp = workload.Simple(), workloadParams{cfg: workload.SimpleController(), jitter: 0}
	case s.Workload == WorkloadMedium:
		sys, wp = workload.Medium(), workloadParams{cfg: workload.MediumController(), jitter: workload.MediumJitter}
	case s.Workload == WorkloadLarge128:
		sys, wp = workload.Large128(), workloadParams{cfg: workload.LargeController(), jitter: 0}
	case s.Workload == WorkloadLarge1024:
		sys, wp = workload.Large1024(), workloadParams{cfg: workload.LargeController(), jitter: 0}
	default:
		return nil, workloadParams{}, fmt.Errorf("experiments: unknown workload kind %d", int(s.Workload))
	}
	wp.cfg.Explicit = s.Explicit
	return sys, wp, nil
}

type workloadParams struct {
	cfg    core.Config
	jitter float64
}

// Run executes one simulation described by spec and returns its trace. The
// context is checked at every sampling boundary.
func Run(ctx context.Context, spec Spec) (*sim.Trace, error) {
	spec = spec.normalized()
	sys, wp, err := spec.workload()
	if err != nil {
		return nil, err
	}
	ctrl := spec.Custom
	if ctrl == nil {
		if ctrl, err = newController(spec.Controller, sys, wp.cfg); err != nil {
			return nil, err
		}
	}
	return runWith(ctx, spec, sys, wp, ctrl, spec.ETF, spec.Seed)
}

// simConfig is the one place a Spec turns into a simulator configuration,
// so every entry point — single runs, serial sweeps, parallel sweep
// workers — drives the simulator identically.
func simConfig(spec Spec, sys *task.System, wp workloadParams, ctrl sim.Controller, etf sim.ETFSchedule, seed int64) sim.Config {
	sp := spec.SamplingPeriod
	if sp <= 0 {
		sp = workload.SamplingPeriod
	}
	return sim.Config{
		System:         sys,
		SamplingPeriod: sp,
		Periods:        spec.Periods,
		Controller:     ctrl,
		ETF:            etf,
		Jitter:         wp.jitter,
		Seed:           seed,
		Faults:         spec.Faults,
		MaxBacklog:     spec.MaxBacklog,
	}
}

// runWith runs one simulation with an already-built controller; single
// runs and the DEUCON extension share it.
func runWith(ctx context.Context, spec Spec, sys *task.System, wp workloadParams, ctrl sim.Controller, etf sim.ETFSchedule, seed int64) (*sim.Trace, error) {
	s, err := sim.New(simConfig(spec, sys, wp, ctrl, etf, seed))
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx)
}

// Sweep runs spec once per execution-time factor, serially in the caller's
// goroutine, and summarizes P1's steady-state utilization per point — the
// Figure 4/5 series. It is SweepParallel at one worker, so its results are
// identical to SweepParallel's with any worker count.
func Sweep(ctx context.Context, spec Spec, etfs []float64) ([]SweepPoint, error) {
	spec.Parallelism = 1
	return SweepParallel(ctx, spec, etfs)
}

// SweepParallel is Sweep fanned across a worker pool: the (etf,
// replication) grid is distributed over min(Parallelism, jobs) workers.
// Every job is an independently seeded simulation, and results are indexed
// by grid position rather than completion order, so the returned series is
// bit-identical to Sweep's regardless of worker count or scheduling. The
// first failure (or context cancellation) stops the remaining work.
func SweepParallel(ctx context.Context, spec Spec, etfs []float64) ([]SweepPoint, error) {
	spec = spec.normalized()
	sw, err := newSweep(spec, etfs)
	if err != nil {
		return nil, err
	}
	n := sw.jobs()
	workers := spec.Parallelism
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		w := sw.newWorker()
		for job := 0; job < n; job++ {
			if err := w.run(ctx, job); err != nil {
				return nil, err
			}
		}
		return sw.points()
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make(chan int)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine owns one worker: its simulator, controller,
			// and object pools are confined to this goroutine for the whole
			// sweep, so recycled events and jobs never cross goroutines.
			sww := sw.newWorker()
			for job := range jobs {
				if err := sww.run(ctx, job); err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel() // stop the other workers promptly
					})
					return
				}
			}
		}()
	}
feed:
	for job := 0; job < n; job++ {
		select {
		case jobs <- job:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("experiments: sweep canceled: %w", err)
	}
	return sw.points()
}

// sweep holds the shared state of one sweep: the job grid and the
// position-indexed windows. run may be called concurrently for distinct
// job indices.
type sweep struct {
	spec Spec
	sys  *task.System
	wp   workloadParams
	etfs []float64
	open *baseline.Open // analytic comparator, MEDIUM only

	// setPoints are the per-processor utilization set points, shared by
	// every job's robustness measurement.
	setPoints []float64

	// windows[etfIdx*Replications + rep] is that run's P1 measurement
	// window; robust mirrors its indexing with the run's robustness
	// metrics. Jobs write disjoint slots, so no locking is needed.
	windows [][]float64
	robust  []Robustness
}

func newSweep(spec Spec, etfs []float64) (*sweep, error) {
	if spec.Custom != nil {
		return nil, fmt.Errorf("experiments: Custom controllers are not supported in sweeps (one instance cannot serve multiple workers); use Run")
	}
	sys, wp, err := spec.workload()
	if err != nil {
		return nil, err
	}
	sw := &sweep{
		spec:      spec,
		sys:       sys,
		wp:        wp,
		etfs:      etfs,
		setPoints: sys.DefaultSetPoints(),
		windows:   make([][]float64, len(etfs)*spec.Replications),
		robust:    make([]Robustness, len(etfs)*spec.Replications),
	}
	if spec.Workload == WorkloadMedium {
		if sw.open, err = baseline.NewOpen(sys, nil); err != nil {
			return nil, err
		}
	}
	return sw, nil
}

func (s *sweep) jobs() int { return len(s.etfs) * s.spec.Replications }

// sweepWorker executes sweep jobs sequentially on one goroutine, keeping
// one simulator and one controller alive across all of them. The simulator
// is Reset between jobs (recycling its event/job pools and trace buffers)
// and the controller is Reset when it supports it, so a replication costs
// no steady-state allocations instead of a full rebuild. Both resets
// restore exact post-construction state, keeping results bit-identical to
// fresh per-job construction — the determinism tests pin this.
type sweepWorker struct {
	sw   *sweep
	sim  *sim.Simulator
	ctrl sim.Controller
	// built records that ctrl was constructed (it may legitimately be nil
	// for KindNone, so nil alone cannot mean "not yet built").
	built bool
}

func (s *sweep) newWorker() *sweepWorker { return &sweepWorker{sw: s} }

// controller returns a controller in post-construction state: the reused
// one (Reset is part of the Controller interface), built on first use.
func (w *sweepWorker) controller() (sim.Controller, error) {
	if w.built {
		if w.ctrl == nil { // KindNone: nothing to reset or rebuild
			return nil, nil
		}
		w.ctrl.Reset()
		return w.ctrl, nil
	}
	ctrl, err := newController(w.sw.spec.Controller, w.sw.sys, w.sw.wp.cfg)
	if err != nil {
		return nil, err
	}
	w.ctrl, w.built = ctrl, true
	return ctrl, nil
}

// run executes grid position job and stores its measurement window.
func (w *sweepWorker) run(ctx context.Context, job int) error {
	s := w.sw
	etfIdx, rep := job/s.spec.Replications, job%s.spec.Replications
	etf := s.etfs[etfIdx]
	ctrl, err := w.controller()
	if err != nil {
		return err
	}
	cfg := simConfig(s.spec, s.sys, s.wp, ctrl, sim.ConstantETF(etf), s.spec.Seed+int64(rep))
	if w.sim == nil {
		w.sim, err = sim.New(cfg)
	} else {
		err = w.sim.Reset(cfg)
	}
	if err != nil {
		return fmt.Errorf("sweep %s etf=%g rep=%d: %w", s.spec.Workload, etf, rep, err)
	}
	tr, err := w.sim.RunContext(ctx)
	if err != nil {
		return fmt.Errorf("sweep %s etf=%g rep=%d: %w", s.spec.Workload, etf, rep, err)
	}
	// Column copies out of the trace, so the window survives the next
	// Reset of this worker's simulator.
	s.windows[job] = metrics.Window(metrics.Column(tr.Utilization, 0), WindowStart, WindowEnd)
	s.robust[job] = TraceRobustness(tr, s.setPoints, WindowStart, WindowEnd)
	return nil
}

// points aggregates the stored windows into the ordered SweepPoint series,
// pooling replications per execution-time factor.
func (s *sweep) points() ([]SweepPoint, error) {
	b := s.setPoints[0]
	points := make([]SweepPoint, 0, len(s.etfs))
	for i, etf := range s.etfs {
		var pooled []float64
		var rb Robustness
		for rep := 0; rep < s.spec.Replications; rep++ {
			w := s.windows[i*s.spec.Replications+rep]
			if w == nil {
				return nil, fmt.Errorf("experiments: sweep point etf=%g rep=%d missing", etf, rep)
			}
			pooled = append(pooled, w...)
			r := s.robust[i*s.spec.Replications+rep]
			if rep == 0 {
				// Private copy: worseRobustness mutates its first argument.
				rb = Robustness{
					SettlingTime: r.SettlingTime,
					MaxOvershoot: r.MaxOvershoot,
					TimeInSpec:   append([]float64(nil), r.TimeInSpec...),
				}
			} else {
				rb = worseRobustness(rb, r)
			}
		}
		sum := metrics.Summarize(pooled)
		p := SweepPoint{
			ETF:        etf,
			P1:         sum,
			SetPoint:   b,
			Acceptable: sum.Acceptable(b),
			Robust:     rb,
		}
		if s.open != nil {
			p.OpenExpected = s.open.ExpectedUtilization(s.sys, etf)[0]
		}
		points = append(points, p)
	}
	return points, nil
}
