// Package core implements EUCON — End-to-end Utilization CONtrol — the
// primary contribution of the paper. EUCON closes a MIMO feedback loop
// around a distributed real-time system: at the end of every sampling
// period it collects the utilization of all processors, solves a
// constrained model-predictive optimization built from the system's subtask
// allocation matrix, and commands new task rates that drive every
// processor's utilization to its set point despite unknown execution times.
package core

import (
	"fmt"

	"github.com/rtsyslab/eucon/internal/empc"
	"github.com/rtsyslab/eucon/internal/mat"
	"github.com/rtsyslab/eucon/internal/mpc"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/stability"
	"github.com/rtsyslab/eucon/internal/task"
)

// Config tunes the EUCON controller. The zero value selects the paper's
// SIMPLE controller parameters (Table 2): P = 2, M = 1, Tref/Ts = 4.
type Config struct {
	// PredictionHorizon is P; 0 selects 2.
	PredictionHorizon int
	// ControlHorizon is M; 0 selects 1.
	ControlHorizon int
	// TrefOverTs is the reference time constant in sampling periods; 0
	// selects 4.
	TrefOverTs float64
	// DisableOutputConstraints removes the hard u ≤ B constraints (for
	// ablation studies).
	DisableOutputConstraints bool
	// MeasurementFilter, in (0, 1], low-pass filters the utilization
	// measurements with an EWMA before the MPC sees them:
	// û(k) = α·u(k) + (1−α)·û(k−1). Zero disables filtering. Filtering
	// counters the sampling-window quantization noise of busy-time
	// monitors; without it, noise plus the asymmetric response of the hard
	// u ≤ B constraints biases the achieved mean slightly below the set
	// point. (The paper does not describe its monitor's smoothing; this is
	// our documented addition — see EXPERIMENTS.md.)
	MeasurementFilter float64
	// Explicit compiles the MPC's parametric QP into an offline
	// piecewise-affine law at construction (see internal/empc): an analysis
	// artefact (regions, gains, digest — ExplicitReport) plus run-time
	// bookkeeping. Rates, traces, digests and the per-step cost are the same
	// with or without it; ExplicitCounts reports how many steps lay in the
	// law's interior critical region (hits) versus anywhere else (misses).
	Explicit bool
	// ExplicitMaxRegions caps the offline region enumeration; 0 selects
	// the empc default.
	ExplicitMaxRegions int
}

func (c Config) withDefaults() Config {
	if c.PredictionHorizon == 0 {
		c.PredictionHorizon = 2
	}
	if c.ControlHorizon == 0 {
		c.ControlHorizon = 1
	}
	if mat.IsZero(c.TrefOverTs) {
		c.TrefOverTs = 4
	}
	return c
}

// Controller is the EUCON rate controller. It implements sim.Controller
// and is driven once per sampling period. It is not safe for concurrent
// use.
type Controller struct {
	sys      *task.System
	mpc      *mpc.Controller
	cfg      Config
	f        *mat.Dense
	filtered []float64      // EWMA state when MeasurementFilter > 0
	res      mpc.StepResult // reused by every Step; sized by the first
	relaxed  int
	steps    int

	// explicitReport is the offline-compile report when Config.Explicit
	// was set; nil otherwise.
	explicitReport *empc.Report

	// keBuf and kdBuf back the allocation-free gain queries of
	// CriticalGain and StableAt (mpc.GainsTo), built on first use.
	keBuf, kdBuf *mat.Dense
}

var (
	_ sim.Controller          = (*Controller)(nil)
	_ sim.ContainmentReporter = (*Controller)(nil)
	_ sim.ExplicitReporter    = (*Controller)(nil)
)

// New builds an EUCON controller for the given system and utilization set
// points (one per processor). Passing nil set points selects the paper's
// defaults: the Liu–Layland schedulable bound of each processor's subtask
// count (eq. 13), which makes utilization control enforce all subdeadlines.
func New(sys *task.System, setPoints []float64, cfg Config) (*Controller, error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("eucon: %w", err)
	}
	if setPoints == nil {
		setPoints = sys.DefaultSetPoints()
	}
	if err := checkSetPoints(setPoints, sys.Processors); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.MeasurementFilter < 0 || cfg.MeasurementFilter > 1 {
		return nil, fmt.Errorf("eucon: measurement filter %g outside [0, 1]", cfg.MeasurementFilter)
	}
	f := sys.AllocationMatrix()
	rmin, rmax := sys.RateBounds()
	m, err := mpc.New(f, setPoints, rmin, rmax, mpc.Config{
		PredictionHorizon:        cfg.PredictionHorizon,
		ControlHorizon:           cfg.ControlHorizon,
		TrefOverTs:               cfg.TrefOverTs,
		DisableOutputConstraints: cfg.DisableOutputConstraints,
	})
	if err != nil {
		return nil, fmt.Errorf("eucon: %w", err)
	}
	c := &Controller{sys: sys, mpc: m, cfg: cfg, f: f}
	if cfg.Explicit {
		rep, err := m.CompileExplicit(empc.Options{MaxRegions: cfg.ExplicitMaxRegions})
		if err != nil {
			return nil, fmt.Errorf("eucon: %w", err)
		}
		c.explicitReport = rep
	}
	return c, nil
}

// checkSetPoints requires one set point per processor, each in (0, 1].
func checkSetPoints(b []float64, processors int) error {
	if len(b) != processors {
		return fmt.Errorf("eucon: %d set points for %d processors", len(b), processors)
	}
	for p, v := range b {
		if !(v > 0 && v <= 1) {
			return fmt.Errorf("eucon: set point %g for processor %d outside (0, 1]", v, p)
		}
	}
	return nil
}

// Name implements sim.Controller.
func (c *Controller) Name() string { return "EUCON" }

// Step implements sim.Controller: one feedback-loop invocation. Missing
// measurements are the caller's to handle (sim.HoldLast): a vector with a
// NaN or Inf entry bypasses the measurement filter, whose state it would
// poison for good, and reaches the MPC, whose non-finite rung holds the
// rates. The returned slice aliases controller memory the next Step
// overwrites; it may be passed back as that Step's rates.
func (c *Controller) Step(_ int, u, rates []float64) ([]float64, error) {
	if len(u) != c.sys.Processors {
		return nil, fmt.Errorf("eucon: utilization vector has length %d, want %d", len(u), c.sys.Processors)
	}
	if len(rates) != len(c.sys.Tasks) {
		return nil, fmt.Errorf("eucon: rate vector has length %d, want %d", len(rates), len(c.sys.Tasks))
	}
	if a := c.cfg.MeasurementFilter; a > 0 && a < 1 && mat.VecFinite(u) {
		if c.filtered == nil {
			c.filtered = append([]float64(nil), u...)
		} else if len(c.filtered) == len(u) {
			for i := range u {
				c.filtered[i] = a*u[i] + (1-a)*c.filtered[i]
			}
		}
		u = c.filtered
	}
	if err := c.mpc.StepTo(&c.res, u, rates); err != nil {
		return nil, fmt.Errorf("eucon: %w", err)
	}
	c.steps++
	if c.res.OutputConstraintsRelaxed {
		c.relaxed++
	}
	return c.res.NewRates, nil
}

// AntiWindupSyncs reports how many per-task MPC move-memory entries had to
// be reconciled against the achieved rate move because actuation diverged
// from the command (see internal/mpc).
func (c *Controller) AntiWindupSyncs() int { return c.mpc.AntiWindupSyncs() }

// ContainmentCounts implements sim.ContainmentReporter: how many control
// steps since construction or Reset held the applied rates because the
// MPC's solve failed or its inputs were non-finite. The first two results
// are always 0 (see mpc.Controller.ContainmentCounts).
func (c *Controller) ContainmentCounts() (bestIterate, regularized, held int) {
	return c.mpc.ContainmentCounts()
}

// LastOutcome reports how the MPC produced the most recent control move
// (see mpc.SolveOutcome).
func (c *Controller) LastOutcome() mpc.SolveOutcome { return c.mpc.LastOutcome() }

// SetPoints returns the current utilization set points.
func (c *Controller) SetPoints() []float64 { return c.mpc.SetPoints() }

// UpdateSetPoints changes the set points online (overload protection:
// paper §3.3). When the controller runs with an explicit law and the set
// points actually change, the law is recompiled for the new set points —
// the piecewise-affine offsets bake them in — so the law and its counters
// survive overload-protection transitions. Recompilation is an
// offline-scale cost (tens of milliseconds) paid only on genuine set-point
// changes. The set points are validated as New validates them; on an error
// nothing changes.
func (c *Controller) UpdateSetPoints(b []float64) error {
	if err := checkSetPoints(b, c.sys.Processors); err != nil {
		return err
	}
	if err := c.mpc.UpdateSetPoints(b); err != nil {
		return fmt.Errorf("eucon: %w", err)
	}
	if c.cfg.Explicit && c.mpc.ExplicitLaw() == nil {
		rep, err := c.mpc.CompileExplicit(empc.Options{MaxRegions: c.cfg.ExplicitMaxRegions})
		if err != nil {
			return fmt.Errorf("eucon: recompile explicit law: %w", err)
		}
		c.explicitReport = rep
	}
	return nil
}

// ExplicitCounts implements sim.ExplicitReporter: explicit-law hits and
// misses since construction or Reset. Both are zero when the
// controller runs without Config.Explicit.
func (c *Controller) ExplicitCounts() (hits, misses int) { return c.mpc.ExplicitCounts() }

// ExplicitReport returns the offline-compile report of the explicit law
// (region count, exploration stats, build digest), or nil when the
// controller runs without Config.Explicit.
func (c *Controller) ExplicitReport() *empc.Report { return c.explicitReport }

// Reset restores the controller to its post-New state between runs: the
// MPC's move memory, warm-start cache, and measurement-filter state are
// cleared and the step counters restart. A Reset controller drives a run
// bit-identically to a freshly built one, which lets sweep workers reuse
// one controller across replications.
func (c *Controller) Reset() {
	c.mpc.Reset()
	c.filtered = nil
	c.relaxed = 0
	c.steps = 0
}

// RelaxedPeriods reports how many sampling periods required dropping the
// hard utilization constraints due to infeasibility (severe overload).
func (c *Controller) RelaxedPeriods() int { return c.relaxed }

// Steps reports how many control invocations have run.
func (c *Controller) Steps() int { return c.steps }

// Gains exposes the unconstrained feedback gain matrices for stability
// analysis (paper §6.2).
func (c *Controller) Gains() (ke, kd *mat.Dense, err error) { return c.mpc.Gains() }

// gains computes the unconstrained gain matrices into controller-owned
// buffers via the allocation-free mpc.GainsTo, so repeated stability
// queries re-solve against the cached factorization instead of rebuilding
// everything.
func (c *Controller) gains() (ke, kd *mat.Dense, err error) {
	if c.keBuf == nil {
		m, n := len(c.sys.Tasks), c.sys.Processors
		c.keBuf = mat.New(m, n)
		c.kdBuf = mat.New(m, m)
	}
	if err := c.mpc.GainsTo(c.keBuf, c.kdBuf); err != nil {
		return nil, nil, err
	}
	return c.keBuf, c.kdBuf, nil
}

// CriticalGain computes the critical uniform utilization gain of the
// closed loop by bisection over [lo, hi]: the execution-time factor beyond
// which the system is predicted to lose stability.
func (c *Controller) CriticalGain(lo, hi float64) (float64, error) {
	ke, kd, err := c.gains()
	if err != nil {
		return 0, fmt.Errorf("eucon: %w", err)
	}
	g, err := stability.CriticalGain(c.f, ke, kd, lo, hi, 1e-4)
	if err != nil {
		return 0, fmt.Errorf("eucon: %w", err)
	}
	return g, nil
}

// StableAt reports whether the closed loop is predicted stable when every
// processor's utilization gain equals g (i.e. all execution times are g
// times their estimates).
func (c *Controller) StableAt(g float64) (bool, error) {
	ke, kd, err := c.gains()
	if err != nil {
		return false, fmt.Errorf("eucon: %w", err)
	}
	stable, err := stability.IsStable(c.f, ke, kd, mat.Constant(c.sys.Processors, g), 0)
	if err != nil {
		return false, fmt.Errorf("eucon: %w", err)
	}
	return stable, nil
}

// Structured reports whether the MPC solver's cached Hessian factorization
// uses the banded structure-exploiting backend, and its half bandwidth (0
// when dense).
func (c *Controller) Structured() (banded bool, bandwidth int) { return c.mpc.Structured() }
