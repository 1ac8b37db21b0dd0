// Package chaos is the seeded property-based robustness harness of the
// EUCON reproduction: it generates random compositions of fault scenarios
// and workload perturbations (package fault), runs full simulations of the
// canonical SIMPLE experiment under each, and checks an invariant set that
// must hold under ANY storm — no panic, finite in-bounds outputs, zero
// runtime-guard firings, re-convergence to the set points after the faults
// clear, and balanced object pools. When a scenario violates an invariant,
// the harness shrinks it to a 1-minimal fault clause list and emits it as
// a JSON spec runnable verbatim via `euconsim -faults`.
//
// Everything is deterministic: the campaign is a pure function of its seed
// (splitmix64 throughout, no global rand), and each scenario runs against
// the fixed canonical configuration, so a reported reproducer replays
// bit-identically anywhere.
package chaos

import (
	"context"
	"fmt"
	"math"

	"github.com/rtsyslab/eucon/internal/agent"
	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/deucon"
	"github.com/rtsyslab/eucon/internal/fault"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// Campaign selects the run configuration chaos scenarios execute against.
//
//eucon:exhaustive
type Campaign int

const (
	// CampaignSimple is the canonical campaign: the SIMPLE workload under
	// the centralized EUCON controller, drawing from the full fault-clause
	// alphabet. Reproducers replay verbatim via `euconsim -faults`.
	CampaignSimple Campaign = iota
	// CampaignLarge128 targets the localized DEUCON controller on the
	// LARGE-128 workload with processor-crash and feedback-drop clauses.
	// Every scenario runs twice — at 1 worker and at 8 workers — and the
	// two traces must be bit-identical, so the parallel-determinism
	// guarantee is checked under fault storms, not just on clean runs.
	CampaignLarge128
	// CampaignPartition targets the production distributed runtime itself:
	// each scenario boots a real controller Server plus an 8-agent fleet
	// over loopback TCP and injects network partitions (an agent isolated
	// for a window of periods, then healed and rejoined) and seeded
	// transport loss on the live lanes, both derived from the scenario's
	// fault clauses. The invariant set is the membership ledger balance,
	// zero controller restarts and errors, finite in-bounds traces, and
	// re-convergence after the network heals. Scenario generation and
	// shrinking are deterministic as in every campaign; the run itself
	// crosses real sockets, so the invariants are written to be
	// timing-tolerant (counts and bounds, never exact schedules).
	CampaignPartition
)

// String implements fmt.Stringer.
func (c Campaign) String() string {
	switch c {
	case CampaignSimple:
		return "simple"
	case CampaignLarge128:
		return "large128"
	case CampaignPartition:
		return "partition"
	default:
		return fmt.Sprintf("Campaign(%d)", int(c))
	}
}

// Canonical run configuration: identical to the `euconsim -faults` run
// (the SIMPLE workload, 300 sampling periods, run seed 1 — see
// internal/experiments), so shrunken reproducers replay exactly.
const (
	// DefaultPeriods is the canonical run length in sampling periods.
	DefaultPeriods = 300
	// DefaultScenarios is the campaign size when Options.Scenarios is 0 —
	// sized so `make chaos-smoke` stays well under its CI time budget.
	DefaultScenarios = 25
	// DefaultMaxClauses bounds the fault clause count per scenario.
	DefaultMaxClauses = 4
	// runSeed is the fixed simulation seed (experiments.DefaultSeed).
	runSeed = 1
)

// reconvergeTol is the re-convergence invariant's bound: over the final
// reconvergeTail periods (fault-free by construction of the generator),
// each processor's mean utilization must sit within this distance of its
// set point. Generous against the controller's typical post-fault error
// (well under 0.05) while still catching a loop that never recovers.
const (
	reconvergeTol  = 0.15
	reconvergeTail = 30
)

// maxShrinks caps how many violating scenarios a campaign shrinks to
// minimal reproducers (shrinking re-runs simulations).
const maxShrinks = 3

// maxProblemsPerRun caps the violation detail collected from one run, so
// a systemic failure (every period bad) stays readable.
const maxProblemsPerRun = 8

// Options tunes a chaos campaign.
type Options struct {
	// Seed is the campaign seed; scenario i is Generate(Seed, i, ...).
	Seed int64
	// Scenarios is the number of scenarios to run; 0 selects
	// DefaultScenarios.
	Scenarios int
	// MaxClauses bounds the fault clauses per scenario; 0 selects
	// DefaultMaxClauses.
	MaxClauses int
	// Periods is the run length; 0 selects DefaultPeriods. Values below
	// 80 are rejected: the generator needs room for fault windows plus a
	// fault-free re-convergence tail.
	Periods int
	// DisableGuards turns off the simulator's runtime invariant guards
	// (sim.Config.DisableGuards) so violations escape containment instead
	// of being caught and counted. Test-only: the shrinker tests use it to
	// prove a planted bug is found and minimized.
	DisableGuards bool
	// Campaign selects the run configuration (workload + controller +
	// clause alphabet); the zero value is the canonical SIMPLE campaign.
	Campaign Campaign
	// Explicit runs every SIMPLE scenario a second time with an explicit
	// law attached (core.Config.Explicit). The law is documented to change
	// no rate, so the second trace must be bit-identical to the first, and
	// its hits + misses must equal the controller steps; anything else is
	// a violation.
	Explicit bool

	// seedBug, when non-nil, plants a controller bug for harness
	// self-tests: during the active window of every generated clause
	// matching the predicate, the commanded rate of task 0 is corrupted
	// before it reaches the plant. Unexported — only this package's tests
	// can arm it, so production campaigns always run the real controller.
	seedBug func(fault.Spec) bool
}

func (o Options) withDefaults() Options {
	if o.Scenarios <= 0 {
		o.Scenarios = DefaultScenarios
	}
	if o.MaxClauses <= 0 {
		o.MaxClauses = DefaultMaxClauses
	}
	if o.Periods == 0 {
		o.Periods = DefaultPeriods
	}
	return o
}

// Violation reports one scenario that broke the invariant set.
type Violation struct {
	// Scenario is the original generated scenario.
	Scenario Scenario
	// Problems lists the violated invariants (capped per run).
	Problems []string
	// Minimal is the 1-minimal shrunken clause list (nil when the
	// campaign's shrink budget was exhausted).
	Minimal []fault.Spec
	// ReproJSON is Minimal as a runnable `euconsim -faults` argument.
	ReproJSON string
}

// Report summarizes a campaign.
type Report struct {
	// Seed, Scenarios, and Periods echo the campaign parameters.
	Seed      int64
	Scenarios int
	Periods   int
	// Violations lists every scenario that broke an invariant.
	Violations []Violation
	// Held sums the controller's held steps (a failed solve or
	// non-finite inputs) across all scenarios: how often containment
	// engaged while invariants held.
	Held int
	// HeldSamples and SkippedPeriods sum the missing-feedback policy's
	// counters (sim.HoldLast) across all scenarios.
	HeldSamples, SkippedPeriods int
	// GuardFirings sums all runtime-guard counters across all scenarios
	// (every firing is also a violation).
	GuardFirings int
}

// Ok reports whether the campaign finished with zero violations.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// runStats aggregates one scenario run's degradation observability.
type runStats struct {
	held                 int
	heldSamples, skipped int
	guardFirings         int
}

// Run executes a chaos campaign: Scenarios seeded scenarios, each a full
// simulation checked against the invariant set, with violating scenarios
// shrunk to minimal reproducers (up to maxShrinks). The error return is
// reserved for campaign-level failures (cancellation, broken canonical
// config); scenario failures are reported in the Report, never as errors.
func Run(ctx context.Context, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if opts.Periods < 80 {
		return nil, fmt.Errorf("chaos: %d periods leave no room for fault windows plus a re-convergence tail (min 80)", opts.Periods)
	}
	rep := &Report{Seed: opts.Seed, Scenarios: opts.Scenarios, Periods: opts.Periods}
	for i := 0; i < opts.Scenarios; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("chaos: campaign canceled: %w", err)
		}
		scn := GenerateFor(opts.Campaign, opts.Seed, i, opts.MaxClauses, opts.Periods)
		problems, stats := Check(ctx, scn.Specs, opts)
		rep.Held += stats.held
		rep.HeldSamples += stats.heldSamples
		rep.SkippedPeriods += stats.skipped
		rep.GuardFirings += stats.guardFirings
		if len(problems) == 0 {
			continue
		}
		v := Violation{Scenario: scn, Problems: problems}
		if len(rep.Violations) < maxShrinks {
			v.Minimal = Shrink(scn.Specs, func(cand []fault.Spec) bool {
				p, _ := Check(ctx, cand, opts)
				return len(p) > 0
			})
			if js, err := fault.MarshalSpecs(v.Minimal); err == nil {
				v.ReproJSON = string(js)
			}
		}
		rep.Violations = append(rep.Violations, v)
	}
	return rep, nil
}

// Check runs the campaign's simulation under the given fault clause list
// and returns the violated invariants (nil when all hold) plus the run's
// degradation statistics. A panic anywhere in the controller or simulator
// is itself an invariant violation, caught and reported rather than
// propagated — the harness survives what it is hunting.
func Check(ctx context.Context, specs []fault.Spec, opts Options) (problems []string, stats runStats) {
	opts = opts.withDefaults()
	defer func() {
		if r := recover(); r != nil {
			problems = append(problems, fmt.Sprintf("panic: %v", r))
		}
	}()
	if opts.Campaign == CampaignLarge128 {
		return checkLarge128(ctx, specs, opts)
	}
	if opts.Campaign == CampaignPartition {
		return checkPartition(ctx, specs, opts)
	}

	sys := workload.Simple()
	tr, ctrl, err := runSimple(ctx, sys, specs, opts, false)
	if err != nil {
		return []string{err.Error()}, stats
	}
	_, _, stats.held = ctrl.ContainmentCounts()
	stats.book(tr)
	problems = inspect(tr, sys, opts.Periods, reconvergeTol)
	if !opts.Explicit {
		return problems, stats
	}
	etr, ectrl, err := runSimple(ctx, sys, specs, opts, true)
	if err != nil {
		return append(problems, fmt.Sprintf("explicit law: %v", err)), stats
	}
	if d := traceDivergence(tr, etr); d != "" {
		problems = append(problems, fmt.Sprintf("explicit law changed the trace: %s", d))
	}
	steps := 0
	for _, ps := range etr.Periods {
		steps += 1 - ps.ControlSkipped
	}
	if hits, misses := ectrl.ExplicitCounts(); hits+misses != steps {
		problems = append(problems, fmt.Sprintf("explicit law booked %d hits + %d misses over %d controller steps", hits, misses, steps))
	}
	return problems, stats
}

// runSimple runs one simulation of the canonical SIMPLE configuration
// under specs, with or without the explicit law attached.
func runSimple(ctx context.Context, sys *task.System, specs []fault.Spec, opts Options, explicit bool) (*sim.Trace, *core.Controller, error) {
	ccfg := workload.SimpleController()
	ccfg.Explicit = explicit
	ctrl, err := core.New(sys, nil, ccfg)
	if err != nil {
		return nil, nil, fmt.Errorf("build controller: %w", err)
	}
	var rc sim.Controller = ctrl
	if opts.seedBug != nil {
		if bug := plantBug(ctrl, specs, opts.seedBug); bug != nil {
			rc = bug
		}
	}
	s, err := sim.New(sim.Config{
		System:         sys,
		SamplingPeriod: workload.SamplingPeriod,
		Periods:        opts.Periods,
		Controller:     rc,
		Seed:           runSeed,
		Faults:         specs,
		DisableGuards:  opts.DisableGuards,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("configure simulator: %w", err)
	}
	tr, err := s.RunContext(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("run failed: %w", err)
	}
	return tr, ctrl, nil
}

// book records a simulated run's feedback-policy and guard counters.
func (st *runStats) book(tr *sim.Trace) {
	for _, ps := range tr.Periods {
		st.heldSamples += ps.HeldSamples
		st.skipped += ps.ControlSkipped
	}
	st.guardFirings = tr.Stats.GuardRateFirings + tr.Stats.GuardUtilFirings + tr.Stats.GuardPoolFirings
}

// largeReconvergeTol is the re-convergence bound for the LARGE-128
// campaign. The localized controller converges more slowly than the
// centralized one (plan information propagates one neighbor hop per
// period), and the 128-processor runs are shorter than the canonical 300
// periods, so the bound is looser — it still catches a processor whose
// loop never recovers.
const largeReconvergeTol = 0.2

// largeWorkerCounts are the DEUCON worker-pool sizes every LARGE-128
// scenario runs at; all runs must produce bit-identical traces.
var largeWorkerCounts = [2]int{1, 8}

// checkLarge128 runs one scenario of the LARGE-128 campaign: the localized
// DEUCON controller on the 128-processor workload, once per entry of
// largeWorkerCounts. Beyond the shared invariant set (checked on the
// serial run), the traces from every worker count must match the serial
// one bit for bit — parallel determinism under fault storms.
func checkLarge128(ctx context.Context, specs []fault.Spec, opts Options) (problems []string, stats runStats) {
	sys := workload.Large128()
	runAt := func(workers int) (*sim.Trace, error) {
		ctrl, err := deucon.New(sys, nil, deucon.Config{Parallelism: workers})
		if err != nil {
			return nil, fmt.Errorf("build controller: %w", err)
		}
		s, err := sim.New(sim.Config{
			System:         sys,
			SamplingPeriod: workload.SamplingPeriod,
			Periods:        opts.Periods,
			Controller:     ctrl,
			Seed:           runSeed,
			Faults:         specs,
			DisableGuards:  opts.DisableGuards,
		})
		if err != nil {
			return nil, fmt.Errorf("configure simulator: %w", err)
		}
		return s.RunContext(ctx)
	}
	serial, err := runAt(largeWorkerCounts[0])
	if err != nil {
		return []string{fmt.Sprintf("workers=%d: %v", largeWorkerCounts[0], err)}, stats
	}
	stats.book(serial)
	problems = inspect(serial, sys, opts.Periods, largeReconvergeTol)

	parallel, err := runAt(largeWorkerCounts[1])
	if err != nil {
		return append(problems, fmt.Sprintf("workers=%d: %v", largeWorkerCounts[1], err)), stats
	}
	if d := traceDivergence(serial, parallel); d != "" {
		problems = append(problems, fmt.Sprintf("parallel determinism broken at %d workers: %s", largeWorkerCounts[1], d))
	}
	return problems, stats
}

// traceDivergence returns a description of the first bitwise difference
// between two traces' utilization or rate series, or "" when identical.
func traceDivergence(a, b *sim.Trace) string {
	if len(a.Utilization) != len(b.Utilization) {
		return fmt.Sprintf("period counts differ: %d vs %d", len(a.Utilization), len(b.Utilization))
	}
	for k := range a.Utilization {
		for p := range a.Utilization[k] {
			if math.Float64bits(a.Utilization[k][p]) != math.Float64bits(b.Utilization[k][p]) {
				return fmt.Sprintf("utilization[k=%d][P%d]: %g vs %g", k, p+1, a.Utilization[k][p], b.Utilization[k][p])
			}
		}
		for i := range a.Rates[k] {
			if math.Float64bits(a.Rates[k][i]) != math.Float64bits(b.Rates[k][i]) {
				return fmt.Sprintf("rate[k=%d][T%d]: %g vs %g", k, i+1, a.Rates[k][i], b.Rates[k][i])
			}
		}
	}
	return ""
}

// findings collects violated invariants, capped at maxProblemsPerRun.
type findings []string

// add records one finding unless the cap is reached.
func (f *findings) add(format string, args ...any) {
	if len(*f) < maxProblemsPerRun {
		*f = append(*f, fmt.Sprintf(format, args...))
	}
}

// inspect checks a finished run's trace against the invariant set; tol is
// the campaign's re-convergence bound.
func inspect(tr *sim.Trace, sys *task.System, periods int, tol float64) []string {
	var f findings
	// A complete run: the simulator's NaN termination safety net truncates
	// a run whose clock was poisoned, so a short trace is itself a
	// violation (and the only way one can happen).
	if len(tr.Utilization) != periods {
		f.add("run truncated: %d of %d sampling periods recorded (poisoned event clock)", len(tr.Utilization), periods)
	}
	// The controller must never error out of a storm, and the runtime
	// guards and pool audit must never fire: a firing is a contained
	// controller bug, and containment is supposed to start one layer down.
	st := tr.Stats
	if st.ControllerErrors > 0 {
		f.add("controller returned errors in %d periods", st.ControllerErrors)
	}
	if st.GuardRateFirings > 0 {
		f.add("rate guard fired %d times (controller emitted non-finite or out-of-bounds rates)", st.GuardRateFirings)
	}
	if st.GuardUtilFirings > 0 {
		f.add("utilization guard fired %d times (non-finite or negative samples)", st.GuardUtilFirings)
	}
	if st.GuardPoolFirings > 0 {
		f.add("pool audit failed at %d sampling boundaries (event/job leak or double-recycle)", st.GuardPoolFirings)
	}
	f.addTrace(tr.Utilization, tr.Rates, sys, tol)
	return f
}

// addTrace checks the trace invariants every campaign shares: finite,
// in-bounds utilizations (the monitor reports a busy fraction) and rates
// (no controller or fault path may push a task outside its box), and
// re-convergence — the generator closes every fault window by 3/4 of the
// run, so over the final reconvergeTail periods each processor's mean
// utilization must be within tol of its set point.
func (f *findings) addTrace(u, rates [][]float64, sys *task.System, tol float64) {
	for k, row := range u {
		for p, v := range row {
			if !(v >= 0 && v <= 1) {
				f.add("utilization[k=%d][P%d] = %g outside [0, 1]", k, p+1, v)
			}
		}
	}
	rmin, rmax := sys.RateBounds()
	for k, row := range rates {
		for i, r := range row {
			if !(r >= rmin[i] && r <= rmax[i]) {
				f.add("rate[k=%d][T%d] = %g outside [%g, %g]", k, i+1, r, rmin[i], rmax[i])
			}
		}
	}
	if len(u) < reconvergeTail {
		return
	}
	b := sys.DefaultSetPoints()
	for p, mean := range agent.TailMeans(u, reconvergeTail) {
		if d := math.Abs(mean - b[p]); !(d <= tol) {
			f.add("no re-convergence: P%d mean utilization %.4f over final %d periods, set point %.4f (|Δ| %.4f > %g)",
				p+1, mean, reconvergeTail, b[p], d, tol)
		}
	}
}

// bugController is the planted-bug shim for harness self-tests: inside
// the active window of any matched clause it corrupts task 0's commanded
// rate to NaN — the one poison the plant's own actuator clamp cannot
// contain. With guards enabled the simulator must catch and count it;
// with guards disabled the NaN reaches the clock and the violation must
// surface through the trace invariants (truncated or non-finite trace) —
// either way the harness has a deliberate defect to find and shrink.
type bugController struct {
	inner   sim.Controller
	windows [][2]float64
	buf     []float64
}

// plantBug wraps ctrl when any clause matches the predicate.
func plantBug(ctrl sim.Controller, specs []fault.Spec, match func(fault.Spec) bool) sim.Controller {
	var wins [][2]float64
	for _, sp := range specs {
		if match(sp) {
			wins = append(wins, [2]float64{sp.Start, sp.Stop})
		}
	}
	if len(wins) == 0 {
		return nil
	}
	return &bugController{inner: ctrl, windows: wins}
}

// Name implements sim.Controller.
func (b *bugController) Name() string { return b.inner.Name() }

// Reset implements sim.Controller by delegating to the wrapped controller.
func (b *bugController) Reset() { b.inner.Reset() }

// SetPoints implements sim.Controller by delegating to the wrapped
// controller.
func (b *bugController) SetPoints() []float64 { return b.inner.SetPoints() }

// Step implements sim.Controller, corrupting the inner controller's
// command inside any matched window.
func (b *bugController) Step(k int, u, rates []float64) ([]float64, error) {
	out, err := b.inner.Step(k, u, rates)
	if err != nil || len(out) == 0 {
		return out, err
	}
	fk := float64(k)
	for _, w := range b.windows {
		if fk >= w[0] && (w[1] <= 0 || fk < w[1]) {
			if cap(b.buf) < len(out) {
				b.buf = make([]float64, len(out))
			}
			b.buf = b.buf[:len(out)]
			copy(b.buf, out)
			b.buf[0] = math.NaN()
			return b.buf, nil
		}
	}
	return out, nil
}
