package sim

// Controller is the unified rate-controller interface: everything the
// simulator and the experiment harnesses need from a controller, with no
// per-type wiring. Implementations include the EUCON MPC controller
// (package core), the DEUCON decentralized extension, and the OPEN, PID,
// and FixedRates baselines.
//
// Optional capabilities are separate interfaces the harnesses probe for:
// ContainmentReporter and ExplicitReporter.
type Controller interface {
	// Name identifies the controller in traces.
	Name() string
	// Step returns the rates for sampling period k+1 given the utilization
	// vector u(k) measured over period k and the currently applied rates.
	// Implementations must return a slice of the same length as rates and
	// must respect each task's rate bounds. The returned slice may alias
	// rates or controller memory that the next Step overwrites: callers
	// copy what they keep, and may pass it back as the next Step's rates.
	Step(k int, u, rates []float64) ([]float64, error)
	// Reset restores post-construction state so one controller can be
	// reused across replications; a Reset controller must drive a run
	// bit-identically to a freshly built one.
	Reset()
	// SetPoints returns the utilization set points the controller steers
	// toward (a copy, one per processor), or nil for controllers with no
	// set-point notion (open-loop baselines).
	SetPoints() []float64
}

// DegradationReporter is probed by nothing: missing feedback is handled
// by HoldLast, whose counts PeriodStats records for every controller. It
// stays declared only because the closed-loop benchmark's controller
// wrapper names it; a benchmark-only change removes both.
type DegradationReporter interface {
	// LastDegradation reports on the most recent Step call: how many
	// processor samples were substituted through hold-last-sample, and
	// whether the controller skipped actuation entirely because every
	// usable sample was staler than its bound.
	LastDegradation() (heldSamples int, controlSkipped bool)
}

// ContainmentReporter is an optional interface a Controller can
// implement to expose its numerical-failure containment counter (the hold
// rung of internal/mpc). cmd/euconsim and the chaos harness read it after
// a run to report how often the controller had to hold its rates to keep
// the loop alive.
type ContainmentReporter interface {
	// ContainmentCounts reports how many control steps since construction
	// or Reset held the applied rates. The first two results name retired
	// rungs (best-iterate acceptances, Tikhonov re-solves) and are 0.
	ContainmentCounts() (bestIterate, regularized, held int)
}

// ExplicitReporter is an optional interface a Controller can implement to
// expose explicit-MPC accounting: how many control steps lay in the
// interior critical region of the offline-compiled piecewise-affine law
// versus anywhere else.
type ExplicitReporter interface {
	// ExplicitCounts reports interior hits and misses since construction or
	// Reset. Both are zero when no explicit law is in use.
	ExplicitCounts() (hits, misses int)
}

// FixedRates is a Controller that never changes rates (pure open loop
// with whatever rates the tasks started with).
type FixedRates struct{}

var _ Controller = FixedRates{}

// Name implements Controller.
func (FixedRates) Name() string { return "FIXED" }

// Step implements Controller by echoing the current rates.
func (FixedRates) Step(_ int, _, rates []float64) ([]float64, error) {
	out := make([]float64, len(rates))
	copy(out, rates)
	return out, nil
}

// Reset implements Controller; FixedRates carries no state.
func (FixedRates) Reset() {}

// SetPoints implements Controller; FixedRates steers toward nothing.
func (FixedRates) SetPoints() []float64 { return nil }
