package eucon

import (
	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/empc"
)

// ControllerOption is a functional option for NewControllerOpts. Options
// compose left to right over the zero ControllerConfig (the paper's SIMPLE
// parameters), so an empty option list is equivalent to
// NewController(sys, setPoints, ControllerConfig{}).
type ControllerOption func(*ControllerConfig)

// WithHorizons sets the MPC prediction horizon P and control horizon M
// (paper Table 2: SIMPLE uses P=2, M=1; MEDIUM uses P=4, M=2). Zero keeps
// the default for that horizon.
func WithHorizons(prediction, control int) ControllerOption {
	return func(c *ControllerConfig) {
		c.PredictionHorizon = prediction
		c.ControlHorizon = control
	}
}

// WithTrefOverTs sets the reference trajectory time constant in sampling
// periods (paper Table 2 uses 4).
func WithTrefOverTs(ratio float64) ControllerOption {
	return func(c *ControllerConfig) { c.TrefOverTs = ratio }
}

// WithWeights sets the per-processor tracking weights w_i of the MPC cost
// function; nil means all 1.
func WithWeights(w []float64) ControllerOption {
	return func(c *ControllerConfig) { c.Weights = w }
}

// WithRateMoveWeights sets the per-task control-penalty weights; nil means
// all 1.
func WithRateMoveWeights(w []float64) ControllerOption {
	return func(c *ControllerConfig) { c.RateMoveWeights = w }
}

// WithMeasurementFilter enables the EWMA measurement pre-filter with the
// given alpha in (0, 1]; see ControllerConfig.MeasurementFilter.
func WithMeasurementFilter(alpha float64) ControllerOption {
	return func(c *ControllerConfig) { c.MeasurementFilter = alpha }
}

// WithStalenessBound sets the hold-last-sample staleness bound in sampling
// periods; see ControllerConfig.StalenessBound.
func WithStalenessBound(periods int) ControllerOption {
	return func(c *ControllerConfig) { c.StalenessBound = periods }
}

// WithoutOutputConstraints removes the hard u ≤ B constraints (ablation
// studies only).
func WithoutOutputConstraints() ControllerOption {
	return func(c *ControllerConfig) { c.DisableOutputConstraints = true }
}

// WithExplicit compiles the controller's parametric QP into an offline
// piecewise-affine law at construction: an analysis artefact
// (MPCController.ExplicitReport) plus run-time bookkeeping — rates, traces
// and step cost are unchanged, and MPCController.ExplicitCounts reports how
// many steps lay in the law's interior critical region. maxRegions caps
// the offline region enumeration; 0 selects the default.
func WithExplicit(maxRegions int) ControllerOption {
	return func(c *ControllerConfig) {
		c.Explicit = true
		c.ExplicitMaxRegions = maxRegions
	}
}

// WithRateBox overrides the per-task actuator rate bounds the system
// declares. Either slice may be nil to keep the system's bound on that
// side; a non-nil slice needs one entry per task.
func WithRateBox(rmin, rmax []float64) ControllerOption {
	return func(c *ControllerConfig) {
		c.RateMin = rmin
		c.RateMax = rmax
	}
}

// NewControllerOpts builds an EUCON MPC controller with functional
// options:
//
//	ctrl, err := eucon.NewControllerOpts(sys, nil,
//		eucon.WithHorizons(4, 2),
//		eucon.WithExplicit(0),
//	)
//
// Nil setPoints select each processor's Liu–Layland schedulable bound. An
// empty option list builds the paper's SIMPLE controller.
func NewControllerOpts(sys *System, setPoints []float64, opts ...ControllerOption) (*MPCController, error) {
	var cfg ControllerConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return core.New(sys, setPoints, cfg)
}

// ExplicitCompileReport is the offline-compile report of an explicit MPC
// law: region and exploration counts plus the deterministic build digest.
type ExplicitCompileReport = empc.Report
