package mpc

import (
	"math"
	"testing"

	"github.com/rtsyslab/eucon/internal/mat"
)

// simpleF is the allocation matrix of the paper's SIMPLE workload
// (Table 1): F = [[35, 35, 0], [0, 35, 45]].
func simpleF() *mat.Dense {
	return mat.MustFromRows([][]float64{{35, 35, 0}, {0, 35, 45}})
}

func simpleController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	b := []float64{0.828, 0.828}
	rmin := []float64{1.0 / 700, 1.0 / 700, 1.0 / 900}
	rmax := []float64{1.0 / 35, 1.0 / 35, 1.0 / 45}
	c, err := New(simpleF(), b, rmin, rmax, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func defaultSimpleConfig() Config {
	return Config{PredictionHorizon: 2, ControlHorizon: 1, TrefOverTs: 4}
}

func TestNewValidation(t *testing.T) {
	f := simpleF()
	b := []float64{0.8, 0.8}
	rmin := []float64{0.001, 0.001, 0.001}
	rmax := []float64{0.03, 0.03, 0.03}
	good := defaultSimpleConfig()

	tests := []struct {
		name string
		run  func() error
	}{
		{"empty F", func() error { _, err := New(mat.New(0, 0), nil, nil, nil, good); return err }},
		{"bad set points", func() error { _, err := New(f, []float64{0.8}, rmin, rmax, good); return err }},
		{"bad rmin len", func() error { _, err := New(f, b, []float64{1}, rmax, good); return err }},
		{"inverted bounds", func() error {
			_, err := New(f, b, []float64{0.05, 0.001, 0.001}, rmax, good)
			return err
		}},
		{"P < 1", func() error {
			cfg := good
			cfg.PredictionHorizon = 0
			_, err := New(f, b, rmin, rmax, cfg)
			return err
		}},
		{"M > P", func() error {
			cfg := good
			cfg.ControlHorizon = 5
			_, err := New(f, b, rmin, rmax, cfg)
			return err
		}},
		{"Tref <= 0", func() error {
			cfg := good
			cfg.TrefOverTs = 0
			_, err := New(f, b, rmin, rmax, cfg)
			return err
		}},
		{"bad Q len", func() error {
			cfg := good
			cfg.QWeights = []float64{1}
			_, err := New(f, b, rmin, rmax, cfg)
			return err
		}},
		{"negative Q", func() error {
			cfg := good
			cfg.QWeights = []float64{1, -1}
			_, err := New(f, b, rmin, rmax, cfg)
			return err
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.run() == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}

func TestStepDimensionErrors(t *testing.T) {
	c := simpleController(t, defaultSimpleConfig())
	if _, err := c.Step([]float64{0.5}, []float64{0.01, 0.01, 0.01}); err == nil {
		t.Error("short utilization vector accepted")
	}
	if _, err := c.Step([]float64{0.5, 0.5}, []float64{0.01}); err == nil {
		t.Error("short rate vector accepted")
	}
}

// stepPlant advances the "real" plant u(k+1) = u(k) + G·F·Δr(k).
func stepPlant(u []float64, f *mat.Dense, g []float64, delta []float64) []float64 {
	du := f.MulVec(delta)
	out := mat.VecClone(u)
	for i := range out {
		out[i] += g[i] * du[i]
	}
	return out
}

func runClosedLoop(t *testing.T, c *Controller, f *mat.Dense, g []float64, u0, r0 []float64, steps int) (u, rates []float64) {
	t.Helper()
	u = mat.VecClone(u0)
	rates = mat.VecClone(r0)
	for k := 0; k < steps; k++ {
		res, err := c.Step(u, rates)
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		rates = res.NewRates
		u = stepPlant(u, f, g, res.DeltaR)
	}
	return u, rates
}

func TestConvergesToSetPointNominalGain(t *testing.T) {
	c := simpleController(t, defaultSimpleConfig())
	f := simpleF()
	u0 := f.MulVec([]float64{1.0 / 60, 1.0 / 90, 1.0 / 100}) // initial rates from Table 1
	u, rates := runClosedLoop(t, c, f, []float64{1, 1}, u0, []float64{1.0 / 60, 1.0 / 90, 1.0 / 100}, 60)
	for i, v := range u {
		if math.Abs(v-0.828) > 0.01 {
			t.Errorf("u[%d] = %v after 60 steps, want ≈ 0.828", i, v)
		}
	}
	rmin := []float64{1.0 / 700, 1.0 / 700, 1.0 / 900}
	rmax := []float64{1.0 / 35, 1.0 / 35, 1.0 / 45}
	for i, r := range rates {
		if r < rmin[i]-1e-12 || r > rmax[i]+1e-12 {
			t.Errorf("rate[%d] = %v outside [%v, %v]", i, r, rmin[i], rmax[i])
		}
	}
}

func TestConvergesWithUnderestimatedGain(t *testing.T) {
	// Actual execution times half the estimate (etf = 0.5, Figure 3a).
	c := simpleController(t, defaultSimpleConfig())
	f := simpleF()
	g := []float64{0.5, 0.5}
	u0 := mat.VecScale(0.5, f.MulVec([]float64{1.0 / 60, 1.0 / 90, 1.0 / 100}))
	u, _ := runClosedLoop(t, c, f, g, u0, []float64{1.0 / 60, 1.0 / 90, 1.0 / 100}, 100)
	for i, v := range u {
		if math.Abs(v-0.828) > 0.01 {
			t.Errorf("u[%d] = %v, want ≈ 0.828 (etf = 0.5)", i, v)
		}
	}
}

func TestConvergesWithOverestimatedGain(t *testing.T) {
	// Actual execution times twice the estimate (etf = 2, inside the
	// stability region g < 5.95).
	c := simpleController(t, defaultSimpleConfig())
	f := simpleF()
	g := []float64{2, 2}
	r0 := []float64{1.0 / 300, 1.0 / 300, 1.0 / 400}
	u0 := mat.VecScale(2, f.MulVec(r0))
	u, _ := runClosedLoop(t, c, f, g, u0, r0, 150)
	for i, v := range u {
		if math.Abs(v-0.828) > 0.02 {
			t.Errorf("u[%d] = %v, want ≈ 0.828 (etf = 2)", i, v)
		}
	}
}

func TestUtilizationNeverExceedsSetPointOnModel(t *testing.T) {
	// With nominal gain the output constraint u(k+i|k) ≤ B must hold on the
	// plant trajectory itself.
	c := simpleController(t, defaultSimpleConfig())
	f := simpleF()
	u := f.MulVec([]float64{1.0 / 60, 1.0 / 90, 1.0 / 100})
	rates := []float64{1.0 / 60, 1.0 / 90, 1.0 / 100}
	for k := 0; k < 80; k++ {
		res, err := c.Step(u, rates)
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		rates = res.NewRates
		u = stepPlant(u, f, []float64{1, 1}, res.DeltaR)
		for i, v := range u {
			if v > 0.828+1e-6 {
				t.Fatalf("step %d: u[%d] = %v exceeds set point", k, i, v)
			}
		}
	}
}

func TestRatesSaturateWhenSetPointUnreachable(t *testing.T) {
	// Set points of 5.0 cannot be reached even at R_max: rates must pin to
	// R_max without error.
	b := []float64{5, 5}
	rmin := []float64{1.0 / 700, 1.0 / 700, 1.0 / 900}
	rmax := []float64{1.0 / 35, 1.0 / 35, 1.0 / 45}
	c, err := New(simpleF(), b, rmin, rmax, defaultSimpleConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := simpleF()
	r0 := []float64{1.0 / 60, 1.0 / 90, 1.0 / 100}
	_, rates := runClosedLoop(t, c, f, []float64{1, 1}, f.MulVec(r0), r0, 120)
	for i, r := range rates {
		if math.Abs(r-rmax[i]) > 1e-9 {
			t.Errorf("rate[%d] = %v, want pinned at R_max = %v", i, r, rmax[i])
		}
	}
}

func TestOverloadRelaxesOutputConstraints(t *testing.T) {
	// Overloaded start: u far above B while rates are already at R_min makes
	// the output constraints infeasible; the controller must fall back
	// rather than fail, and must not push rates further down than R_min.
	c := simpleController(t, defaultSimpleConfig())
	rmin := []float64{1.0 / 700, 1.0 / 700, 1.0 / 900}
	res, err := c.Step([]float64{1.0, 1.0}, rmin)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OutputConstraintsRelaxed {
		t.Error("OutputConstraintsRelaxed = false, want true under infeasible overload")
	}
	for i, r := range res.NewRates {
		if r < rmin[i]-1e-12 {
			t.Errorf("NewRates[%d] = %v below R_min", i, r)
		}
	}
}

func TestOverloadRecovery(t *testing.T) {
	// Start overloaded with room to decrease rates: the controller should
	// drive utilization back down to the set point.
	c := simpleController(t, defaultSimpleConfig())
	f := simpleF()
	r0 := []float64{1.0 / 40, 1.0 / 40, 1.0 / 50}
	g := []float64{1.5, 1.5}
	u0 := mat.VecScale(1.5, f.MulVec(r0)) // well above 0.828
	u, _ := runClosedLoop(t, c, f, g, u0, r0, 100)
	for i, v := range u {
		if math.Abs(v-0.828) > 0.02 {
			t.Errorf("u[%d] = %v, want ≈ 0.828 after overload recovery", i, v)
		}
	}
}

func TestGainsMatchUnconstrainedStep(t *testing.T) {
	// In the interior of the feasible region, Step must equal the linear
	// feedback law Δr = K_e·(B − u) + K_d·Δr(k−1).
	c := simpleController(t, defaultSimpleConfig())
	ke, kd, err := c.Gains()
	if err != nil {
		t.Fatal(err)
	}
	u := []float64{0.70, 0.75}
	rates := []float64{1.0 / 100, 1.0 / 100, 1.0 / 100}
	res, err := c.Step(u, rates)
	if err != nil {
		t.Fatal(err)
	}
	want := ke.MulVec(mat.VecSub([]float64{0.828, 0.828}, u)) // prevDelta = 0
	_ = kd
	if !mat.VecEqual(res.DeltaR, want, 1e-5) {
		t.Fatalf("Step Δr = %v, gains predict %v", res.DeltaR, want)
	}
}

func TestGainsIncludePreviousMove(t *testing.T) {
	c := simpleController(t, defaultSimpleConfig())
	ke, kd, err := c.Gains()
	if err != nil {
		t.Fatal(err)
	}
	u := []float64{0.70, 0.75}
	rates := []float64{1.0 / 100, 1.0 / 100, 1.0 / 100}
	res1, err := c.Step(u, rates)
	if err != nil {
		t.Fatal(err)
	}
	u2 := []float64{0.72, 0.76}
	res2, err := c.Step(u2, res1.NewRates)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.VecAdd(
		ke.MulVec(mat.VecSub([]float64{0.828, 0.828}, u2)),
		kd.MulVec(res1.DeltaR),
	)
	if !mat.VecEqual(res2.DeltaR, want, 1e-5) {
		t.Fatalf("second Step Δr = %v, gains predict %v", res2.DeltaR, want)
	}
}

func TestResetClearsPreviousMove(t *testing.T) {
	c := simpleController(t, defaultSimpleConfig())
	u := []float64{0.7, 0.7}
	rates := []float64{1.0 / 100, 1.0 / 100, 1.0 / 100}
	res1, err := c.Step(u, rates)
	if err != nil {
		t.Fatal(err)
	}
	c.Reset()
	res2, err := c.Step(u, rates)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecEqual(res1.DeltaR, res2.DeltaR, 1e-12) {
		t.Fatalf("after Reset, Δr = %v, want same as fresh %v", res2.DeltaR, res1.DeltaR)
	}
}

func TestUpdateSetPoints(t *testing.T) {
	c := simpleController(t, defaultSimpleConfig())
	if err := c.UpdateSetPoints([]float64{0.5}); err == nil {
		t.Error("short set-point vector accepted")
	}
	if err := c.UpdateSetPoints([]float64{0.5, 0.6}); err != nil {
		t.Fatal(err)
	}
	got := c.SetPoints()
	if !mat.VecEqual(got, []float64{0.5, 0.6}, 0) {
		t.Fatalf("SetPoints = %v, want [0.5 0.6]", got)
	}
	// Convergence to the new set points.
	f := simpleF()
	r0 := []float64{1.0 / 60, 1.0 / 90, 1.0 / 100}
	u, _ := runClosedLoop(t, c, f, []float64{1, 1}, f.MulVec(r0), r0, 80)
	if math.Abs(u[0]-0.5) > 0.01 || math.Abs(u[1]-0.6) > 0.01 {
		t.Fatalf("u = %v, want ≈ [0.5 0.6] after set-point change", u)
	}
}

func TestLongerHorizonsStillConverge(t *testing.T) {
	// The MEDIUM controller uses P = 4, M = 2 (Table 2).
	cfg := Config{PredictionHorizon: 4, ControlHorizon: 2, TrefOverTs: 4}
	c := simpleController(t, cfg)
	f := simpleF()
	r0 := []float64{1.0 / 60, 1.0 / 90, 1.0 / 100}
	u, _ := runClosedLoop(t, c, f, []float64{1, 1}, f.MulVec(r0), r0, 80)
	for i, v := range u {
		if math.Abs(v-0.828) > 0.01 {
			t.Errorf("u[%d] = %v with P=4/M=2, want ≈ 0.828", i, v)
		}
	}
}

func TestDisableOutputConstraints(t *testing.T) {
	cfg := defaultSimpleConfig()
	cfg.DisableOutputConstraints = true
	c := simpleController(t, cfg)
	f := simpleF()
	r0 := []float64{1.0 / 60, 1.0 / 90, 1.0 / 100}
	u, _ := runClosedLoop(t, c, f, []float64{1, 1}, f.MulVec(r0), r0, 80)
	for i, v := range u {
		if math.Abs(v-0.828) > 0.01 {
			t.Errorf("u[%d] = %v without output constraints, want ≈ 0.828", i, v)
		}
	}
}

func TestQWeightsShiftPriority(t *testing.T) {
	// With weights strongly favoring P1 and a coupled infeasibility, the
	// controller should track P1 more tightly than P2. Build contention by
	// bounding task rates so both set points cannot be met exactly; output
	// constraints are disabled so the weighted trade-off is observable
	// (otherwise the hard u₂ ≤ B₂ cap dominates).
	f := mat.MustFromRows([][]float64{{50, 50, 0}, {0, 50, 50}})
	b := []float64{0.9, 0.3} // conflicting demands through shared task 2
	rmin := []float64{1e-4, 1e-4, 1e-4}
	rmax := []float64{0.004, 0.02, 0.02}
	cfg := Config{
		PredictionHorizon: 2, ControlHorizon: 1, TrefOverTs: 4,
		QWeights:                 []float64{100, 1},
		DisableOutputConstraints: true,
	}
	c, err := New(f, b, rmin, rmax, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{1e-3, 1e-3, 1e-3}
	u := f.MulVec(rates)
	for k := 0; k < 120; k++ {
		res, err := c.Step(u, rates)
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		rates = res.NewRates
		u = stepPlant(u, f, []float64{1, 1}, res.DeltaR)
	}
	if math.Abs(u[0]-0.9) > 0.02 {
		t.Errorf("heavily weighted P1 at %v, want ≈ 0.9", u[0])
	}
}

// TestAntiWindupHealthyNoSync pins the bit-identity claim behind the
// always-on anti-windup: feeding each Step the exact rates the previous
// Step commanded must never count a sync or change the control sequence.
func TestAntiWindupHealthyNoSync(t *testing.T) {
	c := simpleController(t, defaultSimpleConfig())
	rates := []float64{1.0 / 350, 1.0 / 350, 1.0 / 450}
	u := []float64{0.5, 0.6}
	for k := 0; k < 20; k++ {
		res, err := c.Step(u, rates)
		if err != nil {
			t.Fatal(err)
		}
		rates = res.NewRates
	}
	if got := c.AntiWindupSyncs(); got != 0 {
		t.Errorf("healthy actuation counted %d anti-windup syncs, want 0", got)
	}
}

// TestAntiWindupReconcilesStuckActuator drives the controller with an
// actuator that never applies any command (rates frozen): the move memory
// must be reconciled to the achieved zero move each period instead of
// accumulating the fictitious commanded moves.
func TestAntiWindupReconcilesStuckActuator(t *testing.T) {
	c := simpleController(t, defaultSimpleConfig())
	frozen := []float64{1.0 / 350, 1.0 / 350, 1.0 / 450}
	u := []float64{0.5, 0.6} // below set points: the MPC wants rate increases
	var lastCmd []float64
	for k := 0; k < 5; k++ {
		res, err := c.Step(u, frozen)
		if err != nil {
			t.Fatal(err)
		}
		lastCmd = res.NewRates
	}
	if c.AntiWindupSyncs() == 0 {
		t.Fatal("stuck actuator produced no anti-windup syncs")
	}
	moved := false
	for i := range lastCmd {
		if math.Abs(lastCmd[i]-frozen[i]) > 1e-12 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("controller stopped commanding changes; windup test is vacuous")
	}
	// With the plant frozen, reconciliation pins the pre-step move memory
	// at zero, so every period solves the same problem: the command must be
	// periodic, not a ratcheting accumulation.
	res1, err := c.Step(u, frozen)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c.Step(u, frozen)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res1.NewRates {
		if math.Abs(res1.NewRates[i]-res2.NewRates[i]) > 1e-12 {
			t.Errorf("task %d: command drifts under a stuck actuator (%.12g vs %.12g)",
				i, res1.NewRates[i], res2.NewRates[i])
		}
	}
	// Reset clears the anti-windup state.
	c.Reset()
	if c.AntiWindupSyncs() != 0 || c.haveLast {
		t.Error("Reset did not clear anti-windup state")
	}
}

// TestStepToDimensionErrors: StepTo validates like Step.
func TestStepToDimensionErrors(t *testing.T) {
	c := simpleController(t, defaultSimpleConfig())
	out := c.NewStepResult()
	if err := c.StepTo(out, []float64{0.5}, []float64{0.01, 0.01, 0.01}); err == nil {
		t.Error("short utilization accepted")
	}
	if err := c.StepTo(out, []float64{0.5, 0.5}, []float64{0.01}); err == nil {
		t.Error("short rates accepted")
	}
}

// TestSolveOutcomeLadderOrder pins the outcome values: they are ordered by
// increasing degradation, the retired best-iterate and regularized rungs
// keep their places, and Degraded starts at best-iterate.
func TestSolveOutcomeLadderOrder(t *testing.T) {
	ladder := []SolveOutcome{SolveOK, SolveRelaxed, SolveBestIterate, SolveRegularized, SolveHeld}
	for i := 1; i < len(ladder); i++ {
		if ladder[i-1] >= ladder[i] {
			t.Errorf("%v is not above %v on the ladder", ladder[i-1], ladder[i])
		}
	}
	for _, o := range ladder {
		if want := o >= SolveBestIterate; o.Degraded() != want {
			t.Errorf("%v.Degraded() = %v, want %v", o, o.Degraded(), want)
		}
	}
}
