package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/deucon"
	"github.com/rtsyslab/eucon/internal/empc"
	"github.com/rtsyslab/eucon/internal/mat"
	"github.com/rtsyslab/eucon/internal/mpc"
	"github.com/rtsyslab/eucon/internal/qp"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
)

// ctlSpec names the controller a workload closes its loop with, in enough
// detail to rebuild it — and, for the centralized controller, the MPC
// beneath it — outside the loop for the replays.
type ctlSpec struct {
	system func() (*task.System, error)
	// deucon selects the decentralized controller; otherwise core with cfg.
	deucon bool
	cfg    core.Config
	// explicit adds the explicit-MPC replay (an offline compile, so only
	// where the issue asks for its number).
	explicit bool
}

func (c *ctlSpec) build(sys *task.System) (sim.Controller, error) {
	if c.deucon {
		return deucon.New(sys, nil, deucon.Config{})
	}
	return core.New(sys, nil, c.cfg)
}

// layerName is the per-layer metric prefix of the controller.
func (c *ctlSpec) layerName() string {
	if c.deucon {
		return "deucon"
	}
	return "core"
}

// stepStats books the step-time distribution of a controller layer.
func stepStats(rep *report, layer string, stepsUs []float64, share float64) {
	s := append([]float64(nil), stepsUs...)
	sort.Float64s(s)
	rep.layer[layer+".step_p50_us"] = percentile(s, 0.5)
	rep.layer[layer+".step_p99_us"] = percentile(s, tailPercentile(len(s), 0.99))
	rep.layer[layer+".step_share"] = share
	if layer == "core" && len(s) > 0 {
		rep.layer["core.step_max_us"] = s[len(s)-1]
	}
}

// stepper is one layer a recorded sequence is replayed through.
type stepper struct {
	name  string
	reset func()
	step  func(k int, u, rates []float64) ([]float64, error)
}

// replayThrough drives every stepper with every recorded (u, rates) row,
// run by run, and requires each output to equal, bit for bit, the rates
// the loop recorded for the following period. The steppers take each row
// one after another, so their step times are paired: machine noise that
// lasts longer than a step moves them together. It returns each stepper's
// step times in µs and the allocations per step of the whole pass.
func replayThrough(rep *report, steppers ...stepper) (us [][]float64, allocs float64, err error) {
	n := 0
	for _, run := range rep.replay {
		n += run.steps()
	}
	us = make([][]float64, len(steppers))
	for j := range us {
		us[j] = make([]float64, 0, n)
	}
	m0 := markMem()
	for r := range rep.replay {
		run := &rep.replay[r]
		for _, s := range steppers {
			s.reset()
		}
		for k := 0; k < run.steps(); k++ {
			u, rates := run.row(k)
			for j, s := range steppers {
				t0 := rep.clk.now()
				out, err := s.step(k, u, rates)
				t1 := rep.clk.now()
				if err != nil {
					return nil, 0, fmt.Errorf("%s replay: %w", s.name, err)
				}
				us[j] = append(us[j], float64(t1-t0)/1e3)
				if k+1 == run.steps() {
					continue
				}
				_, next := run.row(k + 1)
				for i := range next {
					if math.Float64bits(out[i]) != math.Float64bits(next[i]) {
						return nil, 0, fmt.Errorf("%s replay: run %d period %d task %d: got rate %v, the loop recorded %v",
							s.name, r, k, i, out[i], next[i])
					}
				}
			}
		}
	}
	m1 := markMem()
	return us, float64(m1.mallocs-m0.mallocs) / float64(n), nil
}

func controllerStepper(name string, c sim.Controller) stepper {
	return stepper{name: name, reset: c.Reset, step: c.Step}
}

// verifyReplay is the untraced correctness check of the farm workloads:
// the recorded sequence replayed through a freshly built controller must
// reproduce every rate vector the server went on to hold.
func (c *ctlSpec) verifyReplay(rep *report) error {
	sys, err := c.system()
	if err != nil {
		return err
	}
	ctrl, err := c.build(sys)
	if err != nil {
		return err
	}
	saved := rep.replay
	rep.replay = []replayRun{rep.firstRun}
	_, _, err = replayThrough(rep, controllerStepper(c.layerName(), ctrl))
	rep.replay = saved
	if err != nil {
		rep.violate(err.Error())
	}
	return nil
}

// layers replays work unit 0's recorded sequence through the controller
// and the layers beneath it. steps are the in-loop controller step times
// of the traced rounds and share their part of the traced wall.
func (c *ctlSpec) layers(rep *report, steps []float64, share float64) error {
	sys, err := c.system()
	if err != nil {
		return err
	}
	name := c.layerName()
	stepStats(rep, name, steps, share)
	ctrl, err := c.build(sys)
	if err != nil {
		return err
	}
	// First pass, the controller alone: its allocations per step. core's
	// counters restart at Reset, so they are summed run by run.
	cc, _ := ctrl.(*core.Controller)
	relaxed, degraded := 0, 0
	tally := func() {
		if cc != nil {
			bi, reg, held := cc.ContainmentCounts()
			relaxed, degraded = relaxed+cc.RelaxedPeriods(), degraded+bi+reg+held
		}
	}
	alone := controllerStepper(name, ctrl)
	alone.reset = func() { tally(); ctrl.Reset() }
	us, allocs, err := replayThrough(rep, alone)
	if err != nil {
		return err
	}
	tally()
	rep.layer[name+".step_allocs"] = allocs

	if d, ok := ctrl.(*deucon.Controller); ok {
		rep.layer["deucon.local_us"] = median(us[0]) / float64(d.LocalControllers())
		rep.layer["deucon.msgs_per_period"] = float64(d.Messages()) / float64(d.Periods())
		oc := d.OutcomeCounts()
		solves, degraded := 0, 0
		for o, cnt := range oc {
			solves += cnt
			if mpc.SolveOutcome(o).Degraded() {
				degraded += cnt
			}
		}
		rep.layer["deucon.relaxed_frac"] = float64(oc[mpc.SolveRelaxed]) / float64(solves)
		rep.layer["deucon.degraded"] = float64(degraded)
		return nil
	}
	rep.layer["core.relaxed_frac"] = float64(relaxed) / float64(len(us[0]))
	rep.layer["core.degraded_steps"] = float64(degraded)
	return c.replayBeneathCore(rep, sys, ctrl)
}

// mpcReplay is a bare mpc.Controller built the way core builds it, with
// core's measurement filter applied by the benchmark, and what it counted.
type mpcReplay struct {
	m        *mpc.Controller
	alpha    float64
	filtered []float64
	iters    []float64
	outcomes [mpc.SolveExplicitMiss + 1]int
	hits     int
	misses   int
}

func (c *ctlSpec) newMPCReplay(sys *task.System) (*mpcReplay, error) {
	rmin, rmax := sys.RateBounds()
	m, err := mpc.New(sys.AllocationMatrix(), sys.DefaultSetPoints(), rmin, rmax, mpc.Config{
		PredictionHorizon: c.cfg.PredictionHorizon,
		ControlHorizon:    c.cfg.ControlHorizon,
		TrefOverTs:        c.cfg.TrefOverTs,
	})
	if err != nil {
		return nil, err
	}
	return &mpcReplay{m: m, alpha: c.cfg.MeasurementFilter}, nil
}

// tally folds in the explicit-law counters, which restart at Reset.
func (r *mpcReplay) tally() {
	h, ms := r.m.ExplicitCounts()
	r.hits, r.misses = r.hits+h, r.misses+ms
}

func (r *mpcReplay) reset() {
	r.tally()
	r.m.Reset()
	r.filtered = nil
}

func (r *mpcReplay) step(_ int, u, rates []float64) ([]float64, error) {
	if r.alpha > 0 && r.alpha < 1 {
		if r.filtered == nil {
			r.filtered = append([]float64(nil), u...)
		} else {
			for i := range u {
				r.filtered[i] = r.alpha*u[i] + (1-r.alpha)*r.filtered[i]
			}
		}
		u = r.filtered
	}
	res, err := r.m.Step(u, rates)
	if err != nil {
		return nil, err
	}
	r.iters = append(r.iters, float64(res.SolverIterations))
	r.outcomes[res.Outcome]++
	return res.NewRates, nil
}

// replayBeneathCore is the second pass: core, the bare MPC and — where the
// workload asks — the MPC with a compiled explicit law take each recorded
// row in turn. core minus mpc, step by step, is core's own cost.
func (c *ctlSpec) replayBeneathCore(rep *report, sys *task.System, ctrl sim.Controller) error {
	bare, err := c.newMPCReplay(sys)
	if err != nil {
		return err
	}
	steppers := []stepper{
		controllerStepper("core", ctrl),
		{name: "mpc", reset: bare.reset, step: bare.step},
	}
	var law *mpcReplay
	if c.explicit {
		if law, err = c.newMPCReplay(sys); err != nil {
			return err
		}
		t0 := rep.clk.now()
		r, err := law.m.CompileExplicit(empc.Options{})
		if err != nil {
			return err
		}
		rep.layer["empc.compile_s"] = float64(rep.clk.now()-t0) / 1e9
		rep.layer["empc.regions"] = float64(r.Regions)
		steppers = append(steppers, stepper{name: "empc", reset: law.reset, step: law.step})
	}
	us, _, err := replayThrough(rep, steppers...)
	if err != nil {
		return err
	}
	self := make([]float64, len(us[0]))
	for k := range self {
		self[k] = us[0][k] - us[1][k]
	}
	rep.layer["core.self_us"] = median(self)
	rep.layer["mpc.step_p50_us"] = median(us[1])
	if law != nil {
		law.tally()
		rep.layer["empc.hit_ratio"] = float64(law.hits) / float64(law.hits+law.misses)
		rep.layer["empc.step_p50_us"] = median(us[2])
	}

	iters := bare.iters
	sort.Float64s(iters)
	sum, interior := 0.0, 0
	for _, it := range iters {
		sum += it
		if it <= interiorIterations {
			interior++
		}
	}
	rep.layer["mpc.qp_iters_per_step"] = sum / float64(len(iters))
	rep.layer["mpc.qp_iters_p99"] = percentile(iters, tailPercentile(len(iters), 0.99))
	rep.layer["mpc.one_iter_frac"] = float64(interior) / float64(len(iters))
	rep.layer["mpc.outcome.ok"] = float64(bare.outcomes[mpc.SolveOK])
	rep.layer["mpc.outcome.relaxed"] = float64(bare.outcomes[mpc.SolveRelaxed])
	rep.layer["mpc.outcome.best_iterate"] = float64(bare.outcomes[mpc.SolveBestIterate])
	rep.layer["mpc.outcome.regularized"] = float64(bare.outcomes[mpc.SolveRegularized])
	rep.layer["mpc.outcome.held"] = float64(bare.outcomes[mpc.SolveHeld])
	return nil
}

// interiorIterations is the active-set iteration count of a solve that
// finishes in one unblocked Newton step from Δr = 0 with an empty working
// set — the solves the interior fast path could take.
const interiorIterations = 1

// kernelReps is how many times each kernel runs; the median is reported.
const kernelReps = 100

// timeKernel reports the median time of fn in µs over kernelReps calls.
func timeKernel(rep *report, fn func()) float64 {
	clk := rep.clk
	us := make([]float64, rep.reps(kernelReps))
	for i := range us {
		t0 := clk.now()
		fn()
		us[i] = float64(clk.now()-t0) / 1e3
	}
	return median(us)
}

// kernels times the numerical kernels under the MPC step on seeded
// problems of n variables (24 is MEDIUM's tasks × control horizon, 40 is
// LARGE-8's): the constrained least-squares solve cold (no warm start,
// several bounds active), warm (from the previous solution, its active set
// remembered) and interior (no bound active), and the three factorizations
// the active-set loop leans on.
func kernels(rep *report, n int) {
	rng := rand.New(rand.NewSource(rep.seed))
	suffix := fmt.Sprintf(".n%d", n)
	rows := 2 * n
	c := mat.New(rows, n)
	for i := 0; i < rows; i++ {
		for j := 0; j < n; j++ {
			c.Set(i, j, rng.NormFloat64())
		}
	}
	d := make([]float64, rows)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	// Box constraints −w ≤ x ≤ w as A·x ≤ b.
	a := mat.StackV(mat.Identity(n), mat.Identity(n).Scale(-1))
	box := func(w float64) []float64 { return mat.Constant(2*n, w) }
	x0 := make([]float64, n)
	lsi, err := qp.NewLSI(c, qp.Options{})
	if err != nil {
		rep.violate("kernel: " + err.Error())
		return
	}
	tight, loose := box(0.05), box(1e6)
	x := make([]float64, n)
	solve := func(from []float64) {
		res, err := lsi.Solve(d, a, tight, from)
		if err != nil {
			rep.violate("kernel: " + err.Error())
			return
		}
		copy(x, res.X)
	}
	rep.layer["qp.lsi_cold_us"+suffix] = timeKernel(rep, func() { lsi.ResetWarmStart(); solve(x0) })
	// Warm: start where the last solve ended, with its active set remembered.
	rep.layer["qp.lsi_warm_us"+suffix] = timeKernel(rep, func() { solve(x) })
	rep.layer["qp.lsi_interior_us"+suffix] = timeKernel(rep, func() {
		if _, ok := lsi.SolveInteriorTo(x, d, a, loose); !ok {
			rep.violate("kernel: interior solve fell off the fast path")
		}
	})

	tall := c.Slice(0, n, 0, n/2)
	rep.layer["mat.qr_factor_us"+suffix] = timeKernel(rep, func() {
		if _, err := mat.FactorQR(tall); err != nil {
			rep.violate("kernel: " + err.Error())
		}
	})
	spd := c.T().Mul(c)
	rep.layer["mat.lu_factor_us"+suffix] = timeKernel(rep, func() {
		if _, err := mat.FactorLU(spd); err != nil {
			rep.violate("kernel: " + err.Error())
		}
	})
	chol, err := mat.FactorCholesky(spd)
	if err != nil {
		rep.violate("kernel: " + err.Error())
		return
	}
	rhs := d[:n]
	rep.layer["mat.chol_solve_us"+suffix] = timeKernel(rep, func() {
		if err := chol.SolveVecTo(x, rhs); err != nil {
			rep.violate("kernel: " + err.Error())
		}
	})
}
