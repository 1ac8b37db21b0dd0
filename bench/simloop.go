package main

import (
	"fmt"
	"math"
	"runtime"

	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// simLoop describes a workload that closes the loop inside the simulator:
// runs seeded closed-loop runs per round through one sim.Simulator reused
// with Reset, each run periods sampling periods long.
type simLoop struct {
	ctl     *ctlSpec
	etf     func() (sim.ETFSchedule, error)
	jitter  float64
	periods int // per run
	runs    int // per round
	warm    int // periods of the untimed warm-up run in set-up
}

// trackWindow is how many trailing periods of a simulated run the tracking
// statistics are taken over.
const trackWindow = 50

// runSeed derives the simulator seed of run i of work unit r from the
// benchmark seed, so every run of a process is independently seeded and
// the whole process is a pure function of -seed.
func runSeed(seed int64, round, i int) int64 {
	return seed*1000003 + int64(round)*1009 + int64(i)
}

// smokePeriods is the shortest run a -smoke pass makes.
const smokePeriods = 20

// runPeriods is the length of one run in this process.
func (d *simLoop) runPeriods(rep *report) int {
	if rep.size == 1 {
		return d.periods
	}
	return max(smokePeriods, d.periods/rep.size)
}

// simInstance is a built simLoop: system, wrapped controller and warmed
// simulator.
type simInstance struct {
	def *simLoop
	sys *task.System
	ctl *loopController
	sim *sim.Simulator
	etf sim.ETFSchedule
	// runs and periods are the round's size: the definition's, or less
	// under -smoke.
	runs, periods int
}

func (d *simLoop) config(in *simInstance, seed int64) sim.Config {
	return sim.Config{
		System:         in.sys,
		SamplingPeriod: workload.SamplingPeriod,
		Periods:        in.periods,
		Controller:     in.ctl,
		ETF:            in.etf,
		Jitter:         d.jitter,
		Seed:           seed,
	}
}

// setup builds the system, the controller (its factorizations included)
// and the simulator, then warms the simulator's pools and the controller's
// caches with a run of warm periods. (Ending a full-length run early
// through its context would also size the run-length buffers, but a
// Simulator Reset after a canceled run trips its pooled-object audit in
// every later period, so the first timed run grows those buffers instead.)
func (d *simLoop) setup(rep *report, _ int, _ bool) (instance, error) {
	sys, err := d.ctl.system()
	if err != nil {
		return nil, err
	}
	inner, err := d.ctl.build(sys)
	if err != nil {
		return nil, err
	}
	etf, err := d.etf()
	if err != nil {
		return nil, err
	}
	in := &simInstance{def: d, sys: sys, etf: etf, runs: max(1, d.runs/rep.size), periods: d.runPeriods(rep)}
	in.ctl = newLoopController(inner, rep.clk, in.periods, sys.Processors+len(sys.Tasks), false)
	// The warm-up is the same run for every seed, so set-up time is too.
	warm := d.config(in, 1)
	warm.Periods = min(d.warm, in.periods)
	if in.sim, err = sim.New(warm); err != nil {
		return nil, err
	}
	if _, err = in.sim.Run(); err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	runtime.GC()
	return in, nil
}

func (in *simInstance) close() {}

// run executes one round: runs × (Reset, Run), timing each and booking its
// trace between the timed sections.
func (in *simInstance) run(rep *report, work int, traced bool) error {
	capture := work == 0 && len(rep.digests) == 0
	setPoints := in.ctl.SetPoints()
	dg := newDigest()
	ops := make([]float64, 0, in.runs*in.periods)
	var wall int64
	var roundSpan int32 = -1
	if traced {
		roundSpan = rep.tr.add("round", rep.clk.now(), 0, -1, -1)
	}
	for i := 0; i < in.runs; i++ {
		in.ctl.rewind(traced)
		cfg := in.def.config(in, runSeed(rep.seed, work, i))
		m0 := markMem()
		t0 := rep.clk.now()
		in.ctl.Reset()
		if err := in.sim.Reset(cfg); err != nil {
			return err
		}
		t1 := rep.clk.now()
		tr, err := in.sim.Run()
		t2 := rep.clk.now()
		if err != nil {
			return err
		}
		rep.addMem(m0, markMem())
		wall += t2 - t0

		exit := in.ctl.exit
		if len(exit) != in.periods || len(tr.Utilization) != in.periods {
			return fmt.Errorf("run %d stepped %d of %d periods", i, len(exit), in.periods)
		}
		prev := t1
		for k, e := range exit {
			ops = append(ops, float64(e-prev)/1e3)
			prev = exit[k]
		}
		if traced {
			in.bookSpans(rep, roundSpan, t0, t1, t2, int32(len(rep.tracedOps)+i*in.periods))
			rep.jobs += tr.Stats.ReleasedJobs
			rep.resets = append(rep.resets, float64(t1-t0)/1e3)
		}
		if capture {
			seen := copyTrace(tr, in.sys)
			if i == 0 {
				rep.firstRun = seen
			}
			if rep.traceMode {
				rep.replay = append(rep.replay, seen)
			}
		}

		st := tr.Stats
		rep.attempted += in.periods
		rep.failed += st.ControllerErrors + st.GuardRateFirings + st.GuardUtilFirings + st.GuardPoolFirings + st.ContainmentHeld
		rep.completions += st.EndToEndCompletions
		rep.misses += st.EndToEndDeadlineMisses
		rep.track.addWindow(tr.Utilization, trackWindow, setPoints)
		for k := range tr.Utilization {
			dg.floats(tr.Utilization[k])
			dg.floats(tr.Rates[k])
		}
	}
	if traced {
		rep.tr.spans[roundSpan].end = rep.clk.now()
	}
	rep.bookDigest(work, dg.sum())
	rep.addRound(traced, in.runs*in.periods, wall, ops)
	return nil
}

// bookSpans turns one traced run's stamps into spans: reset and run under
// the round, one op per period under the run, one step under each op. The
// op's self time — op minus step — is the plant advancing one period.
func (in *simInstance) bookSpans(rep *report, round int32, t0, t1, t2 int64, firstOp int32) {
	rep.tr.add("sim.reset", t0, t1, round, -1)
	runSpan := rep.tr.add("run", t1, t2, round, -1)
	prev := t1
	for k, e := range in.ctl.exit {
		op := firstOp + int32(k)
		id := rep.tr.add("op", prev, e, runSpan, op)
		rep.tr.add("step", in.ctl.enter[k], e, id, op)
		rep.steps = append(rep.steps, float64(e-in.ctl.enter[k])/1e3)
		prev = e
	}
}

// copyTrace copies the (u, rates) rows a run's controller saw out of the
// simulator-owned trace, which the next Reset overwrites.
func copyTrace(tr *sim.Trace, sys *task.System) replayRun {
	nu, nt := sys.Processors, len(sys.Tasks)
	r := replayRun{nu: nu, width: nu + nt, seen: make([]float64, 0, len(tr.Utilization)*(nu+nt))}
	for k := range tr.Utilization {
		r.seen = append(r.seen, tr.Utilization[k]...)
		r.seen = append(r.seen, tr.Rates[k]...)
	}
	return r
}

// verify repeats round 0's first run on a freshly built, unwrapped
// controller and a fresh simulator and requires the same trace digest:
// the benchmark's wrapper, its warm-up and its Reset reuse must not have
// changed a single bit of what the loop computed.
func (d *simLoop) verify(rep *report) error {
	sys, err := d.ctl.system()
	if err != nil {
		return err
	}
	ctrl, err := d.ctl.build(sys)
	if err != nil {
		return err
	}
	etf, err := d.etf()
	if err != nil {
		return err
	}
	s, err := sim.New(sim.Config{
		System: sys, SamplingPeriod: workload.SamplingPeriod, Periods: d.runPeriods(rep),
		Controller: ctrl, ETF: etf, Jitter: d.jitter, Seed: runSeed(rep.seed, 0, 0),
	})
	if err != nil {
		return err
	}
	tr, err := s.Run()
	if err != nil {
		return err
	}
	got := copyTrace(tr, sys)
	want := rep.firstRun
	if len(got.seen) != len(want.seen) {
		rep.violate("reference run has a different length than the benchmark's first run")
		return nil
	}
	for i := range got.seen {
		if math.Float64bits(got.seen[i]) != math.Float64bits(want.seen[i]) {
			rep.violate(fmt.Sprintf("reference run diverges from the benchmark's first run at period %d", i/got.width))
			return nil
		}
	}
	return nil
}

func (d *simLoop) coverSpans() []string { return []string{"op", "sim.reset"} }

// layers splits the traced rounds' wall into the plant (the operation's
// self time: op minus step) and the controller step, then hands the step
// to the controller's own layers.
func (d *simLoop) layers(rep *report) error {
	plantNs := float64(rep.tr.selfTimes()["op"])
	wall := float64(rep.tracedWall)
	periods := float64(len(rep.tracedOps))
	rep.layer["sim.plant_us_per_period"] = plantNs / periods / 1e3
	rep.layer["sim.plant_share"] = plantNs / wall
	rep.layer["sim.jobs_per_period"] = float64(rep.jobs) / periods
	rep.layer["sim.plant_ns_per_job"] = plantNs / float64(rep.jobs)
	rep.layer["sim.reset_us"] = median(rep.resets)
	stepNs := float64(rep.tr.total("step"))
	// op = step + plant; what neither they nor Reset cover is the residual.
	rep.layer["trace.residual_frac"] = 1 - (plantNs+stepNs+float64(rep.tr.total("sim.reset")))/wall
	return d.ctl.layers(rep, rep.steps, stepNs/wall)
}
