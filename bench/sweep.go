package main

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/experiments"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/workload"
)

// sweepLoop is the simple-sweep workload: the paper's Figure 4 series
// through experiments.SweepParallel, calls sweeps per round.
type sweepLoop struct {
	calls int // per round
}

// sweepSpec is call i's spec: the canonical SIMPLE sweep, seeded per call.
func sweepSpec(seed int64, round, i int) experiments.Spec {
	return experiments.Spec{Workload: experiments.WorkloadSimple, Seed: runSeed(seed, round, i)}
}

// sweepPeriods is how many sampling periods one sweep call simulates.
func sweepPeriods() int { return len(experiments.Fig4ETFs()) * experiments.DefaultPeriods }

type sweepInstance struct {
	calls int
}

// setup has nothing to build — every SweepParallel call builds its own
// workers — so it is one untimed warm call.
func (d *sweepLoop) setup(rep *report, work int, _ bool) (instance, error) {
	if _, err := experiments.SweepParallel(context.Background(), sweepSpec(rep.seed, work, 0), experiments.Fig4ETFs()); err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	runtime.GC()
	return &sweepInstance{calls: max(2, d.calls/rep.size)}, nil
}

func (in *sweepInstance) close() {}

func (in *sweepInstance) run(rep *report, work int, traced bool) error {
	ctx := context.Background()
	etfs := experiments.Fig4ETFs()
	series := make([][]experiments.SweepPoint, in.calls)
	stamps := make([]int64, in.calls+1)
	errs := 0
	m0 := markMem()
	stamps[0] = rep.clk.now()
	for i := range series {
		pts, err := experiments.SweepParallel(ctx, sweepSpec(rep.seed, work, i), etfs)
		if err != nil {
			errs++
		}
		series[i] = pts
		stamps[i+1] = rep.clk.now()
	}
	rep.addMem(m0, markMem())

	var roundSpan int32
	if traced {
		roundSpan = rep.tr.add("round", stamps[0], stamps[in.calls], -1, -1)
	}
	dg := newDigest()
	ops := make([]float64, in.calls)
	for i, pts := range series {
		ops[i] = float64(stamps[i+1]-stamps[i]) / 1e3
		if traced {
			rep.tr.add("op", stamps[i], stamps[i+1], roundSpan, int32(len(rep.tracedOps)+i))
		}
		rep.attempted++
		ok := len(pts) == len(etfs)
		for _, p := range pts {
			vals := []float64{p.ETF, p.P1.Mean, p.P1.StdDev, p.P1.Min, p.P1.Max, p.SetPoint}
			dg.floats(vals)
			for _, v := range vals {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					ok = false
				}
			}
			// Loop quality over the factors the paper calls controllable.
			if p.ETF >= 0.5 && p.ETF <= 5 {
				rep.track.errs = append(rep.track.errs, math.Abs(p.P1.Mean-p.SetPoint))
				rep.track.stds = append(rep.track.stds, p.P1.StdDev)
			}
		}
		if !ok {
			rep.failed++
		}
	}
	if errs > 0 {
		rep.violate(fmt.Sprintf("%d sweep calls returned an error", errs))
	}
	if rep.bookDigest(work, dg.sum()) {
		rep.firstSweep = series[0]
	}
	rep.addRound(traced, in.calls*sweepPeriods(), stamps[in.calls]-stamps[0], ops)
	return nil
}

// verify recomputes round 0's first series serially, in this goroutine,
// and requires it bit-identical to what the worker pool returned.
func (d *sweepLoop) verify(rep *report) error {
	want, err := experiments.Sweep(context.Background(), sweepSpec(rep.seed, 0, 0), experiments.Fig4ETFs())
	if err != nil {
		return err
	}
	got := rep.firstSweep
	if len(got) != len(want) {
		rep.violate("serial sweep has a different length than the parallel one")
		return nil
	}
	for i := range want {
		if math.Float64bits(got[i].P1.Mean) != math.Float64bits(want[i].P1.Mean) ||
			math.Float64bits(got[i].P1.StdDev) != math.Float64bits(want[i].P1.StdDev) {
			rep.violate(fmt.Sprintf("parallel sweep point etf=%g differs from the serial sweep", want[i].ETF))
			return nil
		}
	}
	return nil
}

// sweepTimes is how many times the traced run repeats each comparison
// sweep; the medians are compared.
const sweepTimes = 7

// layers measures what the experiments layer adds around the simulator:
// the worker pool's speed-up over the serial sweep, and the pool's
// overhead at one worker against a bench-owned Reset loop over the same
// jobs. That loop runs with the loop controller, so it also splits the
// sweep's periods into plant and controller step.
func (d *sweepLoop) layers(rep *report) error {
	ctx := context.Background()
	etfs := experiments.Fig4ETFs()
	spec := sweepSpec(rep.seed, 0, 0)
	one := spec
	one.Parallelism = 1

	sys := workload.Simple()
	inner, err := core.New(sys, nil, workload.SimpleController())
	if err != nil {
		return err
	}
	periods := experiments.DefaultPeriods
	ctl := newLoopController(inner, rep.clk, periods, sys.Processors+len(sys.Tasks), false)
	var s *sim.Simulator
	var steps []float64
	var stepNs, jobs int64
	own := func() error {
		for _, etf := range etfs {
			ctl.rewind(true)
			ctl.Reset()
			cfg := sim.Config{
				System: sys, SamplingPeriod: workload.SamplingPeriod, Periods: periods,
				Controller: ctl, ETF: sim.ConstantETF(etf), Seed: spec.Seed,
			}
			if s == nil {
				s, err = sim.New(cfg)
			} else {
				err = s.Reset(cfg)
			}
			if err != nil {
				return err
			}
			tr, err := s.Run()
			if err != nil {
				return err
			}
			jobs += int64(tr.Stats.ReleasedJobs)
			for k, e := range ctl.exit {
				stepNs += e - ctl.enter[k]
				steps = append(steps, float64(e-ctl.enter[k])/1e3)
			}
		}
		return nil
	}

	var serial, parallel, pooled, owned []float64
	times := rep.reps(sweepTimes)
	for i := 0; i < times; i++ {
		t0 := rep.clk.now()
		if _, err := experiments.Sweep(ctx, spec, etfs); err != nil {
			return err
		}
		t1 := rep.clk.now()
		if _, err := experiments.SweepParallel(ctx, spec, etfs); err != nil {
			return err
		}
		t2 := rep.clk.now()
		if _, err := experiments.SweepParallel(ctx, one, etfs); err != nil {
			return err
		}
		t3 := rep.clk.now()
		if err := own(); err != nil {
			return err
		}
		t4 := rep.clk.now()
		serial = append(serial, float64(t1-t0))
		parallel = append(parallel, float64(t2-t1))
		pooled = append(pooled, float64(t3-t2))
		owned = append(owned, float64(t4-t3))
	}
	rep.layer["experiments.parallel_speedup"] = median(serial) / median(parallel)
	rep.layer["experiments.pool_overhead_frac"] = median(pooled)/median(owned) - 1

	n := float64(times * sweepPeriods())
	ownNs := 0.0
	for _, v := range owned {
		ownNs += v
	}
	plantNs := ownNs - float64(stepNs)
	rep.layer["sim.plant_us_per_period"] = plantNs / n / 1e3
	rep.layer["sim.plant_share"] = plantNs / ownNs
	rep.layer["sim.jobs_per_period"] = float64(jobs) / n
	rep.layer["sim.plant_ns_per_job"] = plantNs / float64(jobs)
	stepStats(rep, "core", steps, float64(stepNs)/ownNs)
	return nil
}

func (d *sweepLoop) coverSpans() []string { return []string{"op"} }
