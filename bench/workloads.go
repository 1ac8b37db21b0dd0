package main

import (
	"github.com/rtsyslab/eucon/internal/experiments"
	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// loop is how a workload closes the feedback loop. setup does everything
// before the first timed operation of a round and returns the instance
// whose run is that round's timed phase; work numbers the round's seeded
// inputs (two rounds with equal work must compute the same thing); verify checks round 0's output
// against an independent computation; layers adds the per-layer
// measurements of a traced run.
type loop interface {
	setup(rep *report, work int, traced bool) (instance, error)
	verify(rep *report) error
	layers(rep *report) error
	// coverSpans names the spans that must tile a traced round's wall.
	coverSpans() []string
}

type instance interface {
	run(rep *report, work int, traced bool) error
	close()
}

// workloadDef is one benchmark workload. Every workload is a closed loop:
// the next sampling period starts when the previous one's rates are
// applied, so a slower system is offered less load.
type workloadDef struct {
	name string
	// why records what the workload was chosen to show.
	why string
	// op is what one operation is on this workload.
	op string
	// tailPct is the fixed percentile of op_tail_us.
	tailPct float64
	// trackTol is the largest tracking error (worst processor, worst run)
	// a correct run may show: the workload's own transient plus margin.
	trackTol float64
	loop     loop
}

func simpleSystem() (*task.System, error) { return workload.Simple(), nil }
func mediumSystem() (*task.System, error) { return workload.Medium(), nil }
func large8() (*task.System, error)       { return workload.Large(8) }
func large128() (*task.System, error)     { return workload.Large(128) }
func constantETF() (sim.ETFSchedule, error) {
	return sim.ConstantETF(1), nil
}

// stepUpETF doubles execution times halfway through large-central's run.
func stepUpETF() (sim.ETFSchedule, error) {
	return sim.StepETF(sim.ETFStep{At: 0, Factor: 1}, sim.ETFStep{At: 60 * workload.SamplingPeriod, Factor: 2})
}

var (
	simpleCore = &ctlSpec{system: simpleSystem, cfg: workload.SimpleController()}
	mediumCore = &ctlSpec{system: mediumSystem, cfg: workload.MediumController(), explicit: true}
	largeCore  = &ctlSpec{system: large8, cfg: workload.LargeController()}
	largeLocal = &ctlSpec{system: large128, deucon: true}
	mediumLoc  = &ctlSpec{system: mediumSystem, deucon: true}
)

// workloads are the six benchmark workloads, in -all order. The per-round
// sizes keep a round near one to two seconds on the reference machine
// (bench/baseline.json), so a ten-second run holds five to ten rounds.
var workloads = []*workloadDef{
	{
		name:    "simple-sweep",
		why:     "the paper's Fig. 4 path: a tiny QP, so the sim event loop, Reset pooling and the experiments worker pool are the cost",
		op:      "one experiments.SweepParallel call (13 factors x 300 periods of SIMPLE)",
		tailPct: 0.90, trackTol: 0.06,
		loop: &sweepLoop{calls: 100},
	},
	{
		name:    "medium-dynamic",
		why:     "Experiment II on MEDIUM: qp/mat active-set churn is nearly all of the wall, so a solver change shows and a sim change must not",
		op:      "one sampling period of MEDIUM under core (plant advance, report, step, rates applied)",
		tailPct: 0.95, trackTol: 0.05,
		loop: &simLoop{ctl: mediumCore,
			etf: func() (sim.ETFSchedule, error) { return experiments.DynamicETF(), nil }, jitter: workload.MediumJitter,
			periods: 300, runs: 2, warm: 30,
		},
	},
	{
		name:    "large-central",
		why:     "the same core/mpc/qp layer at 40 variables on the banded path; with medium-dynamic it gives the centralized scaling slope",
		op:      "one sampling period of LARGE-8 under core, execution times doubling at period 60",
		tailPct: 0.90, trackTol: 0.05,
		loop: &simLoop{ctl: largeCore,
			etf: stepUpETF, periods: 120, runs: 1, warm: 5,
		},
	},
	{
		name:    "large-deucon",
		why:     "LARGE-128 under localized DEUCON: the one workload where the simulator does most of the work and deucon the rest",
		op:      "one sampling period of LARGE-128 under deucon",
		tailPct: 0.95, trackTol: 0.10,
		loop: &simLoop{ctl: largeLocal,
			etf: constantETF, periods: 120, runs: 4, warm: 10,
		},
	},
	{
		name:    "farm-lockstep",
		why:     "SIMPLE over loopback TCP, 2 agents, binary v1: the smallest frames, so per-frame lane and agent cost dominates the round trip",
		op:      "one agent's report-sent to rates-applied round trip",
		tailPct: 0.99, trackTol: 0.06,
		loop: &farmLoop{ctl: simpleCore, codec: lane.Binary, jitter: 0.15, periods: 30000},
	},
	{
		name:    "farm-wide",
		why:     "MEDIUM over loopback TCP, 4 agents, binary v2 deltas, deucon in the server: wider frames and a 4-member collect barrier",
		op:      "one agent's report-sent to rates-applied round trip",
		tailPct: 0.99, trackTol: 0.05,
		loop: &farmLoop{ctl: mediumLoc, codec: lane.BinaryV2, jitter: 0.15, periods: 12000},
	},
}

func lookupWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
