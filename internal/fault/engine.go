package fault

import (
	"fmt"
	"math"
	"math/rand"
)

// Shape describes the dimensions an Engine compiles against: the system
// topology, the run length, and the sampling period that converts between
// period indices and simulated time.
type Shape struct {
	Procs int
	Tasks int
	// SubsPerTask holds the subtask count of each task (len == Tasks).
	SubsPerTask []int
	// Periods is the run length in sampling periods.
	Periods int
	// SamplingPeriod is the length of one sampling period in time units.
	SamplingPeriod float64
}

func (s Shape) check() error {
	switch {
	case s.Procs <= 0:
		return errShape("procs")
	case s.Tasks <= 0 || len(s.SubsPerTask) != s.Tasks:
		return errShape("tasks")
	case s.Periods <= 0:
		return errShape("periods")
	case s.SamplingPeriod <= 0:
		return errShape("sampling period")
	}
	return nil
}

func errShape(what string) error {
	return fmtError("fault: invalid shape: bad " + what)
}

type fmtError string

func (e fmtError) Error() string { return string(e) }

// FeedbackCell is the pre-resolved fate of one (period, processor)
// utilization sample on its way to the controller. Src is the sampling
// period whose measurement is actually delivered: Src == k means the fresh
// sample, Src < k a delayed one, and Src < 0 a dropped one. Quant > 0
// additionally rounds the delivered value to the nearest multiple.
type FeedbackCell struct {
	Src   int
	Quant float64
}

// CommandCell is the pre-resolved fate of one (period, task) rate command
// on its way to the rate modulator. Drop discards the command (the task
// keeps its previous rate), Delay > 0 applies the command issued Delay
// periods ago instead, and Clamp >= 0 bounds the per-period rate change
// (Clamp == 0 is a stuck modulator); Clamp < 0 leaves it unbounded.
type CommandCell struct {
	Drop  bool
	Delay int
	Clamp float64
}

// execWindow is one compiled execution-time perturbation, in absolute time.
type execWindow struct {
	proc, task, sub int // All (-1) wildcards
	start, stop     float64
	mag             float64
	ramp            bool
}

// crashWindow is one compiled processor outage, in absolute time.
type crashWindow struct {
	proc        int // All (-1) wildcards
	start, stop float64
}

// Engine compiles a fault scenario ([]Spec) against a Shape into flat,
// pre-resolved schedules and answers the simulator's hot-path queries from
// them without allocating. All probabilistic outcomes are fixed at Compile
// time, so queries are pure table lookups whose results cannot depend on
// event order, worker count, or engine reuse.
//
// The zero value is a valid idle engine; Compile with an empty scenario
// keeps it idle and performs no allocation, preserving the simulator's
// 0-alloc no-fault steady state across Reset reuse.
type Engine struct {
	enabled bool
	shape   Shape

	// feedback and cmds are period-major flat tables
	// (k*Procs+p and k*Tasks+i); down mirrors feedback's layout.
	feedback []FeedbackCell
	cmds     []CommandCell
	down     []bool

	execs   []execWindow
	crashes []crashWindow
}

// Compile resolves specs into the engine's schedules. runSeed is mixed into
// each probabilistic spec's seed so replications with distinct run
// seeds draw independent fault patterns. An empty scenario disables the
// engine without touching (or allocating) any table. Compile is safe to
// call repeatedly on the same engine: tables are grown once and reused.
func (e *Engine) Compile(specs []Spec, shape Shape, runSeed int64) error {
	e.enabled = false
	if len(specs) == 0 {
		return nil
	}
	if err := shape.check(); err != nil {
		return err
	}
	for i, sp := range specs {
		if err := sp.check(i, shape); err != nil {
			return err
		}
	}
	e.shape = shape
	e.resetTables()
	for i, sp := range specs {
		// Only the drop kinds draw, so only they pay for a random source.
		seed := mixSeed(runSeed, int64(i), sp.Seed)
		switch sp.Kind {
		case ExecStep, ExecRamp:
			e.applyExec(sp)
		case FeedbackDrop:
			e.applyFeedback(sp, rand.New(rand.NewSource(seed)))
		case FeedbackDelay, FeedbackQuantize:
			e.applyFeedback(sp, nil)
		case ActuatorDrop:
			e.applyActuator(sp, rand.New(rand.NewSource(seed)))
		case ActuatorDelay, ActuatorClamp:
			e.applyActuator(sp, nil)
		case ProcCrash:
			e.applyCrash(sp)
		default: //eucon:exhaustive-default spec.check rejects unknown kinds before compilation
			panic(fmt.Sprintf("fault: Compile on unvalidated kind %v", sp.Kind))
		}
	}
	e.enabled = true
	return nil
}

// resetTables sizes the schedules to the current shape and restores the
// identity scenario (fresh samples, unmodified commands, all processors
// up), reusing prior capacity.
func (e *Engine) resetTables() {
	nf := e.shape.Periods * e.shape.Procs
	nc := e.shape.Periods * e.shape.Tasks
	e.feedback = growFeedback(e.feedback, nf)
	e.cmds = growCommands(e.cmds, nc)
	e.down = growBools(e.down, nf)
	for k := 0; k < e.shape.Periods; k++ {
		row := k * e.shape.Procs
		for p := 0; p < e.shape.Procs; p++ {
			e.feedback[row+p] = FeedbackCell{Src: k}
			e.down[row+p] = false
		}
		crow := k * e.shape.Tasks
		for i := 0; i < e.shape.Tasks; i++ {
			e.cmds[crow+i] = CommandCell{Clamp: -1}
		}
	}
	e.execs = e.execs[:0]
	e.crashes = e.crashes[:0]
}

// Enabled reports whether a non-empty scenario is compiled. The simulator
// guards every fault query behind it so the no-fault hot path stays a
// single branch.
//
//eucon:noalloc
func (e *Engine) Enabled() bool { return e != nil && e.enabled }

// Feedback returns the fate of processor p's sample at period k.
//
//eucon:noalloc
func (e *Engine) Feedback(k, p int) FeedbackCell {
	if !e.enabled || k < 0 || k >= e.shape.Periods || p < 0 || p >= e.shape.Procs {
		return FeedbackCell{Src: k}
	}
	return e.feedback[k*e.shape.Procs+p]
}

// Command returns the fate of task i's rate command at period k.
//
//eucon:noalloc
func (e *Engine) Command(k, i int) CommandCell {
	if !e.enabled || k < 0 || k >= e.shape.Periods || i < 0 || i >= e.shape.Tasks {
		return CommandCell{Clamp: -1}
	}
	return e.cmds[k*e.shape.Tasks+i]
}

// DownPeriod reports whether processor p is down at any point during
// sampling period k; the utilization monitor reports u = 1 for such
// periods.
//
//eucon:noalloc
func (e *Engine) DownPeriod(k, p int) bool {
	if !e.enabled || k < 0 || k >= e.shape.Periods || p < 0 || p >= e.shape.Procs {
		return false
	}
	return e.down[k*e.shape.Procs+p]
}

// Down reports whether processor p is crashed at time t; a down processor
// admits no job releases.
//
//eucon:noalloc
func (e *Engine) Down(p int, t float64) bool {
	if !e.enabled {
		return false
	}
	for i := range e.crashes {
		w := &e.crashes[i]
		if w.proc >= 0 && w.proc != p {
			continue
		}
		if t >= w.start && t < w.stop {
			return true
		}
	}
	return false
}

// ExecFactor returns the execution-time multiplier for subtask sub of task
// task running on processor proc at time t. Overlapping windows compose
// multiplicatively; with no active window the factor is exactly 1.
//
//eucon:noalloc
func (e *Engine) ExecFactor(proc, task, sub int, t float64) float64 {
	if !e.enabled {
		return 1
	}
	f := 1.0
	for i := range e.execs {
		w := &e.execs[i]
		if w.proc >= 0 && w.proc != proc {
			continue
		}
		if w.task >= 0 && w.task != task {
			continue
		}
		if w.sub >= 0 && w.sub != sub {
			continue
		}
		if t < w.start || t >= w.stop {
			continue
		}
		if w.ramp {
			f *= 1 + (w.mag-1)*(t-w.start)/(w.stop-w.start)
		} else {
			f *= w.mag
		}
	}
	return f
}

// stopOr converts a Spec stop (periods, <= 0 meaning end of run) to
// absolute time, bounded by the run length.
func (e *Engine) stopOr(stop float64) float64 {
	end := float64(e.shape.Periods) * e.shape.SamplingPeriod
	if stop <= 0 {
		return end
	}
	return math.Min(stop*e.shape.SamplingPeriod, end)
}

// activePeriod reports whether period k lies inside the spec window
// [start, stop) expressed in periods.
func activePeriod(k int, start, stop float64) bool {
	if float64(k) < start {
		return false
	}
	return stop <= 0 || float64(k) < stop
}

// overlapsPeriod reports whether the window [start, stop) in period units
// overlaps sampling period k, i.e. the span [k, k+1).
func overlapsPeriod(k int, start, stop float64) bool {
	if start >= float64(k+1) {
		return false
	}
	return stop <= 0 || stop > float64(k)
}

// mixSeed derives a spec's private seed from the run seed, the spec's
// position in the scenario, and its own seed, using a splitmix64-style
// finalizer so adjacent inputs land far apart.
func mixSeed(runSeed, index, specSeed int64) int64 {
	z := uint64(runSeed)*0x9e3779b97f4a7c15 + uint64(index)*0xbf58476d1ce4e5b9 + uint64(specSeed)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

func growFeedback(buf []FeedbackCell, n int) []FeedbackCell {
	if cap(buf) < n {
		return make([]FeedbackCell, n)
	}
	return buf[:n]
}

func growCommands(buf []CommandCell, n int) []CommandCell {
	if cap(buf) < n {
		return make([]CommandCell, n)
	}
	return buf[:n]
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}
