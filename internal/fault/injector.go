package fault

import "math/rand"

// Each apply function writes one validated Spec's whole effect into the
// engine's schedules up front, driven off sampling-period indices and
// simulated time, so the run itself only reads tables. Probabilistic
// kinds draw from a private rand.Rand seeded from (run seed, scenario
// position, Spec.Seed) and never touch the global math/rand source.

// applyExec perturbs actual execution times: a step (burst) multiplies
// them by Magnitude inside the window, a ramp grows the factor linearly
// from 1 at Start to Magnitude at Stop. It generalizes the global ETF knob
// to per-processor, per-task, or per-subtask granularity.
func (e *Engine) applyExec(sp Spec) {
	ts := e.shape.SamplingPeriod
	e.execs = append(e.execs, execWindow{
		proc:  sp.Proc,
		task:  sp.Task,
		sub:   sp.Sub,
		start: sp.Start * ts,
		stop:  e.stopOr(sp.Stop),
		mag:   sp.Magnitude,
		ramp:  sp.Kind == ExecRamp,
	})
}

// applyFeedback corrupts the monitor-to-controller path. Drops are
// pre-resolved per (period, processor) in ascending order from rng; delays
// rewrite the delivered source period; quantization records the rounding
// step. Later specs compose sequentially, with drops winning over delays.
func (e *Engine) applyFeedback(sp Spec, rng *rand.Rand) {
	for k := 0; k < e.shape.Periods; k++ {
		if !activePeriod(k, sp.Start, sp.Stop) {
			continue
		}
		row := k * e.shape.Procs
		for p := 0; p < e.shape.Procs; p++ {
			if sp.Proc != All && sp.Proc != p {
				continue
			}
			cell := &e.feedback[row+p]
			switch sp.Kind {
			case FeedbackDrop:
				// Draw unconditionally so the pattern over periods is a
				// pure function of the spec's seed, independent of what
				// earlier specs did to the cell.
				if rng.Float64() < sp.Magnitude {
					cell.Src = -1
				}
			case FeedbackDelay:
				if cell.Src >= 0 { // a drop wins over a delay
					src := k - sp.Delay
					if src < 0 {
						src = -1 // nothing was ever measured that early
					}
					cell.Src = src
				}
			case FeedbackQuantize:
				cell.Quant = sp.Magnitude
			default: //eucon:exhaustive-default Compile routes only the Feedback kinds here
			}
		}
	}
}

// applyActuator corrupts the controller-to-rate-modulator path. Drops are
// pre-resolved per (period, task) from rng; delays make period k apply the
// command issued Delay periods earlier; clamps bound the per-period rate
// move (a 0 bound is a stuck modulator).
func (e *Engine) applyActuator(sp Spec, rng *rand.Rand) {
	for k := 0; k < e.shape.Periods; k++ {
		if !activePeriod(k, sp.Start, sp.Stop) {
			continue
		}
		row := k * e.shape.Tasks
		for i := 0; i < e.shape.Tasks; i++ {
			if sp.Task != All && sp.Task != i {
				continue
			}
			cell := &e.cmds[row+i]
			switch sp.Kind {
			case ActuatorDrop:
				if rng.Float64() < sp.Magnitude {
					cell.Drop = true
				}
			case ActuatorDelay:
				cell.Delay = sp.Delay
			case ActuatorClamp:
				cell.Clamp = sp.Magnitude
			default: //eucon:exhaustive-default Compile routes only the Actuator kinds here
			}
		}
	}
}

// applyCrash takes a processor down for the window: job releases on it
// are shed and its monitor reports u = 1 for every overlapped sampling
// period, modeling overload/crash followed by recovery.
func (e *Engine) applyCrash(sp Spec) {
	ts := e.shape.SamplingPeriod
	e.crashes = append(e.crashes, crashWindow{
		proc:  sp.Proc,
		start: sp.Start * ts,
		stop:  e.stopOr(sp.Stop),
	})
	for k := 0; k < e.shape.Periods; k++ {
		if !overlapsPeriod(k, sp.Start, sp.Stop) {
			continue
		}
		row := k * e.shape.Procs
		for p := 0; p < e.shape.Procs; p++ {
			if sp.Proc == All || sp.Proc == p {
				e.down[row+p] = true
			}
		}
	}
}
