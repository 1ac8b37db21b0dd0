package main

import (
	"time"

	"github.com/rtsyslab/eucon/internal/sim"
)

// clock is the load generator's monotonic clock: nanoseconds since the
// process's time base. Every timestamp the benchmark takes comes from it.
type clock struct{ base time.Time }

func newClock() clock {
	return clock{base: time.Now()} //eucon:wallclock-ok benchmark time base, never feeds control output
}

func (c clock) now() int64 {
	return int64(time.Since(c.base)) //eucon:wallclock-ok benchmark timestamp, never feeds control output
}

// loopController wraps the controller under test at the sim.Controller
// boundary — the one place every workload's feedback loop passes through.
// Untraced it takes one clock read per Step (at exit, which closes the
// operation); traced it also stamps Step entry, so the operation splits
// into the controller step and everything else. When recording it copies
// the (u, rates) pair the controller saw into a preallocated buffer, which
// the farm workloads need because the server keeps no history.
//
// The wrapper forwards the optional reporter interfaces, so a wrapped run
// is bit-identical to an unwrapped one.
type loopController struct {
	inner sim.Controller
	clk   clock

	traced bool
	enter  []int64 // Step entry stamps, traced runs only
	exit   []int64 // Step exit stamps

	width int       // len(u) + len(rates)
	seen  []float64 // flat (u, rates) rows, one per Step; nil when not recording
}

// newLoopController wraps inner, preallocating stamp and record buffers
// for steps Steps so the timed phase never grows them.
func newLoopController(inner sim.Controller, clk clock, steps, width int, record bool) *loopController {
	c := &loopController{inner: inner, clk: clk, width: width}
	c.enter = make([]int64, 0, steps)
	c.exit = make([]int64, 0, steps)
	if record {
		c.seen = make([]float64, 0, steps*width)
	}
	return c
}

// rewind empties the stamp and record buffers for the next run, keeping
// their capacity.
func (c *loopController) rewind(traced bool) {
	c.traced = traced
	c.enter = c.enter[:0]
	c.exit = c.exit[:0]
	c.seen = c.seen[:0]
}

// Name implements sim.Controller.
func (c *loopController) Name() string { return c.inner.Name() }

// Step implements sim.Controller.
func (c *loopController) Step(k int, u, rates []float64) ([]float64, error) {
	if c.traced {
		c.enter = append(c.enter, c.clk.now())
	}
	if c.seen != nil {
		c.seen = append(c.seen, u...)
		c.seen = append(c.seen, rates...)
	}
	out, err := c.inner.Step(k, u, rates)
	c.exit = append(c.exit, c.clk.now())
	return out, err
}

// Reset implements sim.Controller.
func (c *loopController) Reset() { c.inner.Reset() }

// SetPoints implements sim.Controller.
func (c *loopController) SetPoints() []float64 { return c.inner.SetPoints() }

// LastDegradation implements sim.DegradationReporter; a controller without
// the capability reports no degradation, which is what the simulator
// records for it anyway.
func (c *loopController) LastDegradation() (int, bool) {
	if r, ok := c.inner.(sim.DegradationReporter); ok {
		return r.LastDegradation()
	}
	return 0, false
}

// ContainmentCounts implements sim.ContainmentReporter.
func (c *loopController) ContainmentCounts() (bestIterate, regularized, held int) {
	if r, ok := c.inner.(sim.ContainmentReporter); ok {
		return r.ContainmentCounts()
	}
	return 0, 0, 0
}

// ExplicitCounts implements sim.ExplicitReporter.
func (c *loopController) ExplicitCounts() (hits, misses int) {
	if r, ok := c.inner.(sim.ExplicitReporter); ok {
		return r.ExplicitCounts()
	}
	return 0, 0
}

// recorded returns the (u, rates) rows seen since the last rewind; nu is
// len(u). The rows alias the controller's buffer.
func (c *loopController) recorded(nu int) replayRun {
	return replayRun{nu: nu, width: c.width, seen: c.seen}
}
