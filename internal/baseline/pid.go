package baseline

import (
	"fmt"

	"github.com/rtsyslab/eucon/internal/mat"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
)

// PID is a decoupled per-processor PID utilization controller in the style
// of the earlier feedback-control scheduling work the paper builds on
// (FCS [10], FCS for distributed systems [17]). Each processor runs an
// independent loop: its utilization error drives a common rate scaling for
// the tasks whose subtasks it hosts.
//
// The paper argues this design "cannot be easily extended to end-to-end
// utilization control due to the coupling among multiple processors": a
// rate change commanded by one processor's loop perturbs every other
// processor its tasks touch. PID exists here as that comparator — it works
// on decoupled workloads and degrades as coupling grows (see the
// pid-coupling study of euconsim -exp ext-ablations).
type PID struct {
	sys       *task.System
	setPoints []float64
	integral  []float64
	f         *mat.Dense
}

var _ sim.Controller = (*PID)(nil)

// The per-processor loop gains: stable on decoupled workloads.
const (
	pidKp = 0.5 // proportional gain on the utilization error
	pidKi = 0.1 // integral gain
)

// NewPID builds the decoupled PID comparator. Passing nil set points
// selects the system's default (Liu–Layland) set points.
func NewPID(sys *task.System, setPoints []float64) (*PID, error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("pid: %w", err)
	}
	if setPoints == nil {
		setPoints = sys.DefaultSetPoints()
	}
	if len(setPoints) != sys.Processors {
		return nil, fmt.Errorf("pid: %d set points for %d processors", len(setPoints), sys.Processors)
	}
	return &PID{
		sys:       sys,
		setPoints: mat.VecClone(setPoints),
		integral:  make([]float64, sys.Processors),
		f:         sys.AllocationMatrix(),
	}, nil
}

// Name implements sim.Controller.
func (c *PID) Name() string { return "PID" }

// SetPoints implements sim.Controller: a copy of the per-processor set
// points the loops steer toward.
func (c *PID) SetPoints() []float64 { return mat.VecClone(c.setPoints) }

// Step implements sim.Controller. Each processor computes a
// multiplicative rate correction from its own loop; a task hosted on
// several processors receives the most conservative (smallest) correction,
// the natural decoupled-design choice and exactly where the coupling bites.
func (c *PID) Step(_ int, u, rates []float64) ([]float64, error) {
	if len(u) != c.sys.Processors {
		return nil, fmt.Errorf("pid: utilization vector has length %d, want %d", len(u), c.sys.Processors)
	}
	if len(rates) != len(c.sys.Tasks) {
		return nil, fmt.Errorf("pid: rate vector has length %d, want %d", len(rates), len(c.sys.Tasks))
	}
	// Per-processor multiplicative correction: 1 + Kp·e + Ki·∫e, with the
	// error normalized by the set point.
	scale := make([]float64, c.sys.Processors)
	for p := range scale {
		e := (c.setPoints[p] - u[p]) / c.setPoints[p]
		c.integral[p] += e
		// Anti-windup: bound the integral so saturated periods do not wind
		// the loop up.
		const windup = 5
		if c.integral[p] > windup {
			c.integral[p] = windup
		}
		if c.integral[p] < -windup {
			c.integral[p] = -windup
		}
		s := 1 + pidKp*e + pidKi*c.integral[p]
		if s < 0.1 {
			s = 0.1
		}
		if s > 2 {
			s = 2
		}
		scale[p] = s
	}
	out := make([]float64, len(rates))
	for i := range c.sys.Tasks {
		t := &c.sys.Tasks[i]
		// Most conservative correction across the processors this task
		// touches.
		s := 0.0
		first := true
		for _, st := range t.Subtasks {
			if first || scale[st.Processor] < s {
				s = scale[st.Processor]
				first = false
			}
		}
		r := rates[i] * s
		if r < t.RateMin {
			r = t.RateMin
		}
		if r > t.RateMax {
			r = t.RateMax
		}
		out[i] = r
	}
	return out, nil
}

// Reset clears the integral state.
func (c *PID) Reset() {
	for i := range c.integral {
		c.integral[i] = 0
	}
}
