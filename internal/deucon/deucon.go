// Package deucon implements DEUCON-style decentralized end-to-end
// utilization control — the future work the EUCON paper closes with
// ("we will develop decentralized control architecture to handle
// large-scale distributed systems"), realized by the authors in the
// follow-on DEUCON work.
//
// Instead of one centralized MIMO controller, every processor runs a local
// model-predictive controller that:
//
//   - controls only the tasks it leads (the tasks whose first subtask it
//     hosts),
//   - observes only its own utilization and its neighbors' (processors
//     that share at least one task with it), and
//   - compensates for neighbor-led tasks using the rate-change plans those
//     neighbors announced in the previous sampling period (a one-period
//     information delay — the honest price of decentralization).
//
// Each local problem is a small constrained least-squares program solved
// with the same machinery as the centralized controller, so per-processor
// work stays bounded as the system grows: the local problem size depends
// on the neighborhood, not on the whole system.
package deucon

import (
	"fmt"

	"github.com/rtsyslab/eucon/internal/mat"
	"github.com/rtsyslab/eucon/internal/mpc"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
)

// Every local loop runs the paper's SIMPLE tuning (Table 2).
const (
	predictionHorizon = 2 // P
	controlHorizon    = 1 // M
	trefOverTs        = 4 // Tref/Ts
)

// Config tunes the decentralized controller. It has no settings: the
// local controllers run the paper's SIMPLE tuning and step serially.
type Config struct{}

// adjTerm is one precomputed coupling coefficient: a nonzero allocation
// entry F[proc][task] for a task led by another processor, whose announced
// plan therefore perturbs proc's utilization.
type adjTerm struct {
	task int
	coef float64
}

// local is one processor's controller state.
type local struct {
	proc  int
	led   []int // task indices this processor leads
	scope []int // processors visible to this controller: {proc} ∪ neighbors
	// adj[ri] lists, for scope row ri, the nonzero F[scope[ri]][j] over
	// tasks j led elsewhere — the only announcements that can move this
	// row's utilization. Precomputed once so the per-period compensation
	// walks the neighborhood instead of the global task set: per-step work
	// scales with chain fan-out, not with system size.
	adj  [][]adjTerm
	ctrl *mpc.Controller

	// Per-period scratch, reused across periods so the steady-state local
	// step performs zero heap allocations.
	uLocal []float64
	rLed   []float64
	res    *mpc.StepResult
}

// Controller is the decentralized utilization controller. It implements
// sim.Controller; internally it runs one local MPC per processor with
// the restricted information structure described in the package comment.
// It is not safe for concurrent use.
type Controller struct {
	sys       *task.System
	setPoints []float64
	locals    []*local
	f         *mat.Dense

	// announced[j] is task j's leader-announced rate change from the
	// previous period, used by other controllers to compensate.
	announced []float64
	// messages counts utilization reports + plan announcements exchanged.
	messages int
	periods  int
	// outcomes[o] counts local solves with mpc.SolveOutcome o across all
	// periods — on a healthy steady state every count but
	// SolveOK stays zero.
	outcomes [mpc.SolveExplicitMiss + 1]int

	// Per-period merge scratch, reused across periods (see Step).
	out  []float64
	next []float64
}

var _ sim.Controller = (*Controller)(nil)

// New builds the decentralized controller. Passing nil set points selects
// the system's default (Liu–Layland) set points.
func New(sys *task.System, setPoints []float64, _ Config) (*Controller, error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("deucon: %w", err)
	}
	if setPoints == nil {
		setPoints = sys.DefaultSetPoints()
	}
	if len(setPoints) != sys.Processors {
		return nil, fmt.Errorf("deucon: %d set points for %d processors", len(setPoints), sys.Processors)
	}
	c := &Controller{
		sys:       sys,
		setPoints: mat.VecClone(setPoints),
		f:         sys.AllocationMatrix(),
		announced: make([]float64, len(sys.Tasks)),
	}
	leaders := leadersOf(sys)
	neighborSets := neighborsOf(sys)
	for p := 0; p < sys.Processors; p++ {
		led := leaders[p]
		if len(led) == 0 {
			continue // nothing to control from this processor
		}
		scope := append([]int{p}, neighborSets[p]...)
		l, err := newLocal(sys, c.f, setPoints, p, led, scope)
		if err != nil {
			return nil, err
		}
		c.locals = append(c.locals, l)
	}
	if len(c.locals) == 0 {
		return nil, fmt.Errorf("deucon: no processor leads any task")
	}
	c.out = make([]float64, len(sys.Tasks))
	c.next = make([]float64, len(sys.Tasks))
	return c, nil
}

// leadersOf maps each processor to the tasks whose first subtask it hosts.
func leadersOf(sys *task.System) [][]int {
	out := make([][]int, sys.Processors)
	for j := range sys.Tasks {
		p := sys.Tasks[j].Subtasks[0].Processor
		out[p] = append(out[p], j)
	}
	return out
}

// neighborsOf maps each processor to the processors sharing a task with
// it.
func neighborsOf(sys *task.System) [][]int {
	seen := make([]map[int]bool, sys.Processors)
	for p := range seen {
		seen[p] = make(map[int]bool)
	}
	for j := range sys.Tasks {
		procs := make(map[int]bool)
		for _, st := range sys.Tasks[j].Subtasks {
			procs[st.Processor] = true
		}
		//eucon:order-independent symmetric marking; seen[a][b] is set regardless of visit order
		for a := range procs {
			//eucon:order-independent inner half of the same symmetric marking
			for b := range procs {
				if a != b {
					seen[a][b] = true
				}
			}
		}
	}
	out := make([][]int, sys.Processors)
	for p := range out {
		for q := 0; q < sys.Processors; q++ {
			if seen[p][q] {
				out[p] = append(out[p], q)
			}
		}
	}
	return out
}

// newLocal builds processor p's local MPC over its led tasks and visible
// scope.
func newLocal(sys *task.System, f *mat.Dense, setPoints []float64, p int, led, scope []int) (*local, error) {
	sub := mat.New(len(scope), len(led))
	for ri, proc := range scope {
		for ci, t := range led {
			sub.Set(ri, ci, f.At(proc, t))
		}
	}
	b := make([]float64, len(scope))
	for ri, proc := range scope {
		b[ri] = setPoints[proc]
	}
	rmin := make([]float64, len(led))
	rmax := make([]float64, len(led))
	for ci, t := range led {
		rmin[ci] = sys.Tasks[t].RateMin
		rmax[ci] = sys.Tasks[t].RateMax
	}
	// Track ONLY the own processor's set point: each utilization has
	// exactly one responsible controller, so local objectives never fight.
	// Neighbors still enter through the hard output constraints
	// u_neighbor ≤ B_neighbor, which keep this controller from overloading
	// them.
	weights := make([]float64, len(scope))
	weights[0] = 1
	ctrl, err := mpc.New(sub, b, rmin, rmax, mpc.Config{
		PredictionHorizon: predictionHorizon,
		ControlHorizon:    controlHorizon,
		TrefOverTs:        trefOverTs,
		QWeights:          weights,
	})
	if err != nil {
		return nil, fmt.Errorf("deucon: local controller for P%d: %w", p+1, err)
	}
	// Precompute the coupling structure: for each visible processor, the
	// nonzero allocation entries of tasks led elsewhere. On a bounded-fan-out
	// workload each list stays O(chains through the neighborhood) however
	// large the system grows.
	adj := make([][]adjTerm, len(scope))
	for ri, proc := range scope {
		for j := range sys.Tasks {
			if sys.Tasks[j].Subtasks[0].Processor == p {
				continue
			}
			if v := f.At(proc, j); !mat.IsZero(v) {
				adj[ri] = append(adj[ri], adjTerm{task: j, coef: v})
			}
		}
	}
	return &local{
		proc: p, led: led, scope: scope, adj: adj, ctrl: ctrl,
		uLocal: make([]float64, len(scope)),
		rLed:   make([]float64, len(led)),
		res:    ctrl.NewStepResult(),
	}, nil
}

// Name implements sim.Controller.
func (c *Controller) Name() string { return "DEUCON" }

// SetPoints implements sim.Controller: a copy of the per-processor set
// points the local controllers steer toward.
func (c *Controller) SetPoints() []float64 { return mat.VecClone(c.setPoints) }

// Step implements sim.Controller: one decentralized control period.
// Each local MPC reads only this period's shared measurements and last
// period's announcements and controls a disjoint set of tasks; the locals
// step in processor order, so the first failing processor wins error
// reporting and counters accumulate in a fixed order.
//
// The returned rate slice aliases controller-owned memory reused by the
// next Step call; callers that keep it across periods must copy it (the
// simulator copies it into the plant state and traces immediately). The
// whole period, per-processor solves included, runs allocation-free in
// the steady state.
//
//eucon:noalloc
func (c *Controller) Step(_ int, u, rates []float64) ([]float64, error) {
	if len(u) != c.sys.Processors {
		return nil, fmt.Errorf("deucon: utilization vector has length %d, want %d", len(u), c.sys.Processors) //eucon:alloc-ok error path only; the hot path never formats
	}
	if len(rates) != len(c.sys.Tasks) {
		return nil, fmt.Errorf("deucon: rate vector has length %d, want %d", len(rates), len(c.sys.Tasks)) //eucon:alloc-ok error path only; the hot path never formats
	}
	c.periods++

	copy(c.out, rates)
	for _, l := range c.locals {
		if err := c.stepLocal(l, u, rates); err != nil {
			return nil, fmt.Errorf("deucon: local step on P%d: %w", l.proc+1, err) //eucon:alloc-ok error path only; the hot path never formats
		}
		c.messages += len(l.scope) // utilization reports (own report counted uniformly)
		c.outcomes[l.res.Outcome]++
		for ci, t := range l.led {
			c.out[t] = l.res.NewRates[ci]
			c.next[t] = l.res.DeltaR[ci]
			c.messages++ // plan announcement to the processors hosting t
		}
	}
	copy(c.announced, c.next)
	return c.out, nil
}

// stepLocal runs one processor's local MPC for the current period into the
// local's reusable scratch. It reads only the period's measurements, the
// rates and the previous period's announcements, and writes only the
// local's own state.
//
//eucon:noalloc
func (c *Controller) stepLocal(l *local, u, rates []float64) error {
	// Local view: own + neighbor utilizations, adjusted by the effect of
	// OTHER leaders' previously announced plans so the local model does not
	// double-react to their corrections. Only the precomputed nonzero
	// couplings are walked; structural zeros cannot move the sum.
	for ri, proc := range l.scope {
		adj := u[proc]
		for _, e := range l.adj[ri] {
			adj += e.coef * c.announced[e.task]
		}
		if adj < 0 {
			adj = 0
		}
		if adj > 1 {
			adj = 1
		}
		l.uLocal[ri] = adj
	}
	for ci, t := range l.led {
		l.rLed[ci] = rates[t]
	}
	return l.ctrl.StepTo(l.res, l.uLocal, l.rLed)
}

// Reset restores the controller to its post-New state: every local MPC's
// move memory and warm-start cache is cleared, the announced-plan exchange
// is emptied, and the message and period counters restart. A Reset
// controller drives a run bit-identically to a freshly built one, which
// lets sweep workers reuse one controller across replications.
func (c *Controller) Reset() {
	for _, l := range c.locals {
		l.ctrl.Reset()
	}
	for i := range c.announced {
		c.announced[i] = 0
	}
	c.messages = 0
	c.periods = 0
	c.outcomes = [mpc.SolveExplicitMiss + 1]int{}
}

// OutcomeCounts reports how many local solves had each outcome, indexed
// by mpc.SolveOutcome, across all periods since construction or Reset.
func (c *Controller) OutcomeCounts() [mpc.SolveExplicitMiss + 1]int { return c.outcomes }

// Messages reports the total number of control-plane messages exchanged so
// far (utilization reports plus plan announcements).
func (c *Controller) Messages() int { return c.messages }

// Periods reports how many control periods have run.
func (c *Controller) Periods() int { return c.periods }

// LocalControllers reports how many processors run a local controller.
func (c *Controller) LocalControllers() int { return len(c.locals) }

// MaxLocalProblemSize returns the largest local problem as (scope
// processors, led tasks) — the decentralization payoff: this stays small
// as the system grows.
func (c *Controller) MaxLocalProblemSize() (procs, tasks int) {
	for _, l := range c.locals {
		if len(l.scope) > procs {
			procs = len(l.scope)
		}
		if len(l.led) > tasks {
			tasks = len(l.led)
		}
	}
	return procs, tasks
}
