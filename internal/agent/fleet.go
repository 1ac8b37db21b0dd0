package agent

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
)

// Fleet is a whole control plane in one process: a Server plus one
// RunAgent per processor of Sys over loopback TCP, with scheduled outages,
// per-lane transport faults and every agent's period latency collected.
// It is the harness under euconfarm, the partition chaos campaign and this
// package's tests.
type Fleet struct {
	Sys  *task.System
	Ctrl sim.Controller
	// Server configures the Server. Agent configures processor p's agent;
	// it is called on that agent's goroutine at every launch, just before
	// the agent dials, so sleeping in it staggers the launch.
	Server []Option
	Agent  func(p int) []Option
	// Faults, when set, returns processor p's transport fault plan for one
	// direction of its lane — inbound carries the agent's reports, outbound
	// the Server's rates — or nil for a clean direction. period reads the
	// live Server's sampling period, so a plan can open and close windows.
	Faults func(p int, inbound bool, period func() int) lane.Plan
	// Outages kill and relaunch agents on the Server's period clock.
	Outages []Outage
}

// Outage kills the agents of Procs once the Server reaches period At — the
// lane just dies, with no goodbye, and the Server books a crash — and
// relaunches them once it reaches period Rejoin.
type Outage struct {
	Procs      []int
	At, Rejoin int
}

// FleetResult is a finished Fleet run. Latency holds every agent's
// report-sent → rates-received round trip, ascending, except period 0's:
// in lockstep that one includes the wait for the whole fleet to join.
type FleetResult struct {
	*ServerResult
	Latency []time.Duration
}

// Quantile reads the q-quantile of Latency (zero when there is none).
func (r *FleetResult) Quantile(q float64) time.Duration {
	if len(r.Latency) == 0 {
		return 0
	}
	return r.Latency[int(q*float64(len(r.Latency)-1))]
}

// Run launches the fleet and runs it until the Server's run ends. An agent
// error fails the run and ends it at once, unless an outage killed that
// agent or the Server had begun shutting down: a lane the Server closes
// after its last period can lose the shutdown notice to the outbound
// fault plan, and its agent then reads a reset connection.
func (f *Fleet) Run(ctx context.Context) (*FleetResult, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var srv *Server
	period := func() int { return srv.Period() }
	opts := slices.Clip(f.Server)
	if f.Faults != nil {
		opts = append(opts, WithTransportFaults(func(p int) lane.Plan { return f.Faults(p, false, period) }))
	}
	if srv, err = NewServer(f.Sys, f.Ctrl, ln, opts...); err != nil {
		_ = ln.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex // guards lat, errs and kills
		lat   []time.Duration
		errs  []error
		kills = make([]context.CancelFunc, f.Sys.Processors)
	)
	sink := WithLatencySink(func(k int, rtt time.Duration) {
		if k > 0 {
			mu.Lock()
			lat = append(lat, rtt)
			mu.Unlock()
		}
	})
	launch := func(p int) {
		actx, kill := context.WithCancel(ctx)
		mu.Lock()
		kills[p] = kill
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := append(slices.Clip(f.Agent(p)), sink)
			if f.Faults != nil {
				opts = append(opts, WithSendFaults(f.Faults(p, true, period)))
			}
			err := RunAgent(actx, f.Sys, p, ln.Addr().String(), opts...)
			if err != nil && actx.Err() == nil && !srv.stopping.Load() {
				mu.Lock()
				errs = append(errs, fmt.Errorf("agent P%d: %w", p+1, err))
				mu.Unlock()
				cancel()
			}
		}()
	}
	for p := 0; p < f.Sys.Processors; p++ {
		launch(p)
	}
	for _, o := range f.Outages {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if waitPeriod(ctx, srv, o.At) {
				mu.Lock()
				for _, p := range o.Procs {
					kills[p]()
				}
				mu.Unlock()
			}
			if waitPeriod(ctx, srv, o.Rejoin) {
				for _, p := range o.Procs {
					launch(p)
				}
			}
		}()
	}

	res, err := srv.Run(ctx)
	cancel()
	wg.Wait()
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	if err != nil {
		return nil, err
	}
	slices.Sort(lat)
	return &FleetResult{ServerResult: res, Latency: lat}, nil
}

// waitPeriod polls until srv reaches period k; false once ctx ends first.
func waitPeriod(ctx context.Context, srv *Server, k int) bool {
	for srv.Period() < k {
		if ctx.Err() != nil {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// TailMeans averages each processor's utilization over the last tail rows
// of u, a traced run's Utilization (all rows when there are fewer): the
// re-convergence measure the harnesses gate on.
func TailMeans(u [][]float64, tail int) []float64 {
	tail = min(tail, len(u))
	if tail == 0 {
		return nil
	}
	means := make([]float64, len(u[0]))
	for _, row := range u[len(u)-tail:] {
		for p, v := range row {
			means[p] += v
		}
	}
	for p := range means {
		means[p] /= float64(tail)
	}
	return means
}
