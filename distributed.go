package eucon

import (
	"context"
	"net"

	"github.com/rtsyslab/eucon/internal/agent"
)

// Distributed runtime facade: the paper's §4 architecture over real TCP
// feedback lanes — per-processor node agents reporting utilization to a
// central controller daemon, which broadcasts rate commands back — behind
// the membership layer of internal/agent. Agents join, leave, crash, and
// rejoin without a controller restart; outbound frames flow through
// bounded per-peer send queues that shed stale utilization reports under
// backpressure but never drop rate commands.
//
// ServeController and RunNodeAgent are the production entry points; the
// cmd/euconctl, cmd/nodeagent, and cmd/euconfarm binaries drive
// internal/agent directly and expose its wire codecs, transport faults,
// clocks and queue depths as flags.

type (
	// ControllerServerResult is the daemon's aggregate run record:
	// periods stepped, membership transitions, degradation and frame
	// counters, and (with DistributedTrace) the full utilization history.
	ControllerServerResult = agent.ServerResult
	// DistributedOption configures ServeController and RunNodeAgent.
	DistributedOption = agent.Option
)

// ServeController runs the controller daemon on ln until the context is
// canceled or the configured period bound is reached: it admits node
// agents as they dial in, steps ctrl once per sampling period on the
// fleet's utilization reports, and broadcasts each member the rates of
// the tasks it hosts. Ownership of ln passes to the daemon.
func ServeController(ctx context.Context, sys *System, ctrl Controller, ln net.Listener, opts ...DistributedOption) (*ControllerServerResult, error) {
	srv, err := agent.NewServer(sys, ctrl, ln, opts...)
	if err != nil {
		return nil, err
	}
	return srv.Run(ctx)
}

// RunNodeAgent connects one node agent — the utilization monitor and rate
// modulator for processor p of sys — to the controller daemon at addr and
// participates in the feedback loop until the daemon says shutdown, the
// lane fails, or ctx is canceled (which returns nil: cancellation is the
// normal way to stop an agent).
func RunNodeAgent(ctx context.Context, sys *System, p int, addr string, opts ...DistributedOption) error {
	return agent.RunAgent(ctx, sys, p, addr, opts...)
}

// DistributedPeriods bounds a controller daemon run at n sampling
// periods; zero runs until the context is canceled.
func DistributedPeriods(n int) DistributedOption { return agent.WithPeriods(n) }

// DistributedTrace records the full per-period utilization and rate
// history in the run result (off by default).
func DistributedTrace(enabled bool) DistributedOption { return agent.WithTrace(enabled) }

// DistributedETF sets a node agent's execution-time-factor schedule for
// its synthetic plant.
func DistributedETF(s ETFSchedule) DistributedOption { return agent.WithETF(s) }
