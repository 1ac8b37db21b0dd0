package eucon

import (
	"context"
	"net"
	"time"

	"github.com/rtsyslab/eucon/internal/agent"
	"github.com/rtsyslab/eucon/internal/fault"
	"github.com/rtsyslab/eucon/internal/lane"
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
// cmd/euconctl, cmd/nodeagent, and cmd/euconfarm binaries are thin
// wrappers over them.

type (
	// ControllerServer is the controller daemon: the centralized feedback
	// loop behind a membership layer. Build one with NewControllerServer
	// when the run needs its Period method (e.g. for harness choreography);
	// ServeController covers the common case.
	ControllerServer = agent.Server
	// ControllerServerResult is the daemon's aggregate run record:
	// periods stepped, membership transitions, degradation and frame
	// counters, and (with DistributedTrace) the full utilization history.
	ControllerServerResult = agent.ServerResult
	// DistributedOption configures ServeController and RunNodeAgent; the
	// constructors below mirror internal/agent's functional options.
	DistributedOption = agent.Option
	// WireCodec encodes and decodes lane frames; see BinaryCodec,
	// BinaryV2Codec, and JSONCodec.
	WireCodec = lane.Codec
	// WirePlan decides the fate of each message crossing a faulty
	// transport (see TransportPlan and DistributedTransportFaults).
	WirePlan = lane.Plan
	// TransportPlan is the canonical WirePlan: seeded, stateless
	// drop/delay/duplicate/reorder probabilities applied per frame. A plan
	// is a pure function of its Seed; Reseed decorrelates copies of the
	// same plan across peers and directions.
	TransportPlan = fault.TransportPlan
	// AgentClock is a node agent's injectable time source; see
	// DistributedClock, WallClock, and NewSkewedClock.
	AgentClock = agent.Clock
)

// Wire codecs for DistributedCodec: the compact binary format (the
// default — versioned, zero-alloc in steady state), the delta-friendly v2
// binary format (varint rates payload; a controller lane whose peer joins
// in v2 sends delta-compacted rate frames), and the v0 JSON format kept
// for interoperability. Incoming frames are always auto-detected, so a
// fleet may mix codecs freely.
var (
	BinaryCodec   WireCodec = lane.Binary
	BinaryV2Codec WireCodec = lane.BinaryV2
	JSONCodec     WireCodec = lane.JSONv0
)

// WallClock is the production agent clock (the real time.Now/time.After).
func WallClock() AgentClock { return agent.WallClock{} }

// ParseTransportPlan parses the flag syntax the cmd binaries accept for
// -transport-faults, e.g. "drop=0.05,delayprob=0.5,delay=20ms,dup=0.01,
// reorder=0.01,seed=7". The empty string parses to the zero plan.
func ParseTransportPlan(spec string) (TransportPlan, error) {
	return fault.ParseTransportPlan(spec)
}

// NewSkewedClock builds an agent clock offset from the wall clock by
// offset and running at a rate of (1 + drift) wall seconds per second, for
// harnesses that prove the controller tolerates nodes that disagree about
// time.
func NewSkewedClock(offset time.Duration, drift float64) AgentClock {
	return agent.NewSkewedClock(offset, drift)
}

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

// NewControllerServer builds the controller daemon without starting it;
// call Run. Use this over ServeController when the caller needs the
// Server handle (its Period method reports loop progress).
func NewControllerServer(sys *System, ctrl Controller, ln net.Listener, opts ...DistributedOption) (*ControllerServer, error) {
	return agent.NewServer(sys, ctrl, ln, opts...)
}

// RunNodeAgent connects one node agent — the utilization monitor and rate
// modulator for processor p of sys — to the controller daemon at addr and
// participates in the feedback loop until the daemon says shutdown, the
// lane fails, or ctx is canceled (which returns nil: cancellation is the
// normal way to stop an agent).
func RunNodeAgent(ctx context.Context, sys *System, p int, addr string, opts ...DistributedOption) error {
	return agent.RunAgent(ctx, sys, p, addr, opts...)
}

// DistributedCodec selects the wire codec for outgoing frames (incoming
// frames are auto-detected). Default: BinaryCodec.
func DistributedCodec(c WireCodec) DistributedOption { return agent.WithCodec(c) }

// DistributedSendQueue bounds each peer's outbound send queue at depth
// frames; under backpressure the oldest utilization reports are shed and
// rate commands are never dropped. Zero selects the default depth.
func DistributedSendQueue(depth int) DistributedOption { return agent.WithSendQueue(depth) }

// DistributedMembershipTimeout evicts members silent for longer than the
// given duration; zero selects the default.
func DistributedMembershipTimeout(d time.Duration) DistributedOption {
	return agent.WithMembershipTimeout(d)
}

// DistributedPeriods bounds a controller daemon run at n sampling
// periods; zero runs until the context is canceled.
func DistributedPeriods(n int) DistributedOption { return agent.WithPeriods(n) }

// DistributedInterval sets the real-time duration of one sampling period.
// Zero (the default) runs in lockstep — the daemon steps as soon as every
// member has reported, as fast as the lanes allow.
func DistributedInterval(d time.Duration) DistributedOption { return agent.WithInterval(d) }

// DistributedTrace records the full per-period utilization and rate
// history in the run result (off by default).
func DistributedTrace(enabled bool) DistributedOption { return agent.WithTrace(enabled) }

// DistributedETF sets a node agent's execution-time-factor schedule for
// its synthetic plant.
func DistributedETF(s ETFSchedule) DistributedOption { return agent.WithETF(s) }

// DistributedClock injects the clock pacing a free-running node agent's
// sampling periods (default: the wall clock). Skewed or drifting clocks
// let a deployment harness prove the controller's liveness sweep and
// hold-last substitution survive nodes that disagree about time.
func DistributedClock(c AgentClock) DistributedOption { return agent.WithClock(c) }

// DistributedTransportFaults injects per-peer transport faults
// (drop/delay/duplicate/reorder — e.g. a reseeded TransportPlan) into the
// controller daemon's outbound rate lanes, keyed by processor index; on a
// node agent the plan keyed by its own processor faults its reports. Loss
// the plan injects is degraded around — hold-last substitution upstream,
// stale-frame tolerance downstream — never fatal.
func DistributedTransportFaults(plan func(processor int) WirePlan) DistributedOption {
	return agent.WithTransportFaults(plan)
}

// DistributedSendFaults is the node-agent side of
// DistributedTransportFaults: it faults the agent's outbound utilization
// reports under plan (a retried report consumes a fresh message index, so
// an injected drop can be recovered on the next attempt). Use distinct
// seeds per agent and direction — Reseed on one TransportPlan template —
// or every lane loses the same frames at once.
func DistributedSendFaults(plan WirePlan) DistributedOption {
	return agent.WithSendFaults(plan)
}
