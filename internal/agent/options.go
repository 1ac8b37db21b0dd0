package agent

import (
	"time"

	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/sim"
)

// DefaultMembershipTimeout evicts a member that has been silent this long.
const DefaultMembershipTimeout = 30 * time.Second

// DefaultPeriodTimeout bounds how long the controller waits for the
// current period's reports before stepping with what it has.
const DefaultPeriodTimeout = 2 * time.Second

// Options collects the tunables shared by Server and RunAgent, set
// through functional options (Option). The zero value (normalized by
// newOptions) is a working configuration.
type Options struct {
	codec             lane.Codec
	queueDepth        int
	membershipTimeout time.Duration
	periods           int
	ioTimeout         time.Duration
	periodTimeout     time.Duration
	interval          time.Duration
	trace             bool

	etf            sim.ETFSchedule
	samplingPeriod float64
	jitter         float64
	seed           int64
	nodeName       string
	retry          lane.RetryPolicy
	sendFaults     lane.Plan
	latencySink    func(period int, rtt time.Duration)
	clock          Clock
	peerFaults     func(processor int) lane.Plan
}

// Option configures a Server or a node agent.
type Option func(*Options)

// newOptions applies opts over the defaults.
func newOptions(opts []Option) Options {
	o := Options{
		codec:             lane.Binary,
		queueDepth:        lane.DefaultQueueDepth,
		membershipTimeout: DefaultMembershipTimeout,
		ioTimeout:         DefaultTimeout,
		periodTimeout:     DefaultPeriodTimeout,
		samplingPeriod:    1,
		clock:             WallClock{},
	}
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	if o.retry.Seed == 0 {
		// Distinct per-agent retry seeds desynchronize backoff: a fleet
		// rejoining in unison after a healed partition must not retry in
		// unison too.
		o.retry.Seed = o.seed
	}
	return o
}

// WithCodec selects the wire codec for outgoing frames (incoming frames
// are always auto-detected, so mixed-codec fleets interoperate). The
// default is lane.Binary; lane.JSONv0 keeps the v0 JSON wire format.
func WithCodec(c lane.Codec) Option {
	return func(o *Options) {
		if c != nil {
			o.codec = c
		}
	}
}

// WithSendQueue bounds each peer's outbound send queue at depth frames
// (backpressure sheds the oldest utilization reports; rate commands are
// never dropped). Zero or negative selects lane.DefaultQueueDepth.
func WithSendQueue(depth int) Option {
	return func(o *Options) { o.queueDepth = depth }
}

// WithMembershipTimeout evicts members silent for longer than d. Zero or
// negative selects DefaultMembershipTimeout.
func WithMembershipTimeout(d time.Duration) Option {
	return func(o *Options) {
		if d > 0 {
			o.membershipTimeout = d
		} else {
			o.membershipTimeout = DefaultMembershipTimeout
		}
	}
}

// WithPeriods bounds a Server run at n sampling periods; zero or negative
// runs until the context is canceled.
func WithPeriods(n int) Option {
	return func(o *Options) { o.periods = n }
}

// WithIOTimeout bounds each lane send/receive; zero or negative selects
// DefaultTimeout.
func WithIOTimeout(d time.Duration) Option {
	return func(o *Options) {
		if d > 0 {
			o.ioTimeout = d
		} else {
			o.ioTimeout = DefaultTimeout
		}
	}
}

// WithPeriodTimeout bounds how long the Server waits for the current
// period's reports before stepping with what it has: a missing member is
// substituted by its last report (its set point if it never reported);
// zero or negative selects DefaultPeriodTimeout.
func WithPeriodTimeout(d time.Duration) Option {
	return func(o *Options) {
		if d > 0 {
			o.periodTimeout = d
		} else {
			o.periodTimeout = DefaultPeriodTimeout
		}
	}
}

// WithInterval sets the real-time duration of one sampling period. Zero
// (the default) runs in lockstep: the Server steps as soon as every
// member has reported (period 0 once every processor has joined), and
// agents wait for each period's rates before sampling again — as fast as
// the lanes allow.
func WithInterval(d time.Duration) Option {
	return func(o *Options) { o.interval = d }
}

// WithTrace records the full per-period utilization and rate history in
// ServerResult (off by default: a 1000-processor farm run would retain
// megabytes of history the harness only needs in aggregate).
func WithTrace(enabled bool) Option {
	return func(o *Options) { o.trace = enabled }
}

// WithETF sets a node agent's execution-time-factor schedule for the
// synthetic plant.
func WithETF(s sim.ETFSchedule) Option {
	return func(o *Options) { o.etf = s }
}

// WithSamplingPeriod sets the plant-time units per sampling period used
// for ETF schedule lookup; zero or negative selects 1.
func WithSamplingPeriod(ts float64) Option {
	return func(o *Options) {
		if ts > 0 {
			o.samplingPeriod = ts
		} else {
			o.samplingPeriod = 1
		}
	}
}

// WithJitter adds uniform ±j relative noise to a node agent's measured
// utilization.
func WithJitter(j float64) Option {
	return func(o *Options) { o.jitter = j }
}

// WithSeed seeds a node agent's measurement noise.
func WithSeed(seed int64) Option {
	return func(o *Options) { o.seed = seed }
}

// WithNodeName labels a node agent in its hello message.
func WithNodeName(name string) Option {
	return func(o *Options) { o.nodeName = name }
}

// WithRetry sets the resend policy for a node agent's utilization
// reports over a faulty transport.
func WithRetry(p lane.RetryPolicy) Option {
	return func(o *Options) { o.retry = p }
}

// WithSendFaults injects transport faults (drops, delays — e.g.
// fault.TransportPlan) into a node agent's outbound reports. A report
// still lost after retries is abandoned; the Server holds the member's
// last report in its place.
func WithSendFaults(p lane.Plan) Option {
	return func(o *Options) { o.sendFaults = p }
}

// WithClock injects the clock pacing a free-running node agent's sampling
// periods (default: the wall clock). Skewed or drifting clocks
// (NewSkewedClock) let a harness prove the server's liveness sweep and
// hold-last substitution survive agents that disagree about time by whole
// periods. The server itself always keeps wall time — it is the fleet's
// time reference.
func WithClock(c Clock) Option {
	return func(o *Options) {
		if c != nil {
			o.clock = c
		}
	}
}

// WithTransportFaults injects per-peer transport faults into the Server's
// outbound rate lanes: plan(p) returns the fault plan for processor p's
// lane (nil for a clean lane). Dropped rate frames exercise the agents'
// stale-frame tolerance and the delta codec's resync path; duplicates and
// reorders exercise frame idempotence. Derive per-peer plans from one
// template with fault.TransportPlan.Reseed so peers' loss patterns
// decorrelate.
func WithTransportFaults(plan func(processor int) lane.Plan) Option {
	return func(o *Options) { o.peerFaults = plan }
}

// WithLatencySink streams a node agent's end-to-end sampling-period
// latencies (report sent → rates received) to fn. fn is called from the
// agent's loop goroutine and must be fast or thread-safe as the caller
// requires.
func WithLatencySink(fn func(period int, rtt time.Duration)) Option {
	return func(o *Options) { o.latencySink = fn }
}
