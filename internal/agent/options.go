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
	return o
}

// retryPolicy is the resend policy of processor p's lane: the lane
// defaults, with a jitter seed that mixes p into seed. Distinct seeds per
// processor desynchronize backoff, so a fleet rejoining in unison after a
// healed partition does not retry in unison too — even when every agent
// runs with the same options.
func retryPolicy(seed int64, p int) lane.RetryPolicy {
	return lane.RetryPolicy{Seed: seed ^ (int64(p)+1)*0x9e3779b9}
}

// NodeSeed derives processor p's noise seed from a fleet-wide seed. It is
// a splitmix64 finalizer, not retryPolicy's XOR: the agent mixes p in again
// for retry jitter, and two equal XORs would cancel.
func NodeSeed(seed int64, p int) int64 {
	z := uint64(seed) + (uint64(p)+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
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

// WithTransportFaults injects per-processor transport faults: plan(p)
// returns the fault plan for processor p's lane (nil for a clean lane).
// On a Server it faults the outbound rate lanes: dropped rate frames
// exercise the agents' stale-frame tolerance and the delta codec's resync
// path; duplicates and reorders exercise frame idempotence. On a node
// agent it faults the agent's outbound reports: a report still lost after
// retries is abandoned, and the Server holds the member's last report in
// its place. Derive per-lane plans from one template with
// fault.TransportPlan.ForLane so loss patterns decorrelate across peers
// and directions.
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
