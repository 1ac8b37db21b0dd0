package agent

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/rtsyslab/eucon/internal/fault"
	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/workload"
)

// TestSkewedClockSemantics pins the clock model: Now applies offset plus
// accumulated drift, and After scales the wait so a fast clock genuinely
// ticks faster than wall time.
func TestSkewedClockSemantics(t *testing.T) {
	c := NewSkewedClock(time.Hour, 0)
	if off := time.Until(c.Now()); off < 59*time.Minute || off > 61*time.Minute { //eucon:wallclock-ok comparing the skewed clock against the wall is the point
		t.Fatalf("offset clock reads %v ahead, want ≈ 1h", off)
	}
	// A clock running 3× fast (+2.0 drift) fires After(90ms) in ≈ 30ms of
	// wall time. Bounds are loose: scheduling noise must not flake this.
	fast := NewSkewedClock(0, 2.0)
	start := time.Now() //eucon:wallclock-ok measuring real elapsed time of the scaled wait
	<-fast.After(90 * time.Millisecond)
	elapsed := time.Since(start) //eucon:wallclock-ok measuring real elapsed time of the scaled wait
	if elapsed < 10*time.Millisecond || elapsed > 75*time.Millisecond {
		t.Errorf("After(90ms) on a 3x clock took %v of wall time, want ≈ 30ms", elapsed)
	}
	// Drift at or below -1 (a clock running backwards) is clamped, not a
	// divide-by-zero or a negative wait.
	stuck := NewSkewedClock(0, -1)
	start = time.Now() //eucon:wallclock-ok measuring real elapsed time of the scaled wait
	<-stuck.After(5 * time.Millisecond)
	if time.Since(start) > 5*time.Second { //eucon:wallclock-ok measuring real elapsed time of the scaled wait
		t.Error("clamped drift still produced an unbounded wait")
	}
}

// TestAgentRetrySeedDefaultsFromAgentSeed pins the rejoin-storm defense at
// the options layer: 64 agents launched with identical options (the same
// noise seed, as a nodeagent fleet started with default flags has) must
// still draw distinct retry jitter, because the retry seed mixes in the
// processor, so a fleet rejoining in the same period spreads its resends.
// The lane-level spread itself is proven in lane's rejoin-storm test.
func TestAgentRetrySeedDefaultsFromAgentSeed(t *testing.T) {
	for _, opts := range [][]Option{nil, {WithSeed(1)}} {
		o := newOptions(opts)
		seen := make(map[time.Duration]int)
		for p := 0; p < 64; p++ {
			seen[retryPolicy(o.seed, p).JitteredBackoff(0)]++
		}
		if len(seen) < 60 {
			t.Errorf("seed %d: 64 identically configured agents share %d first backoffs — rejoin storms stay synchronized", o.seed, 64-len(seen))
		}
	}
}

// TestNodeSeedKeepsRetryJitterDistinct: a nodeagent fleet started with
// one -seed hands each agent NodeSeed(seed, p), and the agent mixes p in
// again for its retry seed. The two mixes must not cancel: 64 such agents
// still draw distinct first backoffs.
func TestNodeSeedKeepsRetryJitterDistinct(t *testing.T) {
	for _, seed := range []int64{0, 1, 42} {
		seen := make(map[time.Duration]int)
		for p := 0; p < 64; p++ {
			seen[retryPolicy(NodeSeed(seed, p), p).JitteredBackoff(0)]++
		}
		if len(seen) < 60 {
			t.Errorf("fleet seed %d: 64 agents share %d first backoffs — rejoin storms stay synchronized", seed, 64-len(seen))
		}
	}
}

// TestServerV2CodecNegotiation drives the hello handshake over a raw lane:
// a peer whose hello arrives in binary v2 must be answered in v2 (the
// server flips that lane's outbound codec), while a v1 peer keeps v1 —
// negotiation is per lane, keyed on the hello frame's version byte.
func TestServerV2CodecNegotiation(t *testing.T) {
	sys := workload.Simple()
	srv, addr, done := startServer(t, sys, simpleController(t, sys),
		WithPeriodTimeout(100*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		res, err := srv.Run(ctx)
		done <- serverOutcome{res, err}
	}()

	for _, tc := range []struct {
		name  string
		codec lane.Codec
		proc  int
		want  byte
	}{
		{"v2-hello-gets-v2-ack", lane.BinaryV2, 0, lane.FrameVersionBinaryV2},
		{"v1-hello-gets-v1-ack", lane.Binary, 1, lane.FrameVersionBinary},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := lane.Dial(addr, time.Second, lane.WithConnCodec(tc.codec))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = conn.Close() }()
			hello := &lane.Message{Type: lane.TypeHello, Hello: lane.Hello{Processor: tc.proc, Node: tc.name}}
			if err := conn.Send(hello, time.Second); err != nil {
				t.Fatal(err)
			}
			ack, err := conn.Receive(2 * time.Second)
			if err != nil || ack.Type != lane.TypeRates {
				t.Fatalf("join ack = %+v, %v; want rates", ack, err)
			}
			if got := conn.LastFrameVersion(); got != tc.want {
				t.Fatalf("ack frame version = 0x%02x, want 0x%02x", got, tc.want)
			}
		})
	}
	cancel()
	<-done
}

// TestServerV2DeltaConvergesUnderDupAndReorder is the delta-compaction
// end-to-end check: a fully v2 fleet converges to the set points while the
// server's outbound rate lanes duplicate and reorder frames and the
// agents' reports cross a lossy plan. Stale-frame guards make duplicated
// and displaced rate frames idempotent; if delta subsetting desynchronized
// agent state, the plant would actuate wrong rates and the tail would miss
// the set points.
func TestServerV2DeltaConvergesUnderDupAndReorder(t *testing.T) {
	sys := workload.Simple()
	template := fault.TransportPlan{DupProb: 0.15, ReorderProb: 0.08, Seed: 11}
	res := runOK(t, &Fleet{Sys: sys, Ctrl: simpleController(t, sys),
		Server: []Option{WithPeriods(80), WithTrace(true), WithPeriodTimeout(150 * time.Millisecond), WithCodec(lane.BinaryV2)},
		Agent: func(p int) []Option {
			return []Option{WithETF(sim.ConstantETF(1)), WithCodec(lane.BinaryV2), WithSeed(int64(p + 1))}
		},
		Faults: func(p int, inbound bool, _ func() int) lane.Plan {
			if inbound {
				return fault.TransportPlan{DropProb: 0.05, Seed: 1}.ForLane(p, true)
			}
			return template.ForLane(p, false)
		}})
	if res.Periods != 80 {
		t.Fatalf("Periods = %d, want 80", res.Periods)
	}
	if res.ControllerErrors != 0 {
		t.Fatalf("ControllerErrors = %d, want 0", res.ControllerErrors)
	}
	sp := simpleController(t, sys).SetPoints()
	for p := 0; p < sys.Processors; p++ {
		var sum float64
		n := 0
		for k := 40; k < 80; k++ {
			if u := res.Utilization[k][p]; !math.IsNaN(u) {
				sum += u
				n++
			}
		}
		if n == 0 {
			t.Fatalf("P%d: every tail sample missing", p+1)
		}
		if mean := sum / float64(n); math.Abs(mean-sp[p]) > 0.05 {
			t.Errorf("P%d tail mean %.4f under dup/reorder, want ≈ %.4f", p+1, mean, sp[p])
		}
	}
}

// TestServerMixedCodecFleetConverges runs one v2 agent, one v1 agent, and
// the v1 default on the server: per-frame auto-detection plus per-lane
// negotiation must let the codecs interleave on one fleet with no loss of
// control quality.
func TestServerMixedCodecFleetConverges(t *testing.T) {
	sys := workload.Simple()
	codecs := []lane.Codec{lane.BinaryV2, lane.JSONv0}
	res := runOK(t, &Fleet{Sys: sys, Ctrl: simpleController(t, sys),
		Server: []Option{WithPeriods(60), WithTrace(true), WithPeriodTimeout(5 * time.Second)},
		Agent: func(p int) []Option {
			return []Option{WithETF(sim.ConstantETF(1)), WithCodec(codecs[p%len(codecs)])}
		}})
	if res.Periods != 60 || res.Joins != sys.Processors {
		t.Fatalf("periods=%d joins=%d, want 60 and %d", res.Periods, res.Joins, sys.Processors)
	}
	sp := simpleController(t, sys).SetPoints()
	final := res.Utilization[len(res.Utilization)-1]
	for p, v := range final {
		if math.Abs(v-sp[p]) > 0.05 {
			t.Errorf("u(P%d) converged to %.4f, want %.4f ± 0.05", p+1, v, sp[p])
		}
	}
}

// TestServerToleratesSkewedFreeRunningAgents proves the liveness sweep and
// hold-last substitution survive agents whose clocks disagree with the
// server's by whole periods: one agent samples 40% fast, the other 30%
// slow, with opposite constant offsets. The run must complete its period
// budget with both members alive at the end — no eviction, no controller
// error — while phase misalignment is absorbed as missed/stale reports.
func TestServerToleratesSkewedFreeRunningAgents(t *testing.T) {
	sys := workload.Simple()
	const interval = 5 * time.Millisecond
	clocks := []Clock{
		NewSkewedClock(interval, 0.4),   // one period ahead, 40% fast
		NewSkewedClock(-interval, -0.3), // one period behind, 30% slow
	}
	res := runOK(t, &Fleet{Sys: sys, Ctrl: simpleController(t, sys),
		Server: []Option{WithPeriods(60), WithInterval(interval),
			WithMembershipTimeout(2 * time.Second), WithPeriodTimeout(100 * time.Millisecond)},
		Agent: func(p int) []Option {
			return []Option{WithETF(sim.ConstantETF(1)), WithInterval(interval), WithClock(clocks[p])}
		}})
	if res.Periods != 60 {
		t.Fatalf("Periods = %d, want 60", res.Periods)
	}
	if res.Joins != 2 || res.Crashes != 0 || res.LiveAtEnd != 2 {
		t.Fatalf("membership: joins=%d crashes=%d live=%d — skew must not evict or crash members", res.Joins, res.Crashes, res.LiveAtEnd)
	}
	if res.ControllerErrors != 0 {
		t.Fatalf("ControllerErrors = %d, want 0", res.ControllerErrors)
	}
	t.Logf("skewed fleet: missed=%d stale=%d (phase misalignment absorbed by hold-last)", res.MissedReports, res.StaleSamples)
}

// reorderWindow reorders every send whose index lies in [from, to] and
// delivers the rest untouched.
type reorderWindow struct{ from, to uint64 }

func (w reorderWindow) FateOf(n uint64) (bool, time.Duration, bool, bool) {
	return false, 0, false, n >= w.from && n <= w.to
}

// TestServerLockstepRecoversWhenEveryRatesFrameIsHeld is the lockstep
// liveness regression. A reordered frame is held until its lane's next
// send, so when every member's newest rates frame is held at once the
// agents wait for rates, the server waits for reports, and nobody sends:
// the fleet used to sit at that period until the agents' I/O timeout killed
// them and the server idled forever. The period timer now re-sends the
// current rates, which releases the held frames, and the run completes.
func TestServerLockstepRecoversWhenEveryRatesFrameIsHeld(t *testing.T) {
	sys := workload.Simple()
	const periods = 60
	res := runOK(t, &Fleet{Sys: sys, Ctrl: simpleController(t, sys),
		Server: []Option{WithPeriods(periods), WithTrace(true), WithPeriodTimeout(100 * time.Millisecond),
			WithTransportFaults(func(int) lane.Plan { return reorderWindow{10, 20} })},
		Agent: func(p int) []Option {
			return []Option{WithETF(sim.ConstantETF(1)), WithSeed(int64(p + 1)), WithIOTimeout(5 * time.Second)}
		}})
	if res.Periods != periods || res.LiveAtEnd != sys.Processors || res.ControllerErrors != 0 {
		t.Fatalf("periods=%d live=%d controller errors=%d, want %d, %d and 0",
			res.Periods, res.LiveAtEnd, res.ControllerErrors, periods, sys.Processors)
	}
	if res.Crashes != 0 || res.Rejoins != 0 {
		t.Errorf("crashes=%d rejoins=%d: the fleet should ride out held frames without losing a member", res.Crashes, res.Rejoins)
	}
}
