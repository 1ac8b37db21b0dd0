package agent

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/rtsyslab/eucon/internal/fault"
	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
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

// TestServerV2ConvergesUnderDupAndReorder: a fully v2 fleet converges to
// the set points while the server's outbound rate lanes duplicate and
// reorder frames and the agents' reports cross a lossy plan. Every rates
// frame carries absolute values for all hosted tasks, and the agents'
// stale-frame guard makes duplicated and displaced frames idempotent; if
// either failed, the plant would actuate wrong rates and the tail would
// miss the set points.
func TestServerV2ConvergesUnderDupAndReorder(t *testing.T) {
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

// TestMismatchedCodecLaneFailsClosed: a lane has one codec, fixed at both
// ends, so an agent framing in another codec than the server's is refused
// at its hello. The agent fails fast with an error instead of joining on
// frames the server would misread, no join is booked, and the server keeps
// running.
func TestMismatchedCodecLaneFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		name          string
		server, agent lane.Codec
	}{
		{"v1-server-v2-agent", lane.Binary, lane.BinaryV2},
		{"v2-server-v1-agent", lane.BinaryV2, lane.Binary},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := workload.Simple()
			srv, addr, done := startServer(t, sys, simpleController(t, sys),
				WithPeriodTimeout(100*time.Millisecond), WithCodec(tc.server))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				res, err := srv.Run(ctx)
				done <- serverOutcome{res, err}
			}()

			const ioTimeout = 3 * time.Second
			start := time.Now() //eucon:wallclock-ok measuring how fast the agent fails
			err := RunAgent(ctx, sys, 0, addr, WithCodec(tc.agent), WithIOTimeout(ioTimeout))
			elapsed := time.Since(start) //eucon:wallclock-ok measuring how fast the agent fails
			if err == nil {
				t.Fatal("agent on a mismatched codec returned nil, want an error")
			}
			if elapsed >= ioTimeout {
				t.Fatalf("agent took %v to fail, want under its %v I/O timeout", elapsed, ioTimeout)
			}
			select {
			case out := <-done:
				t.Fatalf("server stopped after a mismatched lane: %+v", out)
			default:
			}
			cancel()
			out := <-done
			if out.err != nil {
				t.Fatal(out.err)
			}
			if out.res.Joins != 0 || out.res.Rejoins != 0 {
				t.Fatalf("joins=%d rejoins=%d, want a mismatched lane never admitted", out.res.Joins, out.res.Rejoins)
			}
		})
	}
}

// TestCanceledAgentClosesLane: canceling an agent closes its lane at once,
// even while it is blocked waiting for rates. Otherwise it sits out its
// whole I/O timeout, and the server waits on a member that is still
// connected but will never report. A raw server acks the hello and then
// stays silent.
func TestCanceledAgentClosesLane(t *testing.T) {
	sys := workload.Simple()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agentDone := make(chan error, 1)
	go func() {
		agentDone <- RunAgent(ctx, sys, 0, ln.Addr().String(), WithIOTimeout(10*time.Second))
	}()

	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	conn := lane.NewConn(nc)
	defer func() { _ = conn.Close() }()
	var m lane.Message
	if err := conn.ReceiveInto(&m, 5*time.Second); err != nil || m.Type != lane.TypeHello {
		t.Fatalf("first frame = %v, %v; want hello", m.Type, err)
	}
	ack := &lane.Message{Type: lane.TypeRates, Rates: lane.Rates{Period: 0, Values: sys.InitialRates()}}
	if err := conn.Send(ack, time.Second); err != nil {
		t.Fatal(err)
	}
	// The agent's period-0 report proves it is past the join-ack and
	// blocked waiting for period-0 rates that never come.
	if err := conn.ReceiveInto(&m, 5*time.Second); err != nil || m.Type != lane.TypeUtilizationBatch {
		t.Fatalf("second frame = %v, %v; want a report", m.Type, err)
	}

	cancel()
	select {
	case err := <-agentDone:
		if err != nil {
			t.Fatalf("canceled agent returned %v, want nil", err)
		}
	case <-time.After(time.Second):
		t.Fatal("canceled agent still blocked after 1s")
	}
	for {
		err := conn.ReceiveInto(&m, 5*time.Second)
		if err == nil {
			continue
		}
		if !errors.Is(err, io.EOF) {
			t.Fatalf("server side read %v, want EOF", err)
		}
		break
	}
}

// acceptJoin plays a raw server's side of a join on ln: it reads the
// hello and acks with period-0 rates.
func acceptJoin(t *testing.T, ln net.Listener, sys *task.System) *lane.Conn {
	t.Helper()
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	conn := lane.NewConn(nc)
	var m lane.Message
	if err := conn.ReceiveInto(&m, 5*time.Second); err != nil || m.Type != lane.TypeHello {
		_ = conn.Close()
		t.Fatalf("first frame = %v, %v; want hello", m.Type, err)
	}
	ack := &lane.Message{Type: lane.TypeRates, Rates: lane.Rates{Period: 0, Values: sys.InitialRates()}}
	if err := conn.Send(ack, time.Second); err != nil {
		_ = conn.Close()
		t.Fatal(err)
	}
	return conn
}

// goroutineStacks returns every live goroutine's stack trace.
func goroutineStacks() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(string(buf[:n]), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// stackWith returns the first goroutine stack containing every one of
// parts, or "".
func stackWith(parts ...string) string {
	for _, st := range goroutineStacks() {
		all := true
		for _, p := range parts {
			all = all && strings.Contains(st, p)
		}
		if all {
			return st
		}
	}
	return ""
}

// delayFrom delays every send from message index from on by d.
type delayFrom struct {
	from uint64
	d    time.Duration
}

func (p delayFrom) FateOf(n uint64) (bool, time.Duration, bool, bool) {
	if n >= p.from {
		return false, p.d, false, false
	}
	return false, 0, false, false
}

// TestCanceledAgentBlockedInReportWriteClosesLane: a lockstep agent writes
// its reports from its own loop, so a stalled lane or a fault plan's delay
// can hold that loop in a report write. Canceling it must still return nil
// at once and close the lane. A raw server acks the hello and streams
// rates for period after period; in the stalled case it never reads, until
// the agent's reports fill the socket buffers, and in the delayed case
// every report after the first sits in a one-minute injected delay.
func TestCanceledAgentBlockedInReportWriteClosesLane(t *testing.T) {
	for _, tc := range []struct {
		name    string
		plan    lane.Plan
		blocked string // in the agent loop's stack while it is held
	}{
		{"stalled-lane", nil, "waitWrite"},
		{"fault-plan-delay", delayFrom{1, time.Minute}, "(*FaultConn).Send"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := workload.Simple()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = ln.Close() }()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			agentDone := make(chan error, 1)
			go func() {
				agentDone <- RunAgent(ctx, sys, 0, ln.Addr().String(), WithIOTimeout(time.Minute),
					WithTransportFaults(func(int) lane.Plan { return tc.plan }))
			}()
			conn := acceptJoin(t, ln, sys)
			defer func() { _ = conn.Close() }()
			go func() {
				rates := &lane.Message{Type: lane.TypeRates, Rates: lane.Rates{Values: sys.InitialRates()}}
				for k := 0; ; k++ {
					rates.Rates.Period = k
					if conn.Send(rates, 0) != nil {
						return // the agent closed the lane
					}
				}
			}()

			deadline := time.Now().Add(30 * time.Second) //eucon:wallclock-ok test timeout
			for stackWith("agent.runLockstep(", tc.blocked) == "" {
				if time.Now().After(deadline) { //eucon:wallclock-ok test timeout
					t.Fatal("the agent never blocked in a report write")
				}
				time.Sleep(10 * time.Millisecond)
			}

			cancel()
			select {
			case err := <-agentDone:
				if err != nil {
					t.Fatalf("canceled agent returned %v, want nil", err)
				}
			case <-time.After(time.Second):
				t.Fatal("canceled agent still blocked after 1s")
			}
			// A blocked write may have put part of a frame on the wire, and
			// the agent closed with rates unread, so its end may cut a frame
			// or reset the lane rather than finish it; any of those ends the
			// server's read.
			var m lane.Message
			for {
				err := conn.ReceiveInto(&m, 5*time.Second)
				if err == nil {
					continue
				}
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, syscall.ECONNRESET) {
					t.Fatalf("server side read %v, want the lane's end", err)
				}
				break
			}
		})
	}
}

// TestLockstepAgentWritesOneFramePerPeriod: a lockstep agent starts no
// send queue goroutine and writes exactly one report frame per period,
// each carrying that period's one sample.
func TestLockstepAgentWritesOneFramePerPeriod(t *testing.T) {
	sys := workload.Simple()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agentDone := make(chan error, 1)
	go func() {
		agentDone <- RunAgent(ctx, sys, 1, ln.Addr().String(), WithIOTimeout(5*time.Second))
	}()
	conn := acceptJoin(t, ln, sys)
	defer func() { _ = conn.Close() }()

	const periods = 20
	var m lane.Message
	rates := &lane.Message{Type: lane.TypeRates, Rates: lane.Rates{Values: sys.InitialRates()}}
	for k := 0; k <= periods; k++ {
		if err := conn.ReceiveInto(&m, 5*time.Second); err != nil {
			t.Fatalf("period %d: %v", k, err)
		}
		if m.Type != lane.TypeUtilizationBatch || m.Batch.Processor != 1 || m.Batch.First != k || len(m.Batch.Samples) != 1 {
			t.Fatalf("period %d: got %v from P%d for periods %d+%d, want one report of period %d",
				k, m.Type, m.Batch.Processor+1, m.Batch.First, len(m.Batch.Samples), k)
		}
		if k == periods/2 {
			// The agent is parked on period k's rates now.
			st := stackWith("agent.runLockstep(")
			id, _, ok := strings.Cut(strings.TrimPrefix(st, "goroutine "), " ")
			if !ok {
				t.Fatal("no goroutine runs the lockstep loop")
			}
			if q := stackWith("(*SendQueue).run", "in goroutine "+id+"\n"); q != "" {
				t.Fatalf("the lockstep agent started a send queue:\n%s", q)
			}
		}
		if k == periods {
			break
		}
		rates.Rates.Period = k
		if err := conn.Send(rates, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// The agent now waits for period-20 rates: no second frame follows.
	if err := conn.ReceiveInto(&m, 50*time.Millisecond); err == nil {
		t.Fatalf("a second frame (%v) followed the period-%d report", m.Type, periods)
	}
	if err := conn.Send(&lane.Message{Type: lane.TypeShutdown}, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-agentDone; err != nil {
		t.Fatalf("agent returned %v after shutdown, want nil", err)
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
