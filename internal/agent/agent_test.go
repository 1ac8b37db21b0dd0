package agent

import (
	"context"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/fault"
	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// gateListener makes a lockstep fleet's trajectory independent of join
// order. The Server steps as soon as every live member has reported, so
// without the gate the first agent to join is stepped alone for however
// many periods the scheduler gives it. The gate holds each accepted
// connection's first server write — the join-ack — until n connections
// have one pending; from then on every lockstep period has all n reports.
type gateListener struct {
	net.Listener
	n       int32
	pending atomic.Int32
	once    sync.Once
	open    chan struct{}
}

// release opens the gate; it also runs on Close and test timeout, so a
// fleet that failed to assemble cannot park the server's queue writers.
func (l *gateListener) release() { l.once.Do(func() { close(l.open) }) }

func (l *gateListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gateConn{Conn: nc, gate: l}, nil
}

func (l *gateListener) Close() error {
	l.release()
	return l.Listener.Close()
}

type gateConn struct {
	net.Conn
	gate  *gateListener
	first sync.Once
}

func (c *gateConn) Write(p []byte) (int, error) {
	c.first.Do(func() {
		if c.gate.pending.Add(1) == c.gate.n {
			c.gate.release()
		}
		<-c.gate.open
	})
	return c.Conn.Write(p)
}

// runFleet runs a Server against one lockstep RunAgent per processor,
// started together through a gateListener, and returns the server's
// result once the run and every agent have ended without error.
func runFleet(t *testing.T, sys *task.System, ctrl sim.Controller, serverOpts []Option, agentOpts func(p int) []Option) *ServerResult {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateListener{Listener: ln, n: int32(sys.Processors), open: make(chan struct{})}
	srv, err := NewServer(sys, ctrl, gate, serverOpts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	context.AfterFunc(ctx, gate.release)

	var wg sync.WaitGroup
	for p := 0; p < sys.Processors; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunAgent(ctx, sys, p, ln.Addr().String(), agentOpts(p)...); err != nil {
				t.Errorf("agent P%d: %v", p+1, err)
				cancel() // a fleet that lost an agent cannot finish: fail now, not at the timeout
			}
		}()
	}
	res, err := srv.Run(ctx)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tailMeans averages each processor's traced utilization over periods
// [from, len).
func tailMeans(res *ServerResult, from int) []float64 {
	means := make([]float64, len(res.Utilization[0]))
	for _, row := range res.Utilization[from:] {
		for p, u := range row {
			means[p] += u
		}
	}
	for p := range means {
		means[p] /= float64(len(res.Utilization) - from)
	}
	return means
}

// TestClusterConvergesToSetPoints is the paper's claim over real lanes:
// actual execution times are half the estimates, and the loop still
// settles both processors on their set points.
func TestClusterConvergesToSetPoints(t *testing.T) {
	sys := workload.Simple()
	res := runFleet(t, sys, simpleController(t, sys),
		[]Option{WithPeriods(80), WithTrace(true), WithPeriodTimeout(5 * time.Second)},
		func(int) []Option {
			return []Option{WithETF(sim.ConstantETF(0.5)), WithSamplingPeriod(workload.SamplingPeriod)}
		})
	if res.Periods != 80 || res.MissedReports != 0 {
		t.Fatalf("periods=%d missed=%d, want 80 full-fleet periods", res.Periods, res.MissedReports)
	}
	for p, mean := range tailMeans(res, 40) {
		if math.Abs(mean-0.828) > 0.02 {
			t.Errorf("P%d tail mean over lanes = %v, want ≈ 0.828", p+1, mean)
		}
	}
}

func TestClusterMediumWithJitter(t *testing.T) {
	sys := workload.Medium()
	ctrl, err := core.New(sys, nil, workload.MediumController())
	if err != nil {
		t.Fatal(err)
	}
	res := runFleet(t, sys, ctrl,
		[]Option{WithPeriods(60), WithTrace(true), WithPeriodTimeout(5 * time.Second)},
		func(p int) []Option {
			return []Option{WithETF(sim.ConstantETF(1)), WithJitter(0.02), WithSeed(int64(p + 1))}
		})
	if res.Periods != 60 {
		t.Fatalf("Periods = %d, want 60", res.Periods)
	}
	b := sys.DefaultSetPoints()
	for p, mean := range tailMeans(res, 30) {
		if math.Abs(mean-b[p]) > 0.03 {
			t.Errorf("P%d tail mean = %v, want ≈ %v", p+1, mean, b[p])
		}
	}
}

// dropRange drops every message index in [from, to), defeating retries
// when the range covers all attempts of one report.
type dropRange struct{ from, to uint64 }

func (d dropRange) Outcome(n uint64) (bool, time.Duration) { return n >= d.from && n < d.to, 0 }

// TestServerDegradesAroundLostReport is the end-to-end degradation path:
// one agent's period-2 report is dropped beyond its retry budget, the
// server's period timeout steps the loop on the hold-last substitute, and
// the agent that lost its report rejoins the lockstep on the broadcast.
func TestServerDegradesAroundLostReport(t *testing.T) {
	sys := workload.Simple()
	retry := lane.RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	// P2's report for period 2 occupies message indices 2, 3, 4 of its
	// report lane (initial send plus two retries); dropping all three
	// loses it for good. P1 runs fault-free.
	plans := []lane.Plan{nil, dropRange{2, 5}}
	res := runFleet(t, sys, simpleController(t, sys),
		[]Option{WithPeriods(6), WithTrace(true), WithPeriodTimeout(200 * time.Millisecond)},
		func(p int) []Option {
			return []Option{WithETF(sim.ConstantETF(0.5)), WithSamplingPeriod(workload.SamplingPeriod),
				WithSendFaults(plans[p]), WithRetry(retry)}
		})
	if res.Periods != 6 {
		t.Fatalf("run covered %d periods, want 6 despite the lost report", res.Periods)
	}
	if res.MissedReports != 1 || res.ControllerErrors != 0 {
		t.Errorf("missed=%d controller errors=%d, want 1 and 0", res.MissedReports, res.ControllerErrors)
	}
	if got, want := res.Utilization[2][1], res.Utilization[1][1]; got != want {
		t.Errorf("period 2 P2 utilization = %v, want the hold-last substitute %v", got, want)
	}
	for k, rates := range res.Rates {
		for i, r := range rates {
			if math.IsNaN(r) || r <= 0 {
				t.Errorf("period %d rate[%d] = %v; the lost report leaked into actuation", k, i, r)
			}
		}
	}
}

// TestClusterLossyTransportConverges drives the full loop through a
// probabilistic fault.TransportPlan on every agent: with retries on, 5%
// per-attempt loss is almost always recovered, hold-last absorbs the
// rest, and the closed loop still converges to the set points.
func TestClusterLossyTransportConverges(t *testing.T) {
	sys := workload.Simple()
	retry := lane.RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	plans := []lane.Plan{
		fault.TransportPlan{DropProb: 0.05, Seed: 1},
		fault.TransportPlan{DropProb: 0.05, DelayProb: 0.1, Delay: time.Millisecond, Seed: 2},
	}
	res := runFleet(t, sys, simpleController(t, sys),
		[]Option{WithPeriods(80), WithTrace(true), WithPeriodTimeout(200 * time.Millisecond)},
		func(p int) []Option {
			return []Option{WithETF(sim.ConstantETF(0.5)), WithSamplingPeriod(workload.SamplingPeriod),
				WithSendFaults(plans[p]), WithRetry(retry)}
		})
	if res.Periods != 80 {
		t.Fatalf("run covered %d periods, want 80", res.Periods)
	}
	b := sys.DefaultSetPoints()
	for p, mean := range tailMeans(res, 40) {
		if math.Abs(mean-b[p]) > 0.03 {
			t.Errorf("P%d tail mean %v over a lossy transport, want ≈ %v", p+1, mean, b[p])
		}
	}
	t.Logf("lossy transport: %d reports degraded around", res.MissedReports)
}

func TestServerValidation(t *testing.T) {
	sys := workload.Simple()
	ctrl := simpleController(t, sys)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	tests := []struct {
		name string
		sys  *task.System
		ctrl sim.Controller
		ln   net.Listener
	}{
		{"nil system", nil, ctrl, ln},
		{"nil controller", sys, nil, ln},
		{"nil listener", sys, ctrl, nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewServer(tc.sys, tc.ctrl, tc.ln); err == nil {
				t.Fatal("invalid arguments accepted")
			}
		})
	}
}

func TestRunAgentValidation(t *testing.T) {
	ctx := context.Background()
	if err := RunAgent(ctx, nil, 0, "127.0.0.1:1"); err == nil {
		t.Error("nil system accepted")
	}
	sys := workload.Simple()
	if err := RunAgent(ctx, sys, 9, "127.0.0.1:1"); err == nil {
		t.Error("out-of-range processor accepted")
	}
	// Unreachable server.
	if err := RunAgent(ctx, sys, 0, "127.0.0.1:1", WithIOTimeout(200*time.Millisecond)); err == nil {
		t.Error("dial to closed port succeeded")
	}
}
