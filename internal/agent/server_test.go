package agent

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// startServer builds a Server on an ephemeral loopback listener.
func startServer(t *testing.T, sys *task.System, ctrl sim.Controller, opts ...Option) (*Server, string, chan serverOutcome) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sys, ctrl, ln, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return srv, ln.Addr().String(), make(chan serverOutcome, 1)
}

type serverOutcome struct {
	res *ServerResult
	err error
}

func simpleController(t *testing.T, sys *task.System) sim.Controller {
	t.Helper()
	ctrl, err := core.New(sys, nil, workload.SimpleController())
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func TestServerConvergesWithFullFleet(t *testing.T) {
	sys := workload.Simple()
	res := runFleet(t, sys, simpleController(t, sys),
		[]Option{WithPeriods(60), WithTrace(true), WithPeriodTimeout(5 * time.Second)},
		func(int) []Option { return []Option{WithETF(sim.ConstantETF(1))} })
	if res.Periods != 60 {
		t.Fatalf("Periods = %d, want 60", res.Periods)
	}
	if res.Joins != sys.Processors || res.Crashes != 0 {
		t.Fatalf("membership: %d joins %d crashes, want %d joins 0 crashes", res.Joins, res.Crashes, sys.Processors)
	}
	// The MPC loop must steer utilization to the set points.
	sp := simpleController(t, sys).SetPoints()
	final := res.Utilization[len(res.Utilization)-1]
	for p, v := range final {
		if math.Abs(v-sp[p]) > 0.05 {
			t.Errorf("u(P%d) converged to %.4f, want %.4f ± 0.05", p+1, v, sp[p])
		}
	}
}

func TestServerMembershipCrashAndRejoinWithoutRestart(t *testing.T) {
	sys := workload.Simple()
	// Unbounded run (no WithPeriods): cancellation is the normal stop, so
	// the test choreographs crash and rejoin at its own pace while the
	// lockstep loop races underneath.
	srv, addr, done := startServer(t, sys, simpleController(t, sys),
		WithPeriodTimeout(200*time.Millisecond), WithMembershipTimeout(2*time.Second))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		res, err := srv.Run(ctx)
		done <- serverOutcome{res, err}
	}()

	// P1 runs the whole time.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunAgent(ctx, sys, 0, addr, WithETF(sim.ConstantETF(1))); err != nil {
			t.Errorf("agent P1: %v", err)
			cancel() // a dead fleet fails now instead of hanging the server
		}
	}()

	// P2 joins, is crashed (context cancel ≈ kill -9 for the harness),
	// and rejoins. The server must ride through without a restart.
	crashCtx, crash := context.WithCancel(ctx)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = RunAgent(crashCtx, sys, 1, addr, WithETF(sim.ConstantETF(1)))
	}()
	waitPeriod(t, srv, 5)
	crash()
	waitPeriod(t, srv, srv.Period()+5) // server keeps stepping through the crash

	// Rejoin: the latency sink's first callback proves the rejoined agent
	// completed a full report→rates cycle against the live server.
	rejoined := make(chan struct{})
	var once sync.Once
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := RunAgent(ctx, sys, 1, addr, WithETF(sim.ConstantETF(1)),
			WithLatencySink(func(int, time.Duration) { once.Do(func() { close(rejoined) }) }))
		if err != nil {
			t.Errorf("agent P2 rejoin: %v", err)
			cancel() // a dead fleet fails now instead of hanging the server
		}
	}()
	select {
	case <-rejoined:
	case <-time.After(10 * time.Second):
		t.Fatal("rejoined agent never completed a period")
	}
	waitPeriod(t, srv, srv.Period()+3)
	cancel()

	out := <-done
	wg.Wait()
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res
	if res.Periods < 10 {
		t.Fatalf("Periods = %d, want the loop to keep running through crash and rejoin", res.Periods)
	}
	if res.Joins != 2 || res.Rejoins < 1 {
		t.Fatalf("membership: joins=%d rejoins=%d, want 2 first-time joins and ≥1 rejoin", res.Joins, res.Rejoins)
	}
	if res.Crashes < 1 {
		t.Fatalf("Crashes = %d, want ≥1 (the killed agent)", res.Crashes)
	}
}

func TestServerCleanLeave(t *testing.T) {
	sys := workload.Simple()
	srv, addr, done := startServer(t, sys, simpleController(t, sys),
		WithPeriodTimeout(100*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		res, err := srv.Run(ctx)
		done <- serverOutcome{res, err}
	}()
	// A raw lane that joins, reports once, and leaves with a shutdown
	// notice.
	conn, err := lane.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	mustSend := func(m *lane.Message) {
		t.Helper()
		if err := conn.Send(m, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	mustSend(&lane.Message{Type: lane.TypeHello, Hello: lane.Hello{Processor: 0, Node: "brief"}})
	ack, err := conn.Receive(2 * time.Second)
	if err != nil || ack.Type != lane.TypeRates {
		t.Fatalf("join ack = %+v, %v; want rates", ack, err)
	}
	mustSend(&lane.Message{Type: lane.TypeUtilizationBatch,
		Batch: lane.UtilizationBatch{Processor: 0, First: ack.Rates.Period, Samples: []float64{0.5}}})
	mustSend(&lane.Message{Type: lane.TypeShutdown, Shutdown: lane.Shutdown{Reason: "done"}})
	// The control loop closes a lane once it has booked the departure, so
	// reading to the end of the stream (past the period's rates frame) is
	// the proof that the leave was processed before the server is stopped;
	// canceling as soon as the period counter moves would race it.
	for {
		if _, err := conn.Receive(2 * time.Second); err != nil {
			break
		}
	}
	_ = conn.Close()

	waitFor(t, func() bool { return srv.Period() >= 1 })
	cancel()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Leaves != 1 || out.res.Crashes != 0 {
		t.Fatalf("got %d leaves %d crashes, want a clean leave", out.res.Leaves, out.res.Crashes)
	}
}

func TestServerRejectsOutOfRangeHello(t *testing.T) {
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
		first lane.Message
	}{
		{"out-of-range processor", lane.Message{Type: lane.TypeHello, Hello: lane.Hello{Processor: 99}}},
		{"not a hello", lane.Message{Type: lane.TypeUtilizationBatch,
			Batch: lane.UtilizationBatch{Processor: 0, Samples: []float64{0.5}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := lane.Dial(addr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = conn.Close() }()
			if err := conn.Send(&tc.first, time.Second); err != nil {
				t.Fatal(err)
			}
			// The server closes the lane instead of admitting the impostor.
			if _, err := conn.Receive(3 * time.Second); err == nil {
				t.Fatal("bad first frame was acked")
			}
		})
	}
	cancel()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Joins != 0 {
		t.Fatalf("Joins = %d, want 0", out.res.Joins)
	}
}

// TestServerBackpressureShedsReportsNeverRates wires a member whose lane
// is never read: the server's bounded send queue must shed that member's
// stale rate... reports are inbound here, so the backpressure under test
// is the member queue outbound: rate frames supersede in place and the
// control loop never blocks on the slow peer.
func TestServerBackpressureSlowReaderNeverBlocksControl(t *testing.T) {
	sys := workload.Simple()
	srv, addr, done := startServer(t, sys, simpleController(t, sys),
		WithPeriods(40), WithPeriodTimeout(100*time.Millisecond), WithSendQueue(4))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		res, err := srv.Run(ctx)
		done <- serverOutcome{res, err}
	}()

	// A healthy agent on P1 keeps the loop stepping.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunAgent(ctx, sys, 0, addr, WithETF(sim.ConstantETF(1))); err != nil {
			t.Errorf("agent P1: %v", err)
			cancel() // a dead fleet fails now instead of hanging the server
		}
	}()

	// A slow reader on P2: joins, reports every period, but never reads
	// rates off the socket. Its outbound server queue must absorb the
	// stall by superseding rate frames, never blocking the control loop.
	conn, err := lane.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.Send(&lane.Message{Type: lane.TypeHello, Hello: lane.Hello{Processor: 1, Node: "slow"}}, time.Second); err != nil {
		t.Fatal(err)
	}
	stopReports := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		k := 0
		for {
			select {
			case <-stopReports:
				return
			case <-time.After(20 * time.Millisecond):
			}
			_ = conn.Send(&lane.Message{Type: lane.TypeUtilizationBatch,
				Batch: lane.UtilizationBatch{Processor: 1, First: k, Samples: []float64{0.4}}}, time.Second)
			k++
		}
	}()

	out := <-done
	close(stopReports)
	wg.Wait()
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Periods != 40 {
		t.Fatalf("Periods = %d, want 40 — the slow reader stalled the control loop", out.res.Periods)
	}
}

func waitPeriod(t *testing.T, srv *Server, k int) {
	t.Helper()
	waitFor(t, func() bool { return srv.Period() >= k })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second) //eucon:wallclock-ok test polling deadline
	for !cond() {
		if time.Now().After(deadline) { //eucon:wallclock-ok test polling deadline
			t.Fatal("condition not reached in 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
