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
	res := runOK(t, &Fleet{Sys: sys, Ctrl: simpleController(t, sys),
		Server: []Option{WithPeriods(60), WithTrace(true), WithPeriodTimeout(5 * time.Second)},
		Agent:  func(int) []Option { return []Option{WithETF(sim.ConstantETF(1))} }})
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
	// P2 is killed (context cancel ≈ kill -9) once the lockstep loop is
	// past period 5 and relaunched past period 50: the server must step on
	// through both without a restart.
	res := runOK(t, &Fleet{Sys: sys, Ctrl: simpleController(t, sys),
		Server:  []Option{WithPeriods(2000), WithPeriodTimeout(200 * time.Millisecond), WithMembershipTimeout(2 * time.Second)},
		Agent:   func(int) []Option { return []Option{WithETF(sim.ConstantETF(1))} },
		Outages: []Outage{{Procs: []int{1}, At: 5, Rejoin: 50}}})
	if res.Periods < 10 {
		t.Fatalf("Periods = %d, want the loop to keep running through crash and rejoin", res.Periods)
	}
	if res.Joins != 2 || res.Rejoins < 1 {
		t.Fatalf("membership: joins=%d rejoins=%d, want 2 first-time joins and ≥1 rejoin", res.Joins, res.Rejoins)
	}
	if res.Crashes < 1 {
		t.Fatalf("Crashes = %d, want ≥1 (the killed agent)", res.Crashes)
	}
	// A lockstep period after the rejoin needs the rejoined agent's report
	// (or a 200 ms timeout), so a run that finished with it live proves it
	// completed report→rates cycles against the live server.
	if res.LiveAtEnd != sys.Processors {
		t.Fatalf("LiveAtEnd = %d: the rejoined agent never completed a period", res.LiveAtEnd)
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
	conn, err := lane.DialContext(context.Background(), addr, time.Second)
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
	ack, err := receive(conn, 2*time.Second)
	if err != nil || ack.Type != lane.TypeRates {
		t.Fatalf("join ack = %+v, %v; want rates", ack, err)
	}
	mustSend(&lane.Message{Type: lane.TypeUtilizationBatch,
		Batch: lane.UtilizationBatch{Processor: 0, First: ack.Rates.Period, Samples: []float64{0.5}}})
	// Half of SIMPLE has joined, so the period timer steps period 0; wait
	// for its rates before leaving.
	if m, err := receive(conn, 2*time.Second); err != nil || m.Type != lane.TypeRates {
		t.Fatalf("period 0 = %+v, %v; want rates", m, err)
	}
	mustSend(&lane.Message{Type: lane.TypeShutdown, Shutdown: lane.Shutdown{Reason: "done"}})
	// The control loop closes a lane once it has booked the departure, so
	// reading to the end of the stream is the proof that the leave was
	// processed before the server is stopped.
	for {
		if _, err := receive(conn, 2*time.Second); err != nil {
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
			conn, err := lane.DialContext(context.Background(), addr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = conn.Close() }()
			if err := conn.Send(&tc.first, time.Second); err != nil {
				t.Fatal(err)
			}
			// The server closes the lane instead of admitting the impostor.
			if _, err := receive(conn, 3*time.Second); err == nil {
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
	conn, err := lane.DialContext(context.Background(), addr, time.Second)
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

// receive reads one message off a raw lane into a fresh Message.
func receive(c *lane.Conn, deadline time.Duration) (*lane.Message, error) {
	m := new(lane.Message)
	if err := c.ReceiveInto(m, deadline); err != nil {
		return nil, err
	}
	return m, nil
}
