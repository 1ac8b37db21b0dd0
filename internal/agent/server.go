package agent

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
)

// eventKind discriminates the reader-to-control-loop events.
//
//eucon:exhaustive
type eventKind uint8

const (
	// evJoin announces a lane that completed its hello.
	evJoin eventKind = 1 + iota
	// evReport carries a utilization batch from a member.
	evReport
	// evLeave announces a lane that ended (cleanly or by failure).
	evLeave
)

// srvEvent is one reader-to-control-loop event. The conn identifies the
// lane in every kind, so a stale event from a replaced connection can be
// told apart from the current member.
type srvEvent struct {
	kind  eventKind
	conn  *lane.Conn
	hello lane.Hello
	batch lane.UtilizationBatch // samples are a private copy
	err   error                 // evLeave: nil for a clean shutdown notice
}

// member is the control loop's record of one connected node agent. Only
// the control goroutine touches it.
type member struct {
	conn  *lane.Conn
	queue *lane.SendQueue
	tasks []int32 // hosted task indices, immutable once built
}

// sendFuncFor builds a member's queue SendFunc: plain sends on a clean
// lane; retry plus tolerated-drop accounting when a per-peer fault plan is
// installed. Every rates frame carries the member's full set of hosted
// tasks as absolute values, so a lost, duplicated or reordered frame is
// repaired by the next one. The function runs serially on the member's
// queue writer goroutine.
func (s *Server) sendFuncFor(sender lane.Sender, faulty bool, p int, injected *atomic.Uint64) lane.SendFunc {
	retry := retryPolicy(s.opt.seed, p)
	return func(ctx context.Context, m *lane.Message) error {
		if !faulty {
			return sender.Send(m, s.opt.ioTimeout)
		}
		err := lane.SendRetry(ctx, sender, m, s.opt.ioTimeout, retry)
		if errors.Is(err, lane.ErrInjectedDrop) {
			// Lost to the fault plan even after retries: tolerated. The
			// agent rides out the missed actuation on its current rates
			// until the next frame.
			injected.Add(1)
			return nil
		}
		return err
	}
}

// ServerResult aggregates a Server run.
type ServerResult struct {
	// Periods is how many sampling periods were stepped.
	Periods int
	// Utilization[k][p] and Rates[k] record the full history, only when
	// WithTrace(true) is set. A missed member-period appears as the value
	// the controller was fed instead (see Server); a skipped period records
	// each member's newest sample.
	Utilization [][]float64
	Rates       [][]float64
	// MissedReports counts member-periods stepped without an on-time
	// report.
	MissedReports int
	// StaleSamples counts samples that arrived for a period other than the
	// one being collected. They are not that period's report, but the
	// newest one stands in for a missing report at the next step.
	StaleSamples int
	// SkippedSteps counts periods the missing-feedback policy skipped: a
	// missing sample had no substitute within sim.StalenessBound, so the
	// rates were held and rebroadcast without a controller Step.
	SkippedSteps int
	// Joins, Rejoins, Leaves, and Crashes count membership transitions:
	// first-time joins, joins onto a processor slot seen before, clean
	// departures (shutdown notice), and lane failures or silence
	// evictions.
	Joins, Rejoins, Leaves, Crashes int
	// LiveAtEnd is how many members were still connected when the run
	// ended. The membership ledger balances:
	// Joins + Rejoins == Leaves + Crashes + LiveAtEnd.
	LiveAtEnd int
	// ControllerErrors counts periods where the controller's Step failed
	// and the previous rates were held instead.
	ControllerErrors int
	// FramesIn and FramesOut count protocol frames received from and
	// queued to members.
	FramesIn, FramesOut uint64
	// DroppedSamples sums the samples shed by member send queues under
	// backpressure.
	DroppedSamples uint64
	// InjectedDrops counts outbound rate frames discarded by the per-peer
	// transport fault plans (WithTransportFaults) after retries — loss the
	// protocol degraded around rather than a failure.
	InjectedDrops uint64
	// PeerQueues aggregates each processor's outbound queue counters over
	// the run, summed across rejoins of the same slot.
	PeerQueues []lane.QueueStats
}

// Server is the production EUCON controller daemon: the centralized MPC
// loop of the paper's architecture (§4) behind a membership layer, so
// node agents join, leave, crash, and rejoin without a controller
// restart.
//
// Structure: an accept goroutine admits lanes; one reader goroutine per
// lane turns frames into events; a single control goroutine owns all
// membership and control state, steps the controller each sampling
// period, and broadcasts rates through bounded per-member send queues
// (each member receives only the rates of the tasks it hosts). A member
// silent past the membership timeout is evicted. Missing feedback follows
// the simulator's policy: a member without an on-time report contributes
// the newest late or early sample that arrived since the last step (the
// server's form of a delayed sample), or else NaN, and sim.HoldLast turns
// that vector into the controller's input or a skipped period (DESIGN.md
// §8, "Degradation policy").
type Server struct {
	sys  *task.System
	ctrl sim.Controller
	ln   net.Listener
	opt  Options

	period   atomic.Int64
	stopping atomic.Bool // set once the control loop starts shutting lanes down
	events   chan srvEvent
	stopped  chan struct{}
	wg       sync.WaitGroup
}

// NewServer validates the pieces and builds a Server listening on ln
// (ownership of ln passes to the Server; Run closes it).
func NewServer(sys *task.System, ctrl sim.Controller, ln net.Listener, opts ...Option) (*Server, error) {
	if sys == nil {
		return nil, errors.New("agent: system is nil")
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("agent: %w", err)
	}
	if ctrl == nil {
		return nil, errors.New("agent: controller is nil")
	}
	if ln == nil {
		return nil, errors.New("agent: listener is nil")
	}
	return &Server{
		sys:     sys,
		ctrl:    ctrl,
		ln:      ln,
		opt:     newOptions(opts),
		events:  make(chan srvEvent, 256),
		stopped: make(chan struct{}),
	}, nil
}

// Period reports the sampling period the control loop is currently
// collecting. Safe from any goroutine; harnesses poll it to watch
// progress.
func (s *Server) Period() int { return int(s.period.Load()) }

// Run drives the daemon until the configured period count is reached or
// ctx is canceled (which is the normal termination when WithPeriods was
// not set — it returns the result without error). All lanes, queues, and
// the listener are released before returning.
func (s *Server) Run(ctx context.Context) (*ServerResult, error) {
	s.wg.Add(1)
	go s.acceptLoop(ctx)

	res, err := s.control(ctx)

	// Stop intake: close the listener, unblock every reader, and release
	// any reader parked on the events channel.
	close(s.stopped)
	_ = s.ln.Close()
	s.wg.Wait()
	return res, err
}

// acceptLoop admits lanes and spawns one reader per connection.
func (s *Server) acceptLoop(ctx context.Context) {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed (shutdown) or broken
		}
		conn := lane.NewConn(nc, lane.WithConnCodec(s.opt.codec))
		s.wg.Add(1)
		go s.serveLane(ctx, conn)
	}
}

// serveLane reads one lane: a hello first, then reports until the lane
// ends. It owns the receive side only; sends to this peer go through the
// member's queue in the control loop.
func (s *Server) serveLane(ctx context.Context, conn *lane.Conn) {
	defer s.wg.Done()
	var m lane.Message
	if err := conn.ReceiveInto(&m, s.opt.ioTimeout); err != nil || m.Type != lane.TypeHello {
		_ = conn.Close()
		return
	}
	if !s.post(ctx, srvEvent{kind: evJoin, conn: conn, hello: m.Hello}) {
		_ = conn.Close()
		return
	}
	for {
		// The read deadline doubles as the liveness sweep: a member silent
		// past the membership timeout fails this read and is evicted.
		if err := conn.ReceiveInto(&m, s.opt.membershipTimeout); err != nil {
			s.post(ctx, srvEvent{kind: evLeave, conn: conn, err: err})
			return
		}
		switch m.Type {
		case lane.TypeUtilizationBatch:
			b := m.Batch
			b.Samples = append([]float64(nil), m.Batch.Samples...)
			if !s.post(ctx, srvEvent{kind: evReport, conn: conn, batch: b}) {
				return
			}
		case lane.TypeShutdown:
			s.post(ctx, srvEvent{kind: evLeave, conn: conn})
			return
		case lane.TypeHello, lane.TypeRates:
			s.post(ctx, srvEvent{kind: evLeave, conn: conn,
				err: fmt.Errorf("agent: member sent %s", m.Type)})
			return
		}
	}
}

// post delivers an event unless the server is shutting down.
func (s *Server) post(ctx context.Context, ev srvEvent) bool {
	select {
	case s.events <- ev:
		return true
	case <-s.stopped:
		return false
	case <-ctx.Done():
		return false
	}
}

// control is the single goroutine owning membership and control state.
func (s *Server) control(ctx context.Context) (*ServerResult, error) {
	n := s.sys.Processors
	res := &ServerResult{PeerQueues: make([]lane.QueueStats, n)}
	members := make([]*member, n)
	everJoined := make([]bool, n)
	live := 0
	var injectedDrops atomic.Uint64 // written by member queue goroutines

	rates := s.sys.InitialRates()
	u := make([]float64, n) // newest sample per member since the last step; NaN if none
	have := make([]bool, n) // which members reported this period on time
	reported := 0           // count of have[p] for live members
	for p := range u {
		u[p] = math.NaN()
	}
	var hold sim.HoldLast
	hold.Reset(n, s.ctrl.SetPoints())

	// In lockstep mode the timer bounds a period; in free-running mode it
	// paces the periods.
	wait := s.opt.periodTimeout
	if s.opt.interval > 0 {
		wait = s.opt.interval
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()

	// retire folds a departing member's queue counters into the result.
	retire := func(p int, mb *member) {
		snap := mb.queue.Snapshot()
		st := &res.PeerQueues[p]
		st.Sent += snap.Sent
		st.DroppedSamples += snap.DroppedSamples
		st.Coalesced += snap.Coalesced
		st.SupersededRates += snap.SupersededRates
		res.DroppedSamples += snap.DroppedSamples
	}

	shutdownAll := func(reason string) {
		s.stopping.Store(true)
		res.LiveAtEnd = live
		for p, mb := range members {
			if mb == nil {
				continue
			}
			_ = mb.queue.EnqueueShutdown(reason)
			res.FramesOut++
			mb.queue.Close()
			<-mb.queue.Done()
			retire(p, mb)
			_ = mb.conn.Close()
			members[p] = nil
		}
		res.InjectedDrops = injectedDrops.Load()
	}

	drop := func(p int, crashed bool) {
		mb := members[p]
		members[p] = nil
		if have[p] {
			have[p] = false
			reported--
		}
		live--
		if crashed {
			res.Crashes++
		} else {
			res.Leaves++
		}
		mb.queue.Close()
		retire(p, mb)
		_ = mb.conn.Close()
	}

	step := func() {
		k := int(s.period.Load())
		for p := 0; p < n; p++ {
			if !have[p] && members[p] != nil {
				res.MissedReports++
			}
		}
		in, _, skip := hold.Apply(u)
		if s.opt.trace {
			res.Utilization = append(res.Utilization, append([]float64(nil), in...))
			res.Rates = append(res.Rates, append([]float64(nil), rates...))
		}
		if skip {
			res.SkippedSteps++
		} else if newRates, err := s.ctrl.Step(k, in, rates); err == nil {
			rates = newRates
		} else {
			// Keep rates, matching the simulator's policy.
			res.ControllerErrors++
		}
		for _, mb := range members {
			if mb == nil {
				continue
			}
			if err := mb.queue.EnqueueRates(k, mb.tasks, rates); err == nil {
				res.FramesOut++
			}
		}
		res.Periods++
		s.period.Store(int64(k + 1))
		for p := range have {
			have[p] = false
			u[p] = math.NaN()
		}
		reported = 0
	}

	for {
		if s.opt.periods > 0 && res.Periods >= s.opt.periods {
			shutdownAll("run complete")
			return res, nil
		}
		// Lockstep: step the moment every live member has reported. Period
		// 0 waits for a quorum (every processor live), so a clean run never
		// depends on join order; the period timer still steps whoever is in.
		if s.opt.interval <= 0 && live > 0 && reported == live && (res.Periods > 0 || live == n) {
			step()
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(wait)
			continue
		}

		select {
		case <-ctx.Done():
			shutdownAll("controller stopping")
			if s.opt.periods > 0 {
				return res, fmt.Errorf("agent: server canceled at period %d: %w", s.Period(), ctx.Err())
			}
			return res, nil

		case <-timer.C:
			// Step with what we have; an empty or idle farm just waits.
			switch {
			case live > 0 && (s.opt.interval > 0 || reported > 0):
				step()
			case live > 0 && res.Periods > 0:
				// Lockstep and a whole period timeout without one report: the
				// members are waiting for the rates of the period just stepped
				// (every newest frame lost, or held by a reordering transport
				// until the lane's next send) while this loop waits for them.
				// Say it again. The frame is absolute state stamped with the
				// period it actuates, so a member that already has it applies
				// the same rates and keeps waiting for the next period.
				k := int(s.period.Load()) - 1
				for _, mb := range members {
					if mb == nil {
						continue
					}
					if err := mb.queue.EnqueueRates(k, mb.tasks, rates); err == nil {
						res.FramesOut++
					}
				}
			}
			timer.Reset(wait)

		case ev := <-s.events:
			switch ev.kind {
			case evJoin:
				p := ev.hello.Processor
				if p < 0 || p >= n {
					_ = ev.conn.Close()
					continue
				}
				if members[p] != nil {
					// A reconnect raced ahead of the old lane's teardown:
					// the newest lane wins.
					drop(p, true)
				}
				mb := &member{
					conn:  ev.conn,
					tasks: hostedTasks(s.sys, p),
				}
				var sender lane.Sender = ev.conn
				faulty := false
				if s.opt.peerFaults != nil {
					if plan := s.opt.peerFaults(p); plan != nil {
						sender = lane.NewFaultConn(ev.conn, plan)
						faulty = true
					}
				}
				mb.queue = lane.NewSendQueue(
					s.sendFuncFor(sender, faulty, p, &injectedDrops),
					s.opt.queueDepth)
				mb.queue.Start(ctx)
				members[p] = mb
				live++
				if everJoined[p] {
					res.Rejoins++
				} else {
					everJoined[p] = true
					res.Joins++
				}
				// Join-ack: the current rates for the hosted tasks, stamped
				// with the period to report next.
				if err := mb.queue.EnqueueRates(int(s.period.Load()), mb.tasks, rates); err == nil {
					res.FramesOut++
				}

			case evReport:
				res.FramesIn++
				p := ev.batch.Processor
				if p < 0 || p >= n || members[p] == nil || members[p].conn != ev.conn {
					continue // stale lane or bogus processor
				}
				k := int(s.period.Load())
				for i, v := range ev.batch.Samples {
					if ev.batch.First+i == k {
						if !have[p] {
							have[p] = true
							reported++
						}
						u[p] = v
						continue
					}
					// Late, or from the future (the member's period counter
					// ran ahead under free-running drift): not this period's
					// report, but the newest such sample stands in if the
					// report never comes.
					res.StaleSamples++
					if !have[p] {
						u[p] = v
					}
				}

			case evLeave:
				p := -1
				for i, mb := range members {
					if mb != nil && mb.conn == ev.conn {
						p = i
						break
					}
				}
				if p < 0 {
					_ = ev.conn.Close()
					continue // already replaced or evicted
				}
				drop(p, ev.err != nil)
			}
		}
	}
}
