package agent

import (
	"context"
	"errors"
	"fmt"
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
	v2    bool                  // evJoin: the hello arrived in binary v2
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

// deltaKeyframeEvery bounds how many delta-compacted rate frames a v2 lane
// sends between full frames. A lost or reordered delta can leave the agent
// holding stale rates for the tasks that frame touched; the next keyframe
// restores every hosted task, so the divergence window is at most this
// many periods.
const deltaKeyframeEvery = 16

// rateDelta compacts successive rate frames for one binary-v2 member:
// values unchanged since the previous frame handed to the transport are
// omitted (most rates repeat period to period once the fleet converges, so
// the common frame shrinks to a few bytes), with periodic keyframes and an
// explicit resync after an injected drop. Owned by the member's queue
// writer goroutine; never shared.
type rateDelta struct {
	tasks    []int32   // the member's hosted tasks, immutable, ascending
	last     []float64 // values as of the last frame handed to the transport
	haveLast bool
	sinceKey int
	resync   bool
	tbuf     []int32
	vbuf     []float64
}

func newRateDelta(tasks []int32) *rateDelta {
	return &rateDelta{
		tasks: tasks,
		last:  make([]float64, len(tasks)),
		tbuf:  make([]int32, 0, len(tasks)), // non-nil: an empty delta is a sparse frame, not a full vector
		vbuf:  make([]float64, 0, len(tasks)),
	}
}

// shrink rewrites m in place to the changed-value subset when eligible and
// returns a restore function putting the original slices back (the queue
// recycles them after the send). The frame's values are recorded
// optimistically; a send that turns out dropped must flag resync so the
// next frame is full.
func (d *rateDelta) shrink(m *lane.Message) func() {
	vals := m.Rates.Values
	if !d.haveLast || d.resync || d.sinceKey >= deltaKeyframeEvery || len(vals) != len(d.tasks) {
		copy(d.last, vals)
		d.haveLast = len(vals) == len(d.tasks)
		d.resync = false
		d.sinceKey = 0
		return func() {}
	}
	d.sinceKey++
	d.tbuf = d.tbuf[:0]
	d.vbuf = d.vbuf[:0]
	for i, t := range d.tasks {
		if vals[i] != d.last[i] { //eucon:float-exact delta keys on bit-identical repetition; any numeric change must be resent
			d.tbuf = append(d.tbuf, t)
			d.vbuf = append(d.vbuf, vals[i])
			d.last[i] = vals[i]
		}
	}
	origT, origV := m.Rates.Tasks, m.Rates.Values
	m.Rates.Tasks, m.Rates.Values = d.tbuf, d.vbuf
	return func() { m.Rates.Tasks, m.Rates.Values = origT, origV }
}

// sendFuncFor builds a member's queue SendFunc: plain sends on a clean
// lane; retry plus tolerated-drop accounting when a per-peer fault plan is
// installed; delta compaction of rate frames when the peer negotiated
// binary v2. The function runs serially on the member's queue writer
// goroutine.
func (s *Server) sendFuncFor(sender lane.Sender, faulty, v2 bool, p int, tasks []int32, injected *atomic.Uint64) lane.SendFunc {
	retry := retryPolicy(s.opt.seed, p)
	var compact *rateDelta
	if v2 {
		compact = newRateDelta(tasks)
	}
	return func(ctx context.Context, m *lane.Message) error {
		if compact != nil && m.Type == lane.TypeRates {
			restore := compact.shrink(m)
			defer restore()
		}
		if !faulty {
			return sender.Send(m, s.opt.ioTimeout)
		}
		err := lane.SendRetry(ctx, sender, m, s.opt.ioTimeout, retry)
		if errors.Is(err, lane.ErrInjectedDrop) {
			// Lost to the fault plan even after retries: tolerated. The
			// agent rides out the missed actuation on its current rates; a
			// v2 lane resynchronizes with a full frame next period.
			injected.Add(1)
			if compact != nil {
				compact.resync = true
			}
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
	// WithTrace(true) is set. A missed member-period appears as its
	// hold-last substitute — the value actually fed to the controller.
	Utilization [][]float64
	Rates       [][]float64
	// MissedReports counts member-periods stepped without a fresh report
	// (the hold-last substitute was used).
	MissedReports int
	// StaleSamples counts samples that arrived for an already-stepped
	// period and were discarded from the control input (they still
	// refresh the hold-last value).
	StaleSamples int
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
// that misses a period is substituted by its last reported utilization,
// and a member silent past the membership timeout is evicted. The
// substitution is the server's own, not the controller's hold-last policy:
// the controller never sees a NaN from it, the substitute has no staleness
// bound (an evicted member is held at its last value indefinitely), and
// late and early samples refresh it (DESIGN.md §8, "Distributed
// analogue").
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
	// A hello framed in binary v2 advertises that this peer decodes v2:
	// the control loop switches the lane's outbound codec and enables
	// delta-compacted rate frames in response.
	v2 := conn.LastFrameVersion() == lane.FrameVersionBinaryV2
	if !s.post(ctx, srvEvent{kind: evJoin, conn: conn, hello: m.Hello, v2: v2}) {
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
	u := make([]float64, n)     // current period's reports
	have := make([]bool, n)     // which members reported this period
	lastU := make([]float64, n) // hold-last substitutes
	reported := 0               // count of have[p] for live members
	if sp := s.ctrl.SetPoints(); sp != nil {
		copy(lastU, sp) // a member that never reports holds its set point
	}

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
			if have[p] {
				lastU[p] = u[p]
			} else {
				if members[p] != nil {
					res.MissedReports++
				}
				u[p] = lastU[p]
			}
		}
		if s.opt.trace {
			res.Utilization = append(res.Utilization, append([]float64(nil), u...))
			res.Rates = append(res.Rates, append([]float64(nil), rates...))
		}
		newRates, err := s.ctrl.Step(k, u, rates)
		if err == nil {
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
				if ev.v2 {
					ev.conn.SetCodec(lane.BinaryV2)
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
					s.sendFuncFor(sender, faulty, ev.v2, p, mb.tasks, &injectedDrops),
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
					q := ev.batch.First + i
					switch {
					case q == k:
						if !have[p] {
							have[p] = true
							reported++
						}
						u[p] = v
					case q < k:
						res.StaleSamples++
						lastU[p] = v // still the freshest value we have
					default:
						// A report from the future means the member's period
						// counter ran ahead (free-running drift); remember the
						// value so the hold-last substitute stays fresh.
						res.StaleSamples++
						lastU[p] = v
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
