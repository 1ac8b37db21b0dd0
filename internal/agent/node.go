package agent

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/task"
)

// RunAgent runs one node agent against a Server: it dials addr, joins
// with a hello for the given processor, and participates in the feedback
// loop until the server says shutdown, the lane fails, or ctx is
// canceled (which closes the lane at once and returns nil — cancellation
// is the normal way to stop an agent; harnesses use it to inject
// crashes).
//
// The agent hosts the synthetic plant of this package: utilization is
// Σ c_i·r_i over the subtasks hosted on its processor, scaled by the ETF
// schedule and optional jitter. Rate frames are applied as they arrive
// (sparse frames update only the hosted tasks).
//
// By default the agent runs in lockstep: it reports period k and waits
// for the server's period-k rates before sampling period k+1, as fast as
// the lanes allow. It writes its reports from its own loop: it never
// measures a period before the last one's rates arrive, so a queue would
// never coalesce or shed and would only add a hand-off per report.
// WithInterval(d) switches to free-running: a ticker paces the periods,
// rates apply asynchronously, and reports flow through a bounded send
// queue, so a stalled lane sheds stale reports instead of blocking the
// paced sampler. Either way the hello is written before anything else.
// WithLatencySink
// observes the end-to-end sampling-period latency (report sent → rates
// received) in lockstep mode.
func RunAgent(ctx context.Context, sys *task.System, processor int, addr string, opts ...Option) error {
	if sys == nil {
		return errors.New("agent: system is nil")
	}
	if processor < 0 || processor >= sys.Processors {
		return fmt.Errorf("agent: processor %d out of range", processor)
	}
	opt := newOptions(opts)

	conn, err := lane.DialContext(ctx, addr, opt.ioTimeout, lane.WithConnCodec(opt.codec))
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()
	// Canceling ctx closes the lane at once: a receive blocked on the
	// join-ack or the next rates frame returns instead of sitting out its
	// I/O timeout, and the server reads EOF rather than waiting a whole
	// period timeout for a report that will never come.
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	defer stop()

	// Reports pass the fault plan (when configured) and the retry policy.
	// A report still lost after retries is abandoned without failing the
	// lane — the server degrades around it with hold-last substitution.
	var reports lane.Sender = conn
	if opt.peerFaults != nil {
		if plan := opt.peerFaults(processor); plan != nil {
			reports = lane.NewFaultConn(conn, plan)
		}
	}
	retry := retryPolicy(opt.seed, processor)
	send := func(ctx context.Context, m *lane.Message) error {
		if m.Type != lane.TypeUtilizationBatch {
			return conn.Send(m, opt.ioTimeout)
		}
		err := lane.SendRetry(ctx, reports, m, opt.ioTimeout, retry)
		if errors.Is(err, lane.ErrInjectedDrop) {
			return nil
		}
		return err
	}
	hello := &lane.Message{Type: lane.TypeHello, Hello: lane.Hello{Processor: processor, Node: opt.nodeName}}
	if err := send(ctx, hello); err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return fmt.Errorf("agent: node P%d hello: %w", processor+1, err)
	}

	// The plant.
	rng := rand.New(rand.NewSource(opt.seed))
	costs := hostedCosts(sys, processor)
	rates := sys.InitialRates()
	measure := func(k int) float64 {
		u := 0.0
		for i := range costs {
			u += costs[i] * rates[i]
		}
		u *= opt.etf.At(float64(k) * opt.samplingPeriod)
		if opt.jitter > 0 {
			u *= 1 + opt.jitter*(2*rng.Float64()-1)
		}
		if u > 1 {
			u = 1
		}
		return u
	}

	// Join-ack: the first rates frame carries the hosted-task rates and
	// the period to report first.
	var m lane.Message
	if err := conn.ReceiveInto(&m, opt.ioTimeout); err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return fmt.Errorf("agent: node P%d join ack: %w", processor+1, err)
	}
	if m.Type == lane.TypeShutdown {
		return nil
	}
	if m.Type != lane.TypeRates {
		return fmt.Errorf("agent: node P%d joined but got %s, want rates", processor+1, m.Type)
	}
	if err := applyRates(rates, &m.Rates); err != nil {
		return fmt.Errorf("agent: node P%d: %w", processor+1, err)
	}
	next := m.Rates.Period

	if opt.interval > 0 {
		err = runFree(ctx, conn, send, &opt, processor, next, measure, rates)
	} else {
		err = runLockstep(ctx, conn, send, &opt, processor, next, measure, rates)
	}
	if ctx.Err() != nil {
		return nil // canceled: the harness's way to crash an agent
	}
	return err
}

// runLockstep reports period k, waits for the server's period-k rates,
// then advances — the paper's sequence, as fast as the lanes allow.
func runLockstep(ctx context.Context, conn *lane.Conn, send lane.SendFunc, opt *Options,
	processor, next int, measure func(int) float64, rates []float64) error {
	// applied tracks the newest period whose rates have been applied; under
	// a faulty transport, duplicated or reordered frames can deliver an
	// older period after a newer one, and applying it would regress the
	// plant to stale rates.
	applied := next - 1
	var m lane.Message
	report := lane.Message{Type: lane.TypeUtilizationBatch,
		Batch: lane.UtilizationBatch{Processor: processor, Samples: make([]float64, 1)}}
	for {
		report.Batch.First = next
		report.Batch.Samples[0] = measure(next)
		// The round trip starts as the report leaves the loop, so it
		// includes the write.
		sentAt := time.Now() //eucon:wallclock-ok operational latency metric, never feeds control output
		if err := send(ctx, &report); err != nil {
			return fmt.Errorf("agent: node P%d: %w", processor+1, err)
		}
		for {
			if err := conn.ReceiveInto(&m, opt.ioTimeout); err != nil {
				return fmt.Errorf("agent: node P%d: %w", processor+1, err)
			}
			if m.Type == lane.TypeShutdown {
				return nil
			}
			if m.Type != lane.TypeRates {
				return fmt.Errorf("agent: node P%d got unexpected %s", processor+1, m.Type)
			}
			if m.Rates.Period < applied {
				// Stale frame (a reordered or duplicated older period):
				// ignore — the newer rates already applied must win.
				continue
			}
			if err := applyRates(rates, &m.Rates); err != nil {
				return fmt.Errorf("agent: node P%d: %w", processor+1, err)
			}
			applied = m.Rates.Period
			if m.Rates.Period >= next {
				// The period we reported (or a later one, if the server
				// stepped past us) is actuated; move on.
				if opt.latencySink != nil {
					opt.latencySink(next, time.Since(sentAt)) //eucon:wallclock-ok operational latency metric, never feeds control output
				}
				next = m.Rates.Period + 1
				break
			}
			// An older period's rates (e.g. the join-ack raced a broadcast):
			// applied above, keep waiting for ours.
		}
	}
}

// runFree paces periods with the agent's clock and applies rates as they
// arrive. The pacing clock is injectable (WithClock), so a skewed or
// drifting agent genuinely samples faster or slower than the fleet — the
// condition the server's period timeout and liveness sweep must absorb.
//
// The period index is the server's logical clock, not the agent's: every
// fresh rates frame resynchronizes the report counter to the period the
// server actuates next, exactly as in lockstep. Without that, an agent
// whose first tick lands one period out of phase stays out of phase for
// the whole run — every report it ever sends arrives stale and the
// controller steers its processor on hold-last substitutes alone. The
// agent's physical clock only paces sampling: skew and drift change how
// often it reports, never which period it believes the fleet is in
// (between frames — through a partition, say — the counter free-runs on
// the local clock and the resync snaps it back on the first frame after
// the heal).
//
// Reports go through a bounded send queue, so the paced sampler never
// blocks on a stalled lane: a backlog coalesces, and the oldest reports
// are shed.
func runFree(ctx context.Context, conn *lane.Conn, send lane.SendFunc, opt *Options,
	processor, next int, measure func(int) float64, rates []float64) error {
	queue := lane.NewSendQueue(send, opt.queueDepth)
	qctx, stopQueue := context.WithCancel(ctx)
	defer stopQueue()
	queue.Start(qctx)
	var mu sync.Mutex // guards rates/next/sent between the pacer loop and the reader
	// applied guards against duplicated or reordered rate frames regressing
	// the plant to a stale period's rates.
	applied := next - 1
	// sentPeriod/sentAt remember the newest report so the reader can
	// measure report-sent → rates-received latency when the matching
	// period's rates land.
	sentPeriod := -1
	var sentAt time.Time
	done := make(chan error, 1)
	// The reader must be gone before the agent returns: it calls the
	// latency sink, which the caller may read once RunAgent is back.
	// Closing the lane ends its blocked receive.
	readerGone := make(chan struct{})
	defer func() {
		_ = conn.Close()
		<-readerGone
	}()
	go func() {
		defer close(readerGone)
		var m lane.Message
		for {
			if err := conn.ReceiveInto(&m, opt.membershipTimeout); err != nil {
				select {
				case done <- err:
				case <-ctx.Done():
				}
				return
			}
			switch m.Type {
			case lane.TypeShutdown:
				select {
				case done <- nil:
				case <-ctx.Done():
				}
				return
			case lane.TypeRates:
				mu.Lock()
				var err error
				if m.Rates.Period >= applied {
					err = applyRates(rates, &m.Rates)
					applied = m.Rates.Period
					// Rates stamped k are broadcast by the step that closed
					// period k; the server is collecting k+1 now.
					next = m.Rates.Period + 1
					if opt.latencySink != nil && sentPeriod >= 0 && m.Rates.Period >= sentPeriod {
						opt.latencySink(sentPeriod, time.Since(sentAt)) //eucon:wallclock-ok operational latency metric, never feeds control output
						sentPeriod = -1
					}
				}
				mu.Unlock()
				if err != nil {
					select {
					case done <- err:
					case <-ctx.Done():
					}
					return
				}
			case lane.TypeHello, lane.TypeUtilizationBatch:
				select {
				case done <- fmt.Errorf("agent: node P%d got unexpected %s", processor+1, m.Type):
				case <-ctx.Done():
				}
				return
			}
		}
	}()

	for {
		select {
		case <-ctx.Done():
			return nil
		case err := <-done:
			if err != nil {
				return fmt.Errorf("agent: node P%d: %w", processor+1, err)
			}
			return nil
		case <-opt.clock.After(opt.interval):
			mu.Lock()
			k := next
			u := measure(k)
			sentPeriod = k
			sentAt = time.Now() //eucon:wallclock-ok operational latency metric, never feeds control output
			next++
			mu.Unlock()
			if err := queue.EnqueueSample(processor, k, u); err != nil {
				return err
			}
		}
	}
}
