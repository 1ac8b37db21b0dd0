package lane

import (
	"context"
	"errors"
	"sync"
)

// ErrQueueClosed is returned by enqueues after Close.
var ErrQueueClosed = errors.New("lane: send queue closed")

// DefaultQueueDepth bounds a SendQueue when the caller passes zero.
const DefaultQueueDepth = 64

// maxBatchSamples caps how many consecutive samples coalesce into one
// utilization batch frame before a new frame is started.
const maxBatchSamples = 128

// SendFunc transmits one message. A SendQueue's writer goroutine calls it
// serially; returning an error kills the queue (the first error is
// retained in Err). Wrap retry policies, fault plans, and tolerated
// drops inside the function — e.g. return nil after counting a loss the
// protocol degrades around.
type SendFunc func(ctx context.Context, m *Message) error

// QueueStats are a SendQueue's lifetime counters.
type QueueStats struct {
	// Sent counts frames handed to the SendFunc successfully.
	Sent uint64
	// DroppedSamples counts utilization samples shed under backpressure
	// (drop-oldest-report: the stalest queued samples go first).
	DroppedSamples uint64
	// Coalesced counts samples merged into an already-queued batch frame
	// instead of occupying their own frame.
	Coalesced uint64
	// SupersededRates counts queued rate commands overwritten in place by
	// a newer command before reaching the wire. The newest command is
	// never discarded — a rate modulator only ever applies the latest.
	SupersededRates uint64
}

// SendQueue is a bounded outbound lane with backpressure semantics built
// for the feedback protocol:
//
//   - utilization samples coalesce: a sample contiguous with the queued
//     tail batch from the same processor extends that batch, so a backlog
//     ships as one frame per lane drain instead of one frame per period;
//   - when the queue is full, the oldest queued utilization samples are
//     shed first (drop-oldest-report) — stale feedback is worthless, and
//     the server's hold-last policy absorbs the gap;
//   - rate commands are never shed in favor of reports: a newer command
//     replaces a queued older one in place (the modulator applies only
//     the latest), and when no report can be shed the queue grows past
//     its bound rather than lose control actuation;
//   - enqueues never block, so a slow or stalled peer cannot stall the
//     controller's step loop.
//
// A writer goroutine (Start) drains the queue in order through the
// SendFunc. All methods are safe for concurrent use.
type SendQueue struct {
	send  SendFunc
	depth int

	mu     sync.Mutex
	q      []Message // q[head:] are pending, in order
	head   int
	spare  [][]float64 // recycled sample/value backing arrays
	stats  QueueStats
	err    error
	closed bool

	kick chan struct{}
	done chan struct{}
}

// NewSendQueue builds a queue over send bounded at depth frames (zero
// selects DefaultQueueDepth). Call Start to launch the writer.
func NewSendQueue(send SendFunc, depth int) *SendQueue {
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	return &SendQueue{
		send:  send,
		depth: depth,
		kick:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
}

// Start launches the writer goroutine, which drains the queue until Close
// (after flushing what is queued) or ctx cancellation (immediately). It
// must be called exactly once.
func (q *SendQueue) Start(ctx context.Context) {
	go q.run(ctx)
}

// Done is closed when the writer goroutine has exited.
func (q *SendQueue) Done() <-chan struct{} { return q.done }

// Err reports the error that killed the queue, if any: the first SendFunc
// failure or the context error. A nil Err after Done means every queued
// frame was flushed.
func (q *SendQueue) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// Stats returns a snapshot of the lifetime counters.
func (q *SendQueue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// QueueSnapshot is a coherent point-in-time view of a SendQueue: the
// lifetime counters plus the live backlog and terminal error, all read
// under one lock acquisition so the fields are mutually consistent (a
// Stats()+Err() pair taken separately can straddle a send).
type QueueSnapshot struct {
	QueueStats
	// Pending counts frames queued but not yet handed to the SendFunc.
	Pending int
	// Err is the error that killed the queue, or nil.
	Err error
}

// Snapshot returns a coherent snapshot of counters, backlog, and error.
func (q *SendQueue) Snapshot() QueueSnapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueSnapshot{QueueStats: q.stats, Pending: q.pending(), Err: q.err}
}

// Close stops the queue after the writer flushes everything currently
// queued. Enqueues after Close return ErrQueueClosed.
func (q *SendQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.wake()
}

// EnqueueSample queues one utilization sample for the given processor and
// sampling period, coalescing it into the queued tail batch when the
// period is contiguous. It never blocks; under backpressure the oldest
// queued samples are shed.
func (q *SendQueue) EnqueueSample(processor, period int, u float64) error {
	q.mu.Lock()
	if err := q.refuse(); err != nil {
		q.mu.Unlock()
		return err
	}
	// Coalesce into the tail frame when contiguous.
	if n := len(q.q); n > q.head {
		tail := &q.q[n-1]
		if tail.Type == TypeUtilizationBatch &&
			tail.Batch.Processor == processor &&
			tail.Batch.First+len(tail.Batch.Samples) == period &&
			len(tail.Batch.Samples) < maxBatchSamples {
			tail.Batch.Samples = append(tail.Batch.Samples, u)
			q.stats.Coalesced++
			q.mu.Unlock()
			q.wake()
			return nil
		}
	}
	if q.pending() >= q.depth && !q.shedOldestSamples() {
		// Nothing sheddable is queued (all control frames): shed the
		// incoming sample instead — it is still a report.
		q.stats.DroppedSamples++
		q.mu.Unlock()
		return nil
	}
	samples := append(q.takeSpare(), u)
	q.q = append(q.q, Message{
		Type:  TypeUtilizationBatch,
		Batch: UtilizationBatch{Processor: processor, First: period, Samples: samples},
	})
	q.mu.Unlock()
	q.wake()
	return nil
}

// EnqueueRates queues a rate command for one sampling period. tasks
// selects the task indices of the values to copy out of all (nil sends
// the full vector); the tasks slice is retained by the frame and must be
// immutable for the queue's lifetime (the per-member hosted-task lists
// are built once and never written again). A queued not-yet-sent command
// is superseded in place; rate commands are never shed.
func (q *SendQueue) EnqueueRates(period int, tasks []int32, all []float64) error {
	q.mu.Lock()
	if err := q.refuse(); err != nil {
		q.mu.Unlock()
		return err
	}
	for i := q.head; i < len(q.q); i++ {
		if q.q[i].Type == TypeRates {
			r := &q.q[i].Rates
			r.Period = period
			r.Tasks = tasks
			r.Values = gatherRates(r.Values[:0], tasks, all)
			q.stats.SupersededRates++
			q.mu.Unlock()
			q.wake()
			return nil
		}
	}
	if q.pending() >= q.depth {
		// Make room at the expense of reports; if nothing is sheddable
		// the queue grows — control actuation outranks the bound.
		_ = q.shedOldestSamples()
	}
	q.q = append(q.q, Message{
		Type:  TypeRates,
		Rates: Rates{Period: period, Tasks: tasks, Values: gatherRates(q.takeSpare(), tasks, all)},
	})
	q.mu.Unlock()
	q.wake()
	return nil
}

// EnqueueHello queues the registration frame.
func (q *SendQueue) EnqueueHello(processor int, node string) error {
	return q.enqueueControl(Message{Type: TypeHello, Hello: Hello{Processor: processor, Node: node}})
}

// EnqueueShutdown queues a shutdown notice.
func (q *SendQueue) EnqueueShutdown(reason string) error {
	return q.enqueueControl(Message{Type: TypeShutdown, Shutdown: Shutdown{Reason: reason}})
}

// enqueueControl appends a never-shed control frame, shedding reports to
// respect the bound when possible.
func (q *SendQueue) enqueueControl(m Message) error {
	q.mu.Lock()
	if err := q.refuse(); err != nil {
		q.mu.Unlock()
		return err
	}
	if q.pending() >= q.depth {
		_ = q.shedOldestSamples()
	}
	q.q = append(q.q, m)
	q.mu.Unlock()
	q.wake()
	return nil
}

// refuse reports why the queue no longer accepts frames, under q.mu.
func (q *SendQueue) refuse() error {
	if q.err != nil {
		return q.err
	}
	if q.closed {
		return ErrQueueClosed
	}
	return nil
}

// pending counts queued frames, under q.mu.
func (q *SendQueue) pending() int { return len(q.q) - q.head }

// shedOldestSamples removes the oldest queued utilization batch, under
// q.mu, and reports whether one was found.
func (q *SendQueue) shedOldestSamples() bool {
	for i := q.head; i < len(q.q); i++ {
		if q.q[i].Type == TypeUtilizationBatch {
			q.stats.DroppedSamples += uint64(len(q.q[i].Batch.Samples))
			q.putSpare(q.q[i].Batch.Samples)
			copy(q.q[i:], q.q[i+1:])
			q.q = q.q[:len(q.q)-1]
			return true
		}
	}
	return false
}

// takeSpare returns a recycled float64 backing array (length 0), under
// q.mu.
func (q *SendQueue) takeSpare() []float64 {
	if n := len(q.spare); n > 0 {
		s := q.spare[n-1]
		q.spare = q.spare[:n-1]
		return s[:0]
	}
	return nil
}

// putSpare recycles a frame's backing array, under q.mu.
func (q *SendQueue) putSpare(s []float64) {
	if cap(s) > 0 && len(q.spare) < 4 {
		q.spare = append(q.spare, s[:0])
	}
}

// gatherRates copies the commanded values into dst: all[t] per task index
// when tasks is set, the whole vector otherwise.
func gatherRates(dst []float64, tasks []int32, all []float64) []float64 {
	if tasks == nil {
		return append(dst, all...)
	}
	for _, t := range tasks {
		dst = append(dst, all[t])
	}
	return dst
}

// wake kicks the writer without blocking.
func (q *SendQueue) wake() {
	select {
	case q.kick <- struct{}{}:
	default:
	}
}

// pop takes the head frame, under q.mu from inside. The second result
// reports whether a frame was taken; the third that the queue is closed
// and drained.
func (q *SendQueue) pop() (Message, bool, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head < len(q.q) {
		m := q.q[q.head]
		q.q[q.head] = Message{} // release references
		q.head++
		if q.head == len(q.q) {
			q.q = q.q[:0]
			q.head = 0
		} else if q.head > DefaultQueueDepth && q.head*2 > len(q.q) {
			n := copy(q.q, q.q[q.head:])
			q.q = q.q[:n]
			q.head = 0
		}
		return m, true, false
	}
	return Message{}, false, q.closed
}

// fail records the queue-killing error, under q.mu from inside.
func (q *SendQueue) fail(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.mu.Unlock()
}

// finish recycles a sent frame's buffers and counts it.
func (q *SendQueue) finish(m *Message) {
	q.mu.Lock()
	q.stats.Sent++
	switch m.Type {
	case TypeUtilizationBatch:
		q.putSpare(m.Batch.Samples)
	case TypeRates:
		q.putSpare(m.Rates.Values)
	case TypeHello, TypeShutdown:
		// No float buffers to recycle.
	}
	q.mu.Unlock()
}

// run is the writer loop.
func (q *SendQueue) run(ctx context.Context) {
	defer close(q.done)
	var m Message // escapes through send: one per writer, not one per frame
	for {
		var ok, drained bool
		m, ok, drained = q.pop()
		if !ok {
			if drained {
				return
			}
			select {
			case <-q.kick:
			case <-ctx.Done():
				q.fail(ctx.Err())
				return
			}
			continue
		}
		if err := q.send(ctx, &m); err != nil {
			q.fail(err)
			return
		}
		q.finish(&m)
	}
}
