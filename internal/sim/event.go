package sim

import "math"

// eventKind orders simultaneous events: completions free processors before
// new releases contend for them, and sampling observes a settled state.
//
//eucon:exhaustive
type eventKind int

const (
	evCompletion eventKind = iota + 1
	evRelease
	evSampling
)

// event is a scheduled simulator occurrence. Events are pooled: the
// Simulator recycles them through its free list once handled, so no event
// pointer may be retained after its handler returns.
type event struct {
	at   float64
	kind eventKind
	seq  uint64 // global tie-break, drawn afresh by every push and re-key

	// While queued: the calendar day of at, and the neighbours in the
	// day's bucket.
	day        int64
	prev, next *event

	// evCompletion: the processor whose running job tentatively finishes.
	proc int
	// evRelease: the job to enqueue.
	job *job
}

// eventBefore is the strict total order of the queue: (at, kind, seq),
// with a NaN time before every other time. Only a run with its guards
// disabled can queue a NaN; sorting it first pops it at once, and the run
// loop's horizon check then ends the poisoned run.
//
//eucon:noalloc
//eucon:float-exact tie-break of a total order; equal timestamps must compare equal
func eventBefore(a, b *event) bool {
	if a.at < b.at {
		return true
	}
	if b.at < a.at {
		return false
	}
	if an, bn := a.at != a.at, b.at != b.at; an != bn {
		return an
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// minBuckets is the calendar's initial number of days per year.
const minBuckets = 16

// eventQueue is a calendar queue (Brown, CACM 1988) of pending events
// ordered by eventBefore. Time is cut into days of equal width; day d is
// filed in bucket d mod nb, so one year of nb buckets covers nb days, and
// each bucket is a list kept sorted. A pop scans forward from the current
// day cur and takes the first bucket head that falls on the day being
// scanned. No queued event lies before day cur, and the day is monotone in
// time, so that head precedes every other queued event: the pop sequence is
// exactly the total order, whatever the width or the number of buckets.
//
// The width is re-estimated from the queued events whenever a scan wraps a
// whole year without a hit, and nb doubles when the queue outgrows two
// events per bucket; both re-file every event. nb never shrinks, so a
// queue that shrinks and grows again does not churn. The lists are linked
// through the events themselves, so only growing nb allocates.
type eventQueue struct {
	buckets  []bucket // len(buckets) is a power of two, or 0 before the first push
	invWidth float64  // days per unit of time
	cur      int64    // the day the next pop scans first; no queued event lies before it
	n        int
}

// bucket is one calendar bucket: a doubly linked list of events, sorted by
// eventBefore from head to tail.
type bucket struct {
	head, tail *event
}

//eucon:noalloc
func (q *eventQueue) len() int { return q.n }

// dayOf returns the calendar day of time at: floor(at·invWidth), saturated
// to the int64 range. Non-finite times are filed explicitly, +Inf on the
// last day and NaN and −Inf on the first, because Go leaves the conversion
// of an out-of-range float to an integer implementation-defined.
//
//eucon:noalloc
func (q *eventQueue) dayOf(at float64) int64 {
	x := at * q.invWidth
	switch {
	case x >= 0 && x < 0x1p63:
		return int64(x)
	case x >= 0x1p63:
		return math.MaxInt64
	case x >= -0x1p63:
		return int64(math.Floor(x))
	default: // below −2⁶³, −Inf or NaN
		return math.MinInt64
	}
}

// bucketOf returns the bucket that files day d.
//
//eucon:noalloc
func (q *eventQueue) bucketOf(d int64) *bucket {
	return &q.buckets[d&int64(len(q.buckets)-1)]
}

// queued reports whether e sits in the queue.
//
//eucon:noalloc
func (q *eventQueue) queued(e *event) bool {
	if q.n == 0 {
		return false
	}
	for x := q.bucketOf(e.day).head; x != nil; x = x.next {
		if x == e {
			return true
		}
	}
	return false
}

//eucon:noalloc
func (q *eventQueue) push(e *event) {
	if q.n >= 2*len(q.buckets) {
		q.resize(max(2*len(q.buckets), minBuckets))
	}
	if q.n == 0 {
		q.cur = math.MaxInt64
	}
	q.n++
	q.file(e)
}

// file puts e in the bucket of its day.
//
//eucon:noalloc
func (q *eventQueue) file(e *event) {
	e.day = q.dayOf(e.at)
	if e.day < q.cur {
		q.cur = e.day
	}
	q.bucketOf(e.day).insert(e)
}

// move re-keys the queued event e to (at, seq) and re-files it.
//
//eucon:noalloc
func (q *eventQueue) move(e *event, at float64, seq uint64) {
	q.bucketOf(e.day).remove(e)
	e.at = at
	e.seq = seq
	q.file(e)
}

// pop removes and returns the earliest event. The queue must not be empty.
//
//eucon:noalloc
func (q *eventQueue) pop() *event {
	mask := int64(len(q.buckets) - 1)
	for {
		for range len(q.buckets) {
			b := &q.buckets[q.cur&mask]
			if e := b.head; e != nil && e.day == q.cur {
				b.remove(e)
				q.n--
				return e
			}
			q.cur++
		}
		// A whole year without a hit: the width is too small for the
		// spread of the queue. Re-estimate it; the re-file restarts the
		// scan at the earliest event's day.
		q.resize(len(q.buckets))
	}
}

// resize re-files every queued event into nb buckets, with the day width
// re-estimated from the queued events' times.
//
//eucon:noalloc
func (q *eventQueue) resize(nb int) {
	// Chain every queued event through next, then empty the buckets.
	var all *event
	for i := range q.buckets {
		for e := q.buckets[i].head; e != nil; {
			next := e.next
			e.next = all
			all = e
			e = next
		}
	}
	clear(q.buckets)
	for len(q.buckets) < nb {
		q.buckets = append(q.buckets, bucket{}) //eucon:alloc-ok nb only grows, doubling with the pending-event high-water mark
	}
	q.estimateWidth(all)
	q.cur = math.MaxInt64
	for e := all; e != nil; {
		next := e.next
		q.file(e)
		e = next
	}
}

// estimateWidth sets the day width from the events chained through next
// from all: twice the mean distance of their finite times from the
// earliest of them, over their number. That is about the mean gap between
// successive pops when the times are spread evenly, and less swayed by a
// few far-future events than the full span. It keeps the old width when
// the times give none (fewer than two distinct finite times). A new queue
// starts from a width far below any event spacing, so the simultaneous
// first releases of a run cannot fix the width: the first scan past them
// wraps and estimates it.
//
//eucon:noalloc
func (q *eventQueue) estimateWidth(all *event) {
	if !(q.invWidth > 0) {
		q.invWidth = 0x1p40
	}
	lo, m := math.Inf(1), 0
	for e := all; e != nil; e = e.next {
		if !math.IsInf(e.at, 0) && !math.IsNaN(e.at) {
			lo = min(lo, e.at)
			m++
		}
	}
	sum := 0.0
	for e := all; e != nil; e = e.next {
		if !math.IsInf(e.at, 0) && !math.IsNaN(e.at) {
			sum += e.at - lo
		}
	}
	w := 2 * sum / float64(m) / float64(m)
	if inv := 1 / w; w > 0 && !math.IsInf(inv, 0) {
		q.invWidth = inv
	}
}

// reset empties the queue, keeping its buckets and width for the next run.
// The events it held must already be back in their pool.
//
//eucon:noalloc
func (q *eventQueue) reset() {
	clear(q.buckets)
	q.n = 0
}

// insert links e in at its place in the sorted bucket. Events mostly
// arrive later than everything already in their bucket, so the search runs
// from the tail.
//
//eucon:noalloc
func (b *bucket) insert(e *event) {
	x := b.tail
	for x != nil && eventBefore(e, x) {
		x = x.prev
	}
	// e goes right after x, or first when x is nil.
	e.prev = x
	if x == nil {
		e.next = b.head
		b.head = e
	} else {
		e.next = x.next
		x.next = e
	}
	if e.next == nil {
		b.tail = e
	} else {
		e.next.prev = e
	}
}

// remove unlinks the queued event e from the bucket.
//
//eucon:noalloc
func (b *bucket) remove(e *event) {
	if e.prev == nil {
		b.head = e.next
	} else {
		e.prev.next = e.next
	}
	if e.next == nil {
		b.tail = e.prev
	} else {
		e.next.prev = e.prev
	}
	e.prev, e.next = nil, nil
}
