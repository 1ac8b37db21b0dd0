package sim

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
	idx  int    // slot in the event queue while queued

	// evCompletion: the processor whose running job tentatively finishes.
	proc int
	// evRelease: the job to enqueue.
	job *job
}

// eventQueue is a flat 4-ary min-heap of pending events ordered by
// (at, kind, seq). The order is total — seq is unique per event — so the
// pop sequence is independent of heap arity and insertion order, keeping
// runs bit-identical to any other correct priority queue. Each event
// carries its slot, so a queued event can be re-keyed in place (fix).
//
// The queue is concrete-typed on purpose: container/heap routes every Push
// and Pop through interface method calls and `any` conversions on the hot
// path; a 4-ary layout additionally halves the tree depth and keeps sibling
// comparisons within one cache line of pointers.
type eventQueue struct {
	ev []*event
}

// eventBefore is the strict total order of the queue.
//
//eucon:noalloc
//eucon:float-exact tie-break of a total order; equal timestamps must compare equal
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

//eucon:noalloc
func (q *eventQueue) len() int { return len(q.ev) }

// queued reports whether e sits in the queue.
//
//eucon:noalloc
func (q *eventQueue) queued(e *event) bool {
	return e.idx < len(q.ev) && q.ev[e.idx] == e
}

//eucon:noalloc
func (q *eventQueue) push(e *event) {
	q.ev = append(q.ev, e) //eucon:alloc-ok amortized heap growth; capacity plateaus at the pending-event high-water mark
	q.siftUp(len(q.ev) - 1)
}

//eucon:noalloc
func (q *eventQueue) pop() *event {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev[n] = nil
	q.ev = q.ev[:n]
	if n > 0 {
		q.siftDown(0)
	}
	return top
}

// fix restores the heap order after the key of the event in slot i changed.
//
//eucon:noalloc
func (q *eventQueue) fix(i int) {
	if q.siftUp(i) == i {
		q.siftDown(i)
	}
}

// siftUp moves the event in slot i toward the root past every parent it
// precedes and returns its final slot. Like siftDown it carries the event
// in a hole, writing each displaced event (and its idx) once.
//
//eucon:noalloc
func (q *eventQueue) siftUp(i int) int {
	e := q.ev[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := q.ev[parent]
		if !eventBefore(e, p) {
			break
		}
		q.ev[i] = p
		p.idx = i
		i = parent
	}
	q.ev[i] = e
	e.idx = i
	return i
}

//eucon:noalloc
func (q *eventQueue) siftDown(i int) {
	e := q.ev[i]
	n := len(q.ev)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := min(first+4, n)
		for c := first + 1; c < last; c++ {
			if eventBefore(q.ev[c], q.ev[best]) {
				best = c
			}
		}
		b := q.ev[best]
		if !eventBefore(b, e) {
			break
		}
		q.ev[i] = b
		b.idx = i
		i = best
	}
	q.ev[i] = e
	e.idx = i
}
