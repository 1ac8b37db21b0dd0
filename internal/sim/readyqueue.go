package sim

// jobHeap is a processor's ready queue: a flat 4-ary min-heap of pending
// jobs ordered by RMS priority (shortest current period first, see
// Simulator.higherPriority). It is concrete-typed — no container/heap
// interface calls or `any` conversions on the dispatch path.
//
// Priorities are live values owned by the simulator (they change when task
// rates change), so the heap must be re-heapified via reinit whenever rates
// change. The priority order is total — ties break by task index, subtask
// index, then release time, and release times are strictly increasing per
// subtask — so the pop sequence is independent of heap arity and layout.
type jobHeap struct {
	jobs []*job
	sim  *Simulator
}

//eucon:noalloc
func (h *jobHeap) len() int { return len(h.jobs) }

// peek returns the highest-priority ready job; the heap must be non-empty.
//
//eucon:noalloc
func (h *jobHeap) peek() *job { return h.jobs[0] }

//eucon:noalloc
func (h *jobHeap) push(j *job) {
	h.jobs = append(h.jobs, j) //eucon:alloc-ok amortized heap growth; capacity plateaus at the per-processor backlog bound
	i := len(h.jobs) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.sim.higherPriority(h.jobs[i], h.jobs[parent]) {
			break
		}
		h.jobs[i], h.jobs[parent] = h.jobs[parent], h.jobs[i]
		i = parent
	}
}

//eucon:noalloc
func (h *jobHeap) pop() *job {
	top := h.jobs[0]
	n := len(h.jobs) - 1
	h.jobs[0] = h.jobs[n]
	h.jobs[n] = nil
	h.jobs = h.jobs[:n]
	if n > 1 {
		h.siftDown(0)
	}
	return top
}

//eucon:noalloc
func (h *jobHeap) siftDown(i int) {
	n := len(h.jobs)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.sim.higherPriority(h.jobs[c], h.jobs[best]) {
				best = c
			}
		}
		if !h.sim.higherPriority(h.jobs[best], h.jobs[i]) {
			return
		}
		h.jobs[i], h.jobs[best] = h.jobs[best], h.jobs[i]
		i = best
	}
}

// reinit restores the heap invariant after RMS priorities changed under the
// queued jobs (a rate change altered task periods).
//
//eucon:noalloc
func (h *jobHeap) reinit() {
	n := len(h.jobs)
	for i := (n - 2) / 4; i >= 0; i-- {
		h.siftDown(i)
	}
}
