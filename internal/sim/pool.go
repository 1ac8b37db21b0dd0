package sim

// Free lists for the two object kinds churned by the event loop. Both are
// simple LIFO stacks owned by one Simulator: recycled objects never cross
// simulators (and therefore never cross goroutines — each sweep worker owns
// its simulator), so no synchronization is needed and the race detector can
// prove the property on parallel sweeps.
//
// Ownership discipline: an event or job pointer lives in exactly one place
// at a time — the event queue, a processor's ready queue, a processor's
// running slot, or a free list. Handlers must recycle an object in the same
// step that drops the last reference to it; after putEvent/putJob the
// pointer must not be touched again. The back-pointers firstRel and
// processor.comp are second references to queued events only: a superseded
// event is re-keyed in place, never recycled, and a back-pointer is cleared
// when its event pops.

// newEvent returns a zeroed event, recycling from the free list when
// possible. Steady state never allocates: the pool high-water mark is the
// maximum number of simultaneously pending events, reached during the first
// few sampling periods.
//
//eucon:noalloc
func (s *Simulator) newEvent() *event {
	if n := len(s.freeEvents); n > 0 {
		e := s.freeEvents[n-1]
		s.freeEvents[n-1] = nil
		s.freeEvents = s.freeEvents[:n-1]
		*e = event{}
		return e
	}
	s.eventsMade++
	return &event{} //eucon:alloc-ok cold-path pool miss; amortized to zero in steady state
}

// putEvent recycles a handled or reclaimed event. The caller must have taken
// ownership of e.job first — putEvent does not free the job, because on the
// release path the job outlives its carrying event.
//
//eucon:noalloc
func (s *Simulator) putEvent(e *event) {
	s.freeEvents = append(s.freeEvents, e) //eucon:alloc-ok amortized free-list growth; capacity plateaus at the working set
}

// newJob returns a zeroed job, recycling from the free list when possible.
//
//eucon:noalloc
func (s *Simulator) newJob() *job {
	if n := len(s.freeJobs); n > 0 {
		j := s.freeJobs[n-1]
		s.freeJobs[n-1] = nil
		s.freeJobs = s.freeJobs[:n-1]
		*j = job{}
		return j
	}
	s.jobsMade++
	return &job{} //eucon:alloc-ok cold-path pool miss; amortized to zero in steady state
}

// putJob recycles a completed, shed, or reclaimed job.
//
//eucon:noalloc
func (s *Simulator) putJob(j *job) {
	s.freeJobs = append(s.freeJobs, j) //eucon:alloc-ok amortized free-list growth; capacity plateaus at the working set
}

// recycleInFlight drains every live event and job — pending events (and the
// jobs they carry), ready queues, and running slots — back into the free
// lists, and clears the back-pointers into the queue. Reset uses it so a
// reused Simulator re-enters its first sampling period with warm pools
// instead of reallocating the working set.
//
//eucon:noalloc
func (s *Simulator) recycleInFlight() {
	for i := range s.events.buckets {
		for e := s.events.buckets[i].head; e != nil; {
			next := e.next
			if e.job != nil {
				s.putJob(e.job)
			}
			s.putEvent(e)
			e = next
		}
	}
	s.events.reset()
	clear(s.firstRel)
	for p := range s.procs {
		pr := &s.procs[p]
		pr.comp = nil
		for _, j := range pr.ready.jobs {
			s.putJob(j)
		}
		clear(pr.ready.jobs)
		pr.ready.jobs = pr.ready.jobs[:0]
		if pr.running != nil {
			s.putJob(pr.running)
			pr.running = nil
		}
	}
}
