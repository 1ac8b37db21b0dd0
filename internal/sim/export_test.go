package sim

import (
	"fmt"
	"math/rand"
)

// QueuedSamplingEvents counts the sampling boundaries pending in s's event
// queue.
func QueuedSamplingEvents(s *Simulator) int {
	n := 0
	for _, e := range s.events.all() {
		if e.kind == evSampling {
			n++
		}
	}
	return n
}

// CheckLiveEvents checks that s's event queue holds only live events: every
// queued completion is its processor's one completion, for a running job;
// every queued first-subtask release is its task's only one; and the
// calendar's own invariants hold (see eventQueue.check). It returns the first
// violation, and how many completions and first releases it checked.
func CheckLiveEvents(s *Simulator) (completions, firsts int, err error) {
	if err := s.events.check(); err != nil {
		return 0, 0, err
	}
	perTask := make([]int, len(s.sys.Tasks))
	for _, e := range s.events.all() {
		switch {
		case e.kind == evCompletion:
			completions++
			if p := &s.procs[e.proc]; p.running == nil || p.comp != e {
				return 0, 0, fmt.Errorf("completion at t=%v on P%d is not its running job's", e.at, e.proc+1)
			}
		case e.kind == evRelease && e.job.subIdx == 0:
			firsts++
			if perTask[e.job.taskIdx]++; perTask[e.job.taskIdx] > 1 {
				return 0, 0, fmt.Errorf("task %d has %d first releases queued", e.job.taskIdx, perTask[e.job.taskIdx])
			}
		}
	}
	return completions, firsts, nil
}

// Clock is s's virtual time: the time of the event being handled.
func Clock(s *Simulator) float64 { return s.now }

// ProbeDraws calls probe before every execution-time draw of s's jittered
// runs — once per admitted release — without changing a drawn value. The
// probe survives Reset, which reseeds the same source.
func ProbeDraws(s *Simulator, probe func()) {
	s.rng = rand.New(probedSource{rand.NewSource(s.cfg.Seed), probe})
}

type probedSource struct {
	rand.Source
	probe func()
}

func (p probedSource) Int63() int64 {
	p.probe()
	return p.Source.Int63()
}

// all returns the queued events, bucket by bucket.
func (q *eventQueue) all() []*event {
	var out []*event
	for i := range q.buckets {
		for e := q.buckets[i].head; e != nil; e = e.next {
			out = append(out, e)
		}
	}
	return out
}

// check verifies the calendar's invariants: every queued event sits in the
// bucket its stored day names, and that day is the day of its time; every
// bucket is a well-linked list sorted by eventBefore; no event lies before
// the scan's current day; and the count matches.
func (q *eventQueue) check() error {
	n := 0
	for i := range q.buckets {
		b := &q.buckets[i]
		var prev *event
		for e := b.head; e != nil; e = e.next {
			if q.bucketOf(e.day) != b {
				return fmt.Errorf("event at t=%v records day %d but sits in bucket %d", e.at, e.day, i)
			}
			if d := q.dayOf(e.at); d != e.day {
				return fmt.Errorf("event at t=%v records day %d, its time's day is %d", e.at, e.day, d)
			}
			if e.day < q.cur {
				return fmt.Errorf("event at t=%v lies on day %d, before the scan's day %d", e.at, e.day, q.cur)
			}
			if e.prev != prev {
				return fmt.Errorf("bucket %d: event at t=%v links back to the wrong event", i, e.at)
			}
			if prev != nil && !eventBefore(prev, e) {
				return fmt.Errorf("bucket %d unsorted (t=%v after t=%v)", i, e.at, prev.at)
			}
			prev = e
			n++
		}
		if b.tail != prev {
			return fmt.Errorf("bucket %d: tail is not the last event", i)
		}
	}
	if n != q.n {
		return fmt.Errorf("queue counts %d events but holds %d", q.n, n)
	}
	return nil
}
