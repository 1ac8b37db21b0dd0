package sim

import (
	"fmt"
	"math/rand"
)

// QueuedSamplingEvents counts the sampling boundaries pending in s's event
// queue.
func QueuedSamplingEvents(s *Simulator) int {
	n := 0
	for _, e := range s.events.ev {
		if e.kind == evSampling {
			n++
		}
	}
	return n
}

// CheckLiveEvents checks that s's event queue holds only live events: every
// queued completion is its processor's one completion, for a running job;
// every queued first-subtask release is its task's only one; and every
// event's index is its heap slot. It returns the first violation, and how
// many completions and first releases it checked.
func CheckLiveEvents(s *Simulator) (completions, firsts int, err error) {
	perTask := make([]int, len(s.sys.Tasks))
	for i, e := range s.events.ev {
		if e.idx != i {
			return 0, 0, fmt.Errorf("event at t=%v sits in slot %d but records index %d", e.at, i, e.idx)
		}
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
