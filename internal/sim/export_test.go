package sim

import "math/rand"

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
