package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEventQueuePopsInTotalOrder drives the calendar event queue with
// random events, re-keys random queued events in place to earlier and
// later times between rounds of pops, and checks each round pops the
// sorted order of the (at, kind, seq) total order — the property that keeps
// runs bit-identical regardless of the queue's layout — and that the
// calendar's invariants hold after every round of re-keys.
func TestEventQueuePopsInTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		var q eventQueue
		n := 1 + rng.Intn(200)
		live := make([]*event, 0, n)
		seq := uint64(0)
		for i := 0; i < n; i++ {
			seq++
			e := &event{
				at:   float64(rng.Intn(20)), // force at/kind/seq ties
				kind: eventKind(1 + rng.Intn(3)),
				seq:  seq,
			}
			live = append(live, e)
			q.push(e)
		}
		for round := 0; len(live) > 0; round++ {
			for r := rng.Intn(len(live) + 1); r > 0; r-- {
				e := live[rng.Intn(len(live))]
				seq++
				q.move(e, e.at+float64(rng.Intn(21)-10), seq) // earlier, later or tied
			}
			if err := q.check(); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			sort.Slice(live, func(i, j int) bool { return eventBefore(live[i], live[j]) })
			pops := 1 + rng.Intn(len(live))
			for i, w := range live[:pops] {
				if got := q.pop(); got != w {
					t.Fatalf("trial %d round %d: pop %d = %+v, want %+v", trial, round, i, got, w)
				}
			}
			live = live[pops:]
		}
		if q.len() != 0 {
			t.Fatalf("trial %d: queue not drained", trial)
		}
	}
}

// TestJobHeapPopsByRMSPriority checks the ready queue pops jobs in strict
// higherPriority order, and that reinit restores the invariant after the
// rates under the queued jobs change.
func TestJobHeapPopsByRMSPriority(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		s := &Simulator{rates: []float64{0.02, 0.01, 0.05, 0.02}}
		h := jobHeap{sim: s}
		n := 1 + rng.Intn(100)
		jobs := make([]*job, 0, n)
		for i := 0; i < n; i++ {
			j := &job{
				taskIdx: rng.Intn(len(s.rates)),
				subIdx:  rng.Intn(3),
				release: float64(i), // strictly increasing, as in real runs
			}
			jobs = append(jobs, j)
			h.push(j)
		}
		// A rate change mid-flight: re-heapify and verify the new order.
		s.rates[0], s.rates[2] = 0.001, 0.2
		h.reinit()
		want := append([]*job(nil), jobs...)
		sort.SliceStable(want, func(i, j int) bool { return s.higherPriority(want[i], want[j]) })
		for i, w := range want {
			got := h.pop()
			if got != w {
				t.Fatalf("trial %d: pop %d = %+v, want %+v", trial, i, got, w)
			}
		}
	}
}

// TestPoolsRecycle pins the free-list mechanics: recycled objects are
// zeroed on reuse and the pools drain before allocating anew.
func TestPoolsRecycle(t *testing.T) {
	s := &Simulator{}
	e := s.newEvent()
	e.at, e.kind, e.job = 5, evRelease, &job{taskIdx: 3}
	s.putEvent(e)
	if got := s.newEvent(); got != e {
		t.Error("event pool did not recycle the freed event")
	} else if got.at != 0 || got.kind != 0 || got.job != nil {
		t.Errorf("recycled event not zeroed: %+v", got)
	}
	j := s.newJob()
	j.taskIdx, j.remaining = 7, 3.5
	s.putJob(j)
	if got := s.newJob(); got != j {
		t.Error("job pool did not recycle the freed job")
	} else if got.taskIdx != 0 || got.remaining != 0 {
		t.Errorf("recycled job not zeroed: %+v", got)
	}
}
