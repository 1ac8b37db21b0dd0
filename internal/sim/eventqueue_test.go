package sim

import (
	"math"
	"math/rand"
	"testing"
)

// refBefore is the queue's total order written out independently of
// eventBefore: NaN first, then time, kind and sequence number.
func refBefore(a, b *event) bool {
	an, bn := math.IsNaN(a.at), math.IsNaN(b.at)
	switch {
	case an != bn:
		return an
	case !an && a.at != b.at:
		return a.at < b.at
	case a.kind != b.kind:
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// queueStats records which shapes a differential run reached.
type queueStats struct {
	pops, moves, reestimates int
	maxLen                   int
	tinyPops                 int // pops from a queue of 1–3 events
	farPushes                int // pushes many years past the last pop
}

// runQueueOps drives an eventQueue with the operations encoded in data and
// checks every pop against a sorted reference and the calendar's
// invariants after every operation. Each operation takes two bytes: an
// opcode and an argument.
//
//   - push near the clock, on a coarse grid so times and kinds tie;
//   - push many years past the clock;
//   - pop, compared with the reference's minimum;
//   - re-key a queued event earlier or later, with a fresh sequence number;
//   - push +Inf or NaN.
//
// The clock follows the popped times, as in the simulator, and the queue is
// drained at the end. Operations past the 1024th are ignored: the reference
// and the invariant check are linear in the queue length.
func runQueueOps(t *testing.T, data []byte) queueStats {
	t.Helper()
	var (
		q     eventQueue
		live  []*event
		seq   uint64
		clock float64
		st    queueStats
	)
	push := func(at float64, kind byte) {
		seq++
		e := &event{at: at, kind: eventKind(1 + kind%3), seq: seq}
		q.push(e)
		live = append(live, e)
	}
	pop := func() {
		best := 0
		for i, e := range live[1:] {
			if refBefore(e, live[best]) {
				best = i + 1
			}
		}
		if len(live) <= 3 {
			st.tinyPops++
		}
		inv := q.invWidth
		want := live[best]
		got := q.pop()
		if got != want {
			t.Fatalf("pop %d = {at:%v kind:%d seq:%d}, want {at:%v kind:%d seq:%d}",
				st.pops, got.at, got.kind, got.seq, want.at, want.kind, want.seq)
		}
		if q.invWidth != inv {
			st.reestimates++
		}
		live = append(live[:best], live[best+1:]...)
		if !math.IsNaN(got.at) && !math.IsInf(got.at, 0) {
			clock = got.at
		}
		st.pops++
	}
	data = data[:min(len(data), 2048)]
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		switch op % 8 {
		case 0, 1, 2:
			push(clock+float64(arg%16)/4, arg/16)
		case 3:
			push(clock+float64(1+arg)*1e5, arg)
			st.farPushes++
		case 4, 5:
			if len(live) > 0 {
				pop()
			}
		case 6:
			if len(live) > 0 {
				e := live[int(arg)%len(live)]
				seq++
				at := clock + float64(int(arg%32)-12)/4 // earlier or later than the clock
				q.move(e, at, seq)
				st.moves++
			}
		case 7:
			if arg%2 == 0 {
				push(math.Inf(1), arg)
			} else {
				push(math.NaN(), arg)
			}
		}
		if err := q.check(); err != nil {
			t.Fatalf("after op %d (%d, %d): %v", i/2, op%8, arg, err)
		}
		st.maxLen = max(st.maxLen, len(live))
	}
	for len(live) > 0 {
		pop()
	}
	if q.len() != 0 {
		t.Fatalf("queue holds %d events after draining", q.len())
	}
	return st
}

// TestEventQueueMatchesSortedReference runs seeded random operation
// sequences against a sorted reference. The seeds mix short sequences that
// keep 1–3 events queued with long ones that grow the calendar, tie times
// and kinds, leave gaps of many years, re-key events earlier and later and
// re-estimate the width mid-sequence; the test checks that every one of
// those shapes was reached.
func TestEventQueueMatchesSortedReference(t *testing.T) {
	var total queueStats
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		if seed%4 == 0 {
			n = 200 + rng.Intn(800)
		}
		data := make([]byte, 2*n)
		rng.Read(data)
		st := runQueueOps(t, data)
		total.pops += st.pops
		total.moves += st.moves
		total.reestimates += st.reestimates
		total.tinyPops += st.tinyPops
		total.farPushes += st.farPushes
		total.maxLen = max(total.maxLen, st.maxLen)
	}
	if total.tinyPops == 0 || total.farPushes == 0 || total.moves == 0 || total.reestimates == 0 || total.maxLen <= 2*minBuckets {
		t.Errorf("sequences missed a shape: %+v", total)
	}
}

// FuzzEventQueueOrder is the differential test as a fuzz target:
//
//	go test -run '^$' -fuzz FuzzEventQueueOrder -fuzztime 30s ./internal/sim
//
// Its seed corpus runs with the ordinary tests.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{0, 5, 4, 0})                                // one event
	f.Add([]byte{0, 0, 0, 16, 0, 32, 4, 0, 4, 0, 4, 0})      // equal times, three kinds
	f.Add([]byte{0, 1, 3, 7, 3, 200, 4, 0, 4, 0, 4, 0})      // gaps of many years
	f.Add([]byte{0, 3, 0, 9, 6, 0, 6, 31, 4, 0, 6, 1, 4, 0}) // re-keys earlier and later
	f.Add([]byte{7, 0, 7, 1, 0, 2, 4, 0, 7, 2, 4, 0})        // +Inf and NaN
	grow := make([]byte, 0, 200)
	for i := byte(0); i < 80; i++ {
		grow = append(grow, i%3, i*7) // 80 pushes: the calendar grows and re-estimates
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, data []byte) {
		runQueueOps(t, data)
	})
}
