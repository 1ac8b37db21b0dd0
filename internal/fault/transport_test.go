package fault

import (
	"testing"
	"time"
)

func TestTransportPlanDeterministicAndCalibrated(t *testing.T) {
	p := TransportPlan{DropProb: 0.2, DelayProb: 0.1, Delay: 5 * time.Millisecond, Seed: 42}
	const n = 20000
	drops, delays := 0, 0
	for i := uint64(0); i < n; i++ {
		d1, dl1, _, _ := p.FateOf(i)
		d2, dl2, _, _ := p.FateOf(i)
		if d1 != d2 || dl1 != dl2 {
			t.Fatalf("message %d: outcome not stable across calls", i)
		}
		if d1 {
			drops++
			if dl1 != 0 {
				t.Fatalf("message %d: dropped with nonzero delay", i)
			}
		} else if dl1 > 0 {
			if dl1 != p.Delay {
				t.Fatalf("message %d: delay %v, want %v", i, dl1, p.Delay)
			}
			delays++
		}
	}
	if f := float64(drops) / n; f < 0.18 || f > 0.22 {
		t.Errorf("drop fraction %.3f, want ≈ 0.2", f)
	}
	if f := float64(delays) / n; f < 0.06 || f > 0.11 {
		t.Errorf("delay fraction %.3f, want ≈ 0.1·(1−0.2) = 0.08", f)
	}

	// Distinct seeds give distinct patterns.
	q := p
	q.Seed = 43
	same := 0
	for i := uint64(0); i < 1000; i++ {
		a, _, _, _ := p.FateOf(i)
		b, _, _, _ := q.FateOf(i)
		if a == b {
			same++
		}
	}
	if same == 1000 {
		t.Error("seeds 42 and 43 produced identical drop patterns")
	}
}

func TestTransportPlanFateOfCalibrated(t *testing.T) {
	p := TransportPlan{DropProb: 0.1, DupProb: 0.05, ReorderProb: 0.05, Seed: 7}
	const n = 20000
	drops, dups, reorders := 0, 0, 0
	for i := uint64(0); i < n; i++ {
		drop, delay, dup, reorder := p.FateOf(i)
		if drop {
			drops++
			if delay != 0 || dup || reorder {
				t.Fatalf("message %d: drop combined with another fate", i)
			}
			continue
		}
		if dup {
			dups++
		}
		if reorder {
			reorders++
		}
	}
	if f := float64(drops) / n; f < 0.08 || f > 0.12 {
		t.Errorf("drop fraction %.3f, want ≈ 0.1", f)
	}
	if f := float64(dups) / n; f < 0.03 || f > 0.07 {
		t.Errorf("dup fraction %.3f, want ≈ 0.05·0.9", f)
	}
	if f := float64(reorders) / n; f < 0.03 || f > 0.07 {
		t.Errorf("reorder fraction %.3f, want ≈ 0.05·0.9", f)
	}
}

func TestTransportPlanReseedDecorrelates(t *testing.T) {
	p := TransportPlan{DropProb: 0.5, Seed: 42}
	a, b := p.reseed(1), p.reseed(2)
	if a.Seed == p.Seed || b.Seed == p.Seed || a.Seed == b.Seed {
		t.Fatalf("reseed produced colliding seeds: %d, %d, %d", p.Seed, a.Seed, b.Seed)
	}
	// Same salt must reproduce the same derived plan (per-peer plans are
	// rebuilt on rejoin and must match the pre-crash pattern).
	if again := p.reseed(1); again.Seed != a.Seed {
		t.Fatalf("reseed(1) not deterministic: %d vs %d", a.Seed, again.Seed)
	}
	sameAB, sameAP := 0, 0
	for i := uint64(0); i < 1000; i++ {
		da, _, _, _ := a.FateOf(i)
		db, _, _, _ := b.FateOf(i)
		dp, _, _, _ := p.FateOf(i)
		if da == db {
			sameAB++
		}
		if da == dp {
			sameAP++
		}
	}
	if sameAB > 650 || sameAP > 650 {
		t.Errorf("reseeded plans track the template (%d/%d of 1000 agree) — peers would lose frames in lockstep", sameAB, sameAP)
	}
}

// TestTransportPlanForLaneDecorrelates pins the one salt convention for
// per-lane plans: two processors' inbound lanes, and one processor's
// inbound and outbound directions, must each drop different message
// indices, and a lane's plan must be the same every time it is derived
// (an agent that rejoins keeps its pre-crash pattern).
func TestTransportPlanForLaneDecorrelates(t *testing.T) {
	p := TransportPlan{DropProb: 0.5, Seed: 42}
	if p.ForLane(1, true) != p.ForLane(1, true) {
		t.Fatal("ForLane is not deterministic")
	}
	in0, in1, out0 := p.ForLane(0, true), p.ForLane(1, true), p.ForLane(0, false)
	if in0.Seed == in1.Seed || in0.Seed == out0.Seed || in1.Seed == out0.Seed {
		t.Fatalf("lane seeds collide: P1 in %d, P2 in %d, P1 out %d", in0.Seed, in1.Seed, out0.Seed)
	}
	differ := func(a, b TransportPlan) int {
		n := 0
		for i := uint64(0); i < 1000; i++ {
			da, _, _, _ := a.FateOf(i)
			db, _, _, _ := b.FateOf(i)
			if da != db {
				n++
			}
		}
		return n
	}
	if d := differ(in0, in1); d < 350 {
		t.Errorf("P1 and P2 inbound plans disagree on %d of 1000 drops — peers lose reports in lockstep", d)
	}
	if d := differ(in0, out0); d < 350 {
		t.Errorf("P1's inbound and outbound plans disagree on %d of 1000 drops — a lost report also loses its rates", d)
	}
}

func TestParseTransportPlan(t *testing.T) {
	p, err := ParseTransportPlan("drop=0.05,delayprob=0.3,delay=20ms,dup=0.01,reorder=0.02,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := TransportPlan{DropProb: 0.05, DelayProb: 0.3, Delay: 20 * time.Millisecond, DupProb: 0.01, ReorderProb: 0.02, Seed: 7}
	if p != want {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	if p, err := ParseTransportPlan("  "); err != nil || !p.Zero() {
		t.Fatalf("blank spec = %+v, %v; want zero plan", p, err)
	}
	for _, bad := range []string{"drop", "drop=1.5", "loss=0.1", "delay=fast", "seed=x", "drop=-0.1"} {
		if _, err := ParseTransportPlan(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

func TestTransportPlanZeroIsTransparent(t *testing.T) {
	var p TransportPlan
	for i := uint64(0); i < 100; i++ {
		if drop, delay, _, _ := p.FateOf(i); drop || delay != 0 {
			t.Fatalf("zero plan perturbed message %d", i)
		}
	}
	always := TransportPlan{DropProb: 1, Seed: 9}
	for i := uint64(0); i < 100; i++ {
		if drop, _, _, _ := always.FateOf(i); !drop {
			t.Fatalf("DropProb 1 passed message %d", i)
		}
	}
}
