package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// TransportPlan is a deterministic, stateless transport fault plan for the
// feedback lanes: the fate of message n is a pure hash of (Seed, n), so the
// loss pattern is reproducible regardless of goroutine scheduling or how
// many times the plan is consulted. It satisfies the lane package's Plan
// interface.
type TransportPlan struct {
	// DropProb is the probability a message is discarded before reaching
	// the wire.
	DropProb float64
	// DelayProb is the probability a non-dropped message is held for
	// Delay before sending.
	DelayProb float64
	// Delay is the injected transmission delay.
	Delay time.Duration
	// DupProb is the probability a delivered message is sent twice
	// back-to-back (the protocol's frames carry absolute state, so a
	// duplicate must be harmless — that is exactly what this fault
	// proves).
	DupProb float64
	// ReorderProb is the probability a delivered message is held back and
	// put on the wire after the next send on the same lane.
	ReorderProb float64
	// Seed selects the loss pattern; identical seeds reproduce identical
	// patterns.
	Seed int64
}

// FateOf returns the complete fate of send number n (0-based): drop wins
// over everything; a delivered message may additionally be delayed,
// duplicated, or reordered behind the next send.
func (p TransportPlan) FateOf(n uint64) (drop bool, delay time.Duration, duplicate, reorder bool) {
	if p.DropProb > 0 && unit(p.Seed, n, 0xd1342543de82ef95) < p.DropProb {
		return true, 0, false, false
	}
	if p.DelayProb > 0 && p.Delay > 0 && unit(p.Seed, n, 0xaf251af3b0f025b5) < p.DelayProb {
		delay = p.Delay
	}
	if p.DupProb > 0 && unit(p.Seed, n, 0x2545f4914f6cdd1d) < p.DupProb {
		duplicate = true
	}
	if p.ReorderProb > 0 && unit(p.Seed, n, 0x9fb21c651e98df25) < p.ReorderProb {
		reorder = true
	}
	return false, delay, duplicate, reorder
}

// ForLane derives the plan for one direction of processor proc's lane
// from the template p: inbound carries the agent's reports, outbound the
// server's rates. Each (processor, direction) pair reseeds with its own
// salt — 2·proc inbound, 2·proc+1 outbound — because per-peer and
// per-direction plans must not drop the same message indices in lockstep,
// or "5% loss" becomes "5% of periods lose every frame in the fleet at
// once". The same lane always gets the same plan.
func (p TransportPlan) ForLane(proc int, inbound bool) TransportPlan {
	salt := int64(2*proc + 1)
	if inbound {
		salt = int64(2 * proc)
	}
	return p.reseed(salt)
}

// reseed returns a copy of the plan whose pattern is decorrelated from the
// original by salt.
func (p TransportPlan) reseed(salt int64) TransportPlan {
	z := uint64(p.Seed) ^ (uint64(salt)+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	p.Seed = int64(z)
	return p
}

// Zero reports whether the plan injects nothing (every field at its zero
// value except possibly the seed).
func (p TransportPlan) Zero() bool {
	return p.DropProb <= 0 && (p.DelayProb <= 0 || p.Delay <= 0) && p.DupProb <= 0 && p.ReorderProb <= 0
}

// ParseTransportPlan parses the compact comma-separated spec the command
// lines share, e.g.
//
//	drop=0.05,delayprob=0.3,delay=20ms,dup=0.01,reorder=0.01,seed=7
//
// Unknown keys are errors; omitted keys stay zero. An empty spec is the
// zero (fault-free) plan.
func ParseTransportPlan(spec string) (TransportPlan, error) {
	var p TransportPlan
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return p, fmt.Errorf("fault: transport spec field %q is not key=value", field)
		}
		var err error
		switch key {
		case "drop":
			p.DropProb, err = parseProb(val)
		case "delayprob":
			p.DelayProb, err = parseProb(val)
		case "delay":
			p.Delay, err = time.ParseDuration(val)
		case "dup":
			p.DupProb, err = parseProb(val)
		case "reorder":
			p.ReorderProb, err = parseProb(val)
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			return p, fmt.Errorf("fault: unknown transport spec key %q (want drop, delayprob, delay, dup, reorder, or seed)", key)
		}
		if err != nil {
			return p, fmt.Errorf("fault: transport spec %s=%q: %w", key, val, err)
		}
	}
	return p, nil
}

// parseProb parses a probability in [0, 1].
func parseProb(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if v < 0 || v > 1 {
		return 0, fmt.Errorf("probability %g outside [0, 1]", v)
	}
	return v, nil
}

// unit hashes (seed, n, salt) through a splitmix64-style finalizer to a
// uniform float64 in [0, 1).
func unit(seed int64, n, salt uint64) float64 {
	z := uint64(seed) + n*0x9e3779b97f4a7c15 + salt
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
