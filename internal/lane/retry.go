package lane

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrInjectedDrop marks a send discarded by a transport fault plan rather
// than by the network. Callers distinguish it from real lane failures: a
// lost report can be degraded around (the controller server substitutes a missing
// sample), while a broken connection cannot.
var ErrInjectedDrop = errors.New("lane: injected transport drop")

// Sender is the sending half of a lane, shared by Conn and FaultConn so
// retry and fault injection compose with plain connections.
type Sender interface {
	Send(m *Message, deadline time.Duration) error
}

// DefaultRetryJitter is the backoff jitter fraction selected by the zero
// RetryPolicy: each backoff is shortened by up to half, deterministically
// per (Seed, attempt).
const DefaultRetryJitter = 0.5

// RetryPolicy governs resends of lane messages: up to Attempts tries with
// capped exponential backoff between them, each backoff shortened by a
// deterministic seeded jitter so peers retrying in unison (a rejoin storm
// after a healed partition) spread out instead of thundering-herding the
// server. The zero value selects the defaults (3 attempts, 10ms base,
// 500ms cap, jitter 0.5).
type RetryPolicy struct {
	// Attempts is the total number of tries, including the first.
	Attempts int
	// BaseDelay is the backoff before the second try; each further try
	// doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff.
	MaxDelay time.Duration
	// Jitter is the fraction of each backoff subject to jitter: a backoff
	// of d sleeps a deterministic duration in [(1−Jitter)·d, d]. Zero
	// selects DefaultRetryJitter; negative disables jitter (the exact
	// exponential schedule).
	Jitter float64
	// Seed selects the jitter pattern. Peers must use distinct seeds —
	// identical seeds draw identical jitter, which is exactly the
	// synchronization jitter exists to break. The agent options default it
	// from the per-agent noise seed.
	Seed int64
}

// withDefaults fills zero fields with the package defaults.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 500 * time.Millisecond
	}
	if p.Jitter == 0 { //eucon:float-exact the literal zero value selects the default; any set value passes through
		p.Jitter = DefaultRetryJitter
	} else if p.Jitter < 0 {
		p.Jitter = 0
	} else if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Backoff returns the unjittered delay before retry number attempt
// (attempt 0 is the delay after the first failure): BaseDelay·2^attempt,
// capped at MaxDelay.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	p = p.withDefaults()
	d := p.BaseDelay
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= p.MaxDelay {
			return p.MaxDelay
		}
	}
	if d > p.MaxDelay {
		return p.MaxDelay
	}
	return d
}

// JitteredBackoff returns the delay SendRetry actually sleeps before retry
// number attempt: Backoff(attempt) shortened by the deterministic jitter
// drawn from (Seed, attempt). Pure — identical inputs give identical
// delays, so a retry schedule replays exactly.
func (p RetryPolicy) JitteredBackoff(attempt int) time.Duration {
	d := p.Backoff(attempt)
	j := p.withDefaults().Jitter
	if j <= 0 || d <= 0 {
		return d
	}
	return d - time.Duration(j*jitterUnit(p.Seed, uint64(attempt))*float64(d))
}

// jitterUnit hashes (seed, n) through a splitmix64-style finalizer to a
// uniform float64 in [0, 1). Same construction as fault.TransportPlan's
// hash; duplicated here so lane keeps zero module-internal imports.
func jitterUnit(seed int64, n uint64) float64 {
	z := uint64(seed) + (n+1)*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// SendRetry sends m through s, retrying failed attempts under the policy
// with capped, jittered exponential backoff. It returns nil on the first
// success, the last send error (wrapped with the attempt count) when every
// try fails, and the context error when canceled mid-backoff.
func SendRetry(ctx context.Context, s Sender, m *Message, deadline time.Duration, policy RetryPolicy) error {
	policy = policy.withDefaults()
	var last error
	for attempt := 0; attempt < policy.Attempts; attempt++ {
		// A context canceled while the previous Send was in flight (not in
		// backoff) must still stop the loop before another network attempt.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("lane: send %s canceled: %w", m.Type, err)
		}
		if attempt > 0 {
			t := time.NewTimer(policy.JitteredBackoff(attempt - 1))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return fmt.Errorf("lane: send %s canceled during backoff: %w", m.Type, ctx.Err())
			}
		}
		if last = s.Send(m, deadline); last == nil {
			return nil
		}
	}
	return fmt.Errorf("lane: send %s failed after %d attempts: %w", m.Type, policy.Attempts, last)
}

// Plan decides the fate of each message crossing a faulty transport. The
// message index n counts sends on one FaultConn, so a stateless Plan (e.g.
// fault.TransportPlan) yields reproducible loss patterns. The method
// returns builtin types only, so fault.TransportPlan satisfies it
// structurally without an import edge into this package.
type Plan interface {
	// FateOf returns the fate of send number n (0-based): drop discards
	// the message with ErrInjectedDrop and wins over everything; a
	// delivered message may additionally be delayed, sent twice
	// (duplicate), or held back behind the next send on the lane
	// (reorder).
	FateOf(n uint64) (drop bool, delay time.Duration, duplicate, reorder bool)
}

// FaultConn wraps a Conn with a transport fault plan: each Send consults
// the plan and may be dropped, delayed, duplicated, or reordered before
// reaching the wire. Receive and Close pass through. It composes with
// SendRetry — a retried send consumes a fresh message index, so a drop can
// be recovered on the next attempt.
//
// A reordered message is held (as a private deep copy, since callers reuse
// message buffers) and written after the next delivered send; a held
// message with no successor by the time the lane closes is simply lost,
// which is within the adversary's license.
type FaultConn struct {
	*Conn
	plan Plan

	mu   sync.Mutex
	n    uint64
	held *Message // reordered frame awaiting its successor
}

var _ Sender = (*FaultConn)(nil)

// NewFaultConn wraps c with plan.
func NewFaultConn(c *Conn, plan Plan) *FaultConn {
	return &FaultConn{Conn: c, plan: plan}
}

// Sent reports how many sends have been attempted (dropped or not).
func (f *FaultConn) Sent() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Send implements Sender, applying the plan's fate for this message index
// before delegating to the underlying Conn.
func (f *FaultConn) Send(m *Message, deadline time.Duration) error {
	f.mu.Lock()
	n := f.n
	f.n++
	f.mu.Unlock()
	drop, delay, dup, reorder := f.plan.FateOf(n)
	if drop {
		return fmt.Errorf("lane: send %s (message %d): %w", m.Type, n, ErrInjectedDrop)
	}
	if delay > 0 {
		// A lane closed during the delay fails the send at once, as a
		// write on the closed socket would: a canceled sender must not sit
		// out the injected delay.
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-f.closed:
			t.Stop()
			return fmt.Errorf("lane: send %s (message %d): %w", m.Type, n, net.ErrClosed)
		}
	}
	if reorder {
		// Hold this frame; the previously held one (if any) must not be
		// starved forever, so it goes out now in its place.
		f.mu.Lock()
		prev := f.held
		f.held = cloneMessage(m)
		f.mu.Unlock()
		if prev != nil {
			return f.Conn.Send(prev, deadline)
		}
		return nil // deferred behind the next send
	}
	if err := f.Conn.Send(m, deadline); err != nil {
		return err
	}
	if dup {
		// A byte-identical duplicate; the receiver must treat frames as
		// idempotent absolute state.
		if err := f.Conn.Send(m, deadline); err != nil {
			return err
		}
	}
	f.mu.Lock()
	prev := f.held
	f.held = nil
	f.mu.Unlock()
	if prev != nil {
		return f.Conn.Send(prev, deadline) // the reordered frame lands late
	}
	return nil
}

// cloneMessage deep-copies m, including the payload slices the caller will
// recycle the moment Send returns.
func cloneMessage(m *Message) *Message {
	c := *m
	c.Batch.Samples = append([]float64(nil), m.Batch.Samples...)
	if m.Rates.Tasks != nil {
		c.Rates.Tasks = append([]int32{}, m.Rates.Tasks...)
	}
	c.Rates.Values = append([]float64(nil), m.Rates.Values...)
	return &c
}
