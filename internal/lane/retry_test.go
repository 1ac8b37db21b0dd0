package lane

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// flakySender fails its first n sends, then succeeds.
type flakySender struct {
	failures int
	calls    int
}

func (f *flakySender) Send(*Message, time.Duration) error {
	f.calls++
	if f.calls <= f.failures {
		return errors.New("transient")
	}
	return nil
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{Attempts: 5, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	for attempt, want := range []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond,
	} {
		if got := p.Backoff(attempt); got != want {
			t.Errorf("Backoff(%d) = %v, want %v", attempt, got, want)
		}
	}
	// Zero value selects the defaults.
	var zero RetryPolicy
	if got := zero.Backoff(0); got != 10*time.Millisecond {
		t.Errorf("default Backoff(0) = %v, want 10ms", got)
	}
	if got := zero.Backoff(20); got != 500*time.Millisecond {
		t.Errorf("default Backoff(20) = %v, want capped 500ms", got)
	}
}

func TestSendRetryRecoversTransientFailure(t *testing.T) {
	s := &flakySender{failures: 2}
	policy := RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	if err := SendRetry(context.Background(), s, &Message{Type: TypeUtilizationBatch}, time.Second, policy); err != nil {
		t.Fatalf("SendRetry = %v, want success on third attempt", err)
	}
	if s.calls != 3 {
		t.Errorf("sender called %d times, want 3", s.calls)
	}
}

func TestSendRetryExhaustsAttempts(t *testing.T) {
	s := &flakySender{failures: 10}
	policy := RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	err := SendRetry(context.Background(), s, &Message{Type: TypeUtilizationBatch}, time.Second, policy)
	if err == nil {
		t.Fatal("SendRetry succeeded, want exhaustion")
	}
	if s.calls != 3 {
		t.Errorf("sender called %d times, want 3", s.calls)
	}
}

func TestSendRetryCanceledBeforeFirstAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &flakySender{failures: 10}
	policy := RetryPolicy{Attempts: 3, BaseDelay: time.Hour, MaxDelay: time.Hour}
	err := SendRetry(ctx, s, &Message{Type: TypeUtilizationBatch}, time.Second, policy)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.calls != 0 {
		t.Errorf("sender called %d times, want 0 (an already-canceled context sends nothing)", s.calls)
	}
}

func TestSendRetryCanceledDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	s := &flakySender{failures: 10}
	policy := RetryPolicy{Attempts: 3, BaseDelay: time.Hour, MaxDelay: time.Hour}
	start := time.Now()
	err := SendRetry(ctx, s, &Message{Type: TypeUtilizationBatch}, time.Second, policy)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if s.calls != 1 {
		t.Errorf("sender called %d times, want 1 (cancel hits during the first backoff)", s.calls)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("SendRetry took %v, want prompt return without waiting out the backoff", elapsed)
	}
}

// cancelingSender cancels the context from inside Send, simulating
// cancellation arriving while an attempt is in flight on the wire.
type cancelingSender struct {
	cancel context.CancelFunc
	calls  int
}

func (c *cancelingSender) Send(*Message, time.Duration) error {
	c.calls++
	c.cancel()
	return errors.New("transient")
}

func TestSendRetryCanceledMidSendStopsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &cancelingSender{cancel: cancel}
	policy := RetryPolicy{Attempts: 5, BaseDelay: time.Hour, MaxDelay: time.Hour}
	start := time.Now()
	err := SendRetry(ctx, s, &Message{Type: TypeUtilizationBatch}, time.Second, policy)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.calls != 1 {
		t.Errorf("sender called %d times, want 1 (no retry after mid-send cancellation)", s.calls)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("SendRetry took %v, want prompt return instead of entering backoff", elapsed)
	}
}

func TestJitteredBackoffDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{Attempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 7}
	for attempt := 0; attempt < 4; attempt++ {
		d := p.Backoff(attempt)
		j1 := p.JitteredBackoff(attempt)
		j2 := p.JitteredBackoff(attempt)
		if j1 != j2 {
			t.Fatalf("JitteredBackoff(%d) not deterministic: %v vs %v", attempt, j1, j2)
		}
		if j1 > d || j1 < d/2 {
			t.Errorf("JitteredBackoff(%d) = %v outside [%v, %v] (jitter 0.5 of %v)", attempt, j1, d/2, d, d)
		}
	}
	// Negative jitter disables: exact exponential schedule.
	exact := p
	exact.Jitter = -1
	for attempt := 0; attempt < 4; attempt++ {
		if got, want := exact.JitteredBackoff(attempt), exact.Backoff(attempt); got != want {
			t.Errorf("jitter-disabled backoff(%d) = %v, want %v", attempt, got, want)
		}
	}
}

// TestRejoinStormBackoffDesynchronized is the S-regression for a healed
// partition: 64 agents whose first resend fires in the same period must
// not sleep identical backoffs (a thundering herd re-synchronized by the
// very retry meant to spread it). Distinct seeds — the agent options
// derive them from each agent's processor seed — must fan the herd across
// the jitter window.
func TestRejoinStormBackoffDesynchronized(t *testing.T) {
	const agents = 64
	base := RetryPolicy{Attempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	seen := make(map[time.Duration]int, agents)
	var lo, hi time.Duration = time.Hour, 0
	for p := 0; p < agents; p++ {
		policy := base
		policy.Seed = int64(p + 1)
		d := policy.JitteredBackoff(0)
		seen[d]++
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if len(seen) < agents-4 {
		t.Errorf("64 seeded agents produced only %d distinct first backoffs — the storm stays synchronized", len(seen))
	}
	// The herd must actually use the window, not cluster at one edge.
	if spread := hi - lo; spread < base.Backoff(0)/4 {
		t.Errorf("backoff spread %v over a %v window — jitter is not dispersing the herd", spread, base.Backoff(0)/2)
	}
	// The regression this guards against: identical seeds collapse the
	// herd back onto one instant.
	same := base
	same.Seed = 1
	if a, b := same.JitteredBackoff(0), same.JitteredBackoff(0); a != b {
		t.Fatalf("same-seed backoffs differ: %v vs %v", a, b)
	}
}

// fullFate is a Plan scripting the duplicate and reorder fate of each
// message index.
type fullFate map[uint64]struct{ dup, reorder bool }

func (f fullFate) FateOf(n uint64) (bool, time.Duration, bool, bool) {
	e := f[n]
	return false, 0, e.dup, e.reorder
}

func TestFaultConnDuplicateDeliversTwice(t *testing.T) {
	client, server := net.Pipe()
	defer func() { _ = client.Close() }()
	defer func() { _ = server.Close() }()
	fc := NewFaultConn(NewConn(client), fullFate{0: {dup: true}})
	peer := NewConn(server)

	got := make(chan *Message, 2)
	go func() {
		for i := 0; i < 2; i++ {
			m, err := receive(peer, time.Second)
			if err != nil {
				t.Errorf("peer receive %d: %v", i, err)
				return
			}
			got <- m
		}
	}()
	if err := fc.Send(sample(0, 3, 0.5), time.Second); err != nil {
		t.Fatalf("duplicated send: %v", err)
	}
	a, b := <-got, <-got
	if a.Batch.First != 3 || b.Batch.First != 3 {
		t.Fatalf("duplicate pair = periods %d, %d; want 3, 3", a.Batch.First, b.Batch.First)
	}
}

func TestFaultConnReorderSwapsAdjacentFrames(t *testing.T) {
	client, server := net.Pipe()
	defer func() { _ = client.Close() }()
	defer func() { _ = server.Close() }()
	fc := NewFaultConn(NewConn(client), fullFate{0: {reorder: true}})
	peer := NewConn(server)

	got := make(chan *Message, 2)
	go func() {
		for i := 0; i < 2; i++ {
			m, err := receive(peer, time.Second)
			if err != nil {
				t.Errorf("peer receive %d: %v", i, err)
				return
			}
			got <- m
		}
	}()
	// Message 0 is held; message 1 goes out first, then 0 lands late.
	if err := fc.Send(sample(0, 0, 0.5), time.Second); err != nil {
		t.Fatalf("held send: %v", err)
	}
	if err := fc.Send(sample(0, 1, 0.6), time.Second); err != nil {
		t.Fatalf("displacing send: %v", err)
	}
	a, b := <-got, <-got
	if a.Batch.First != 1 || b.Batch.First != 0 {
		t.Fatalf("reordered pair arrived as periods %d, %d; want 1, 0", a.Batch.First, b.Batch.First)
	}
}

// dropNth drops exactly one message index, passing everything else through.
type dropNth uint64

func (d dropNth) FateOf(n uint64) (bool, time.Duration, bool, bool) {
	return n == uint64(d), 0, false, false
}

func TestFaultConnDropAndPassThrough(t *testing.T) {
	client, server := net.Pipe()
	defer func() { _ = client.Close() }()
	defer func() { _ = server.Close() }()
	fc := NewFaultConn(NewConn(client), dropNth(0))
	peer := NewConn(server)

	// Message 0 is dropped before reaching the wire: no reader needed,
	// and the error unwraps to ErrInjectedDrop.
	err := fc.Send(sample(0, 0, 0.5), time.Second)
	if !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("dropped send err = %v, want ErrInjectedDrop", err)
	}

	// Message 1 passes through intact.
	got := make(chan *Message, 1)
	go func() {
		m, err := receive(peer, time.Second)
		if err != nil {
			t.Errorf("peer receive: %v", err)
		}
		got <- m
	}()
	if err := fc.Send(sample(0, 1, 0.5), time.Second); err != nil {
		t.Fatalf("pass-through send: %v", err)
	}
	m := <-got
	if m == nil || m.Batch.First != 1 || m.Batch.Samples[0] != 0.5 {
		t.Fatalf("peer got %+v, want period 1 utilization 0.5", m)
	}
	if fc.Sent() != 2 {
		t.Errorf("Sent() = %d, want 2", fc.Sent())
	}
}

func TestSendRetryRecoversInjectedDrop(t *testing.T) {
	client, server := net.Pipe()
	defer func() { _ = client.Close() }()
	defer func() { _ = server.Close() }()
	fc := NewFaultConn(NewConn(client), dropNth(0))
	peer := NewConn(server)

	got := make(chan *Message, 1)
	go func() {
		m, err := receive(peer, time.Second)
		if err != nil {
			t.Errorf("peer receive: %v", err)
		}
		got <- m
	}()
	policy := RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	if err := SendRetry(context.Background(), fc, sample(0, 7, 0.5), time.Second, policy); err != nil {
		t.Fatalf("SendRetry over FaultConn = %v, want recovery on second attempt", err)
	}
	if m := <-got; m.Batch.First != 7 {
		t.Fatalf("peer got period %d, want 7", m.Batch.First)
	}
}
