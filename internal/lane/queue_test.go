package lane

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// collector is a SendFunc capturing deep copies of sent frames, with an
// optional gate that stalls the writer to simulate a slow peer.
type collector struct {
	mu   sync.Mutex
	sent []Message
	gate chan struct{} // when non-nil, each send blocks until a token arrives
}

func (c *collector) send(ctx context.Context, m *Message) error {
	if c.gate != nil {
		select {
		case <-c.gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	cp := *m
	cp.Batch.Samples = append([]float64(nil), m.Batch.Samples...)
	cp.Rates.Tasks = append([]int32(nil), m.Rates.Tasks...)
	cp.Rates.Values = append([]float64(nil), m.Rates.Values...)
	c.mu.Lock()
	c.sent = append(c.sent, cp)
	c.mu.Unlock()
	return nil
}

func (c *collector) snapshot() []Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Message(nil), c.sent...)
}

func waitDone(t *testing.T, q *SendQueue) {
	t.Helper()
	select {
	case <-q.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("queue writer did not exit")
	}
}

func TestQueueFlushOnClose(t *testing.T) {
	col := &collector{}
	q := NewSendQueue(col.send, 8)
	q.Start(context.Background())
	if err := q.EnqueueShutdown("first"); err != nil {
		t.Fatal(err)
	}
	if err := q.EnqueueSample(3, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := q.EnqueueShutdown("test over"); err != nil {
		t.Fatal(err)
	}
	q.Close()
	waitDone(t, q)
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	sent := col.snapshot()
	if len(sent) != 3 || sent[0].Type != TypeShutdown || sent[1].Type != TypeUtilizationBatch || sent[2].Type != TypeShutdown {
		t.Fatalf("sent = %+v", sent)
	}
	if err := q.EnqueueSample(3, 1, 0.5); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("enqueue after close = %v, want ErrQueueClosed", err)
	}
}

func TestQueueCoalescesContiguousSamples(t *testing.T) {
	col := &collector{gate: make(chan struct{})}
	q := NewSendQueue(col.send, 16)
	q.Start(context.Background())
	// Writer is stalled on the gate, so every sample lands in the queue
	// and contiguous ones must merge into one batch frame.
	for k := 0; k < 5; k++ {
		if err := q.EnqueueSample(2, k, float64(k)/10); err != nil {
			t.Fatal(err)
		}
	}
	// Non-contiguous period starts a new frame.
	if err := q.EnqueueSample(2, 9, 0.9); err != nil {
		t.Fatal(err)
	}
	close(col.gate)
	q.Close()
	waitDone(t, q)
	sent := col.snapshot()
	if len(sent) != 2 {
		t.Fatalf("got %d frames, want 2: %+v", len(sent), sent)
	}
	b := sent[0].Batch
	if b.First != 0 || len(b.Samples) != 5 || b.Samples[4] != 0.4 {
		t.Fatalf("coalesced batch = %+v", b)
	}
	if sent[1].Batch.First != 9 || len(sent[1].Batch.Samples) != 1 {
		t.Fatalf("second batch = %+v", sent[1].Batch)
	}
	if st := q.Stats(); st.Coalesced != 4 || st.Sent != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueShedsOldestReportsUnderBackpressure(t *testing.T) {
	col := &collector{gate: make(chan struct{})}
	q := NewSendQueue(col.send, 3)
	q.Start(context.Background())
	// Fill the stalled queue with batches from distinct processors so
	// nothing coalesces: 0, 1, 2, then overflow with 3 and 4.
	for p := 0; p < 5; p++ {
		if err := q.EnqueueSample(p, 100, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	close(col.gate)
	q.Close()
	waitDone(t, q)
	sent := col.snapshot()
	if len(sent) != 3 {
		t.Fatalf("got %d frames, want 3 (depth)", len(sent))
	}
	// Drop-oldest: processors 0 and 1 were shed, 2..4 survived.
	for i, wantProc := range []int{2, 3, 4} {
		if sent[i].Batch.Processor != wantProc {
			t.Fatalf("frame %d from processor %d, want %d", i, sent[i].Batch.Processor, wantProc)
		}
	}
	if st := q.Stats(); st.DroppedSamples != 2 {
		t.Fatalf("DroppedSamples = %d, want 2", st.DroppedSamples)
	}
}

func TestQueueNeverDropsRates(t *testing.T) {
	col := &collector{gate: make(chan struct{})}
	q := NewSendQueue(col.send, 2)
	q.Start(context.Background())
	all := []float64{0.1, 0.2, 0.3, 0.4}
	// A queued rates frame plus a full load of samples: new rate commands
	// must supersede in place, and sheds must never touch the rates frame.
	if err := q.EnqueueRates(1, nil, all); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if err := q.EnqueueSample(p, 50, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.EnqueueRates(2, []int32{1, 3}, all); err != nil {
		t.Fatal(err)
	}
	close(col.gate)
	q.Close()
	waitDone(t, q)
	var rates []Message
	for _, m := range col.snapshot() {
		if m.Type == TypeRates {
			rates = append(rates, m)
		}
	}
	if len(rates) != 1 {
		t.Fatalf("got %d rates frames, want exactly 1 (superseded in place)", len(rates))
	}
	r := rates[0].Rates
	if r.Period != 2 || len(r.Tasks) != 2 || r.Values[0] != 0.2 || r.Values[1] != 0.4 {
		t.Fatalf("final rates = %+v, want period 2 sparse {1:0.2, 3:0.4}", r)
	}
	if st := q.Stats(); st.SupersededRates != 1 {
		t.Fatalf("SupersededRates = %d, want 1", st.SupersededRates)
	}
}

func TestQueueRatesGrowPastBoundWhenNothingSheddable(t *testing.T) {
	col := &collector{gate: make(chan struct{})}
	q := NewSendQueue(col.send, 2)
	q.Start(context.Background())
	// Stall the writer and enqueue distinct one-off control frames past
	// the bound: none may be lost.
	if err := q.EnqueueShutdown("a"); err != nil {
		t.Fatal(err)
	}
	if err := q.EnqueueShutdown("b"); err != nil {
		t.Fatal(err)
	}
	if err := q.EnqueueShutdown("c"); err != nil {
		t.Fatal(err)
	}
	close(col.gate)
	q.Close()
	waitDone(t, q)
	if sent := col.snapshot(); len(sent) != 3 {
		t.Fatalf("got %d control frames, want all 3", len(sent))
	}
}

func TestQueueEnqueueNeverBlocks(t *testing.T) {
	col := &collector{gate: make(chan struct{})} // writer permanently stalled
	q := NewSendQueue(col.send, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q.Start(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 10000; k++ {
			_ = q.EnqueueSample(k%7, k, 0.5)
			_ = q.EnqueueRates(k, nil, []float64{0.1})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("enqueues blocked behind a stalled writer")
	}
	cancel()
	waitDone(t, q)
	if err := q.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
}

func TestQueueSendErrorKillsQueue(t *testing.T) {
	boom := errors.New("wire snapped")
	q := NewSendQueue(func(ctx context.Context, m *Message) error { return boom }, 4)
	q.Start(context.Background())
	if err := q.EnqueueShutdown("x"); err != nil {
		t.Fatal(err)
	}
	waitDone(t, q)
	if err := q.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err = %v, want the send error", err)
	}
	if err := q.EnqueueShutdown("y"); !errors.Is(err, boom) {
		t.Fatalf("enqueue after failure = %v, want the send error", err)
	}
}
