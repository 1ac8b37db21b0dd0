package lane

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// pipePair returns two framed connections linked by an in-memory pipe.
func pipePair(opts ...ConnOption) (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a, opts...), NewConn(b, opts...)
}

func sample(proc, period int, u float64) *Message {
	return &Message{
		Type:  TypeUtilizationBatch,
		Batch: UtilizationBatch{Processor: proc, First: period, Samples: []float64{u}},
	}
}

func TestRoundTrip(t *testing.T) {
	for _, codec := range []Codec{Binary, JSONv0} {
		t.Run(codec.Name(), func(t *testing.T) {
			a, b := pipePair(WithConnCodec(codec))
			defer func() { _ = a.Close(); _ = b.Close() }()
			want := sample(3, 17, 0.725)
			done := make(chan error, 1)
			go func() { done <- a.Send(want, time.Second) }()
			got, err := receive(b, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if got.Type != want.Type || got.Batch.Processor != 3 || got.Batch.First != 17 ||
				len(got.Batch.Samples) != 1 || got.Batch.Samples[0] != 0.725 {
				t.Fatalf("got %+v, want %+v", got, want)
			}
		})
	}
}

func TestRoundTripRates(t *testing.T) {
	a, b := pipePair()
	defer func() { _ = a.Close(); _ = b.Close() }()
	want := &Message{Type: TypeRates, Rates: Rates{Period: 4, Values: []float64{0.01, 0.02, 0.005}}}
	go func() { _ = a.Send(want, time.Second) }()
	got, err := receive(b, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rates.Values) != 3 || got.Rates.Values[1] != 0.02 || got.Rates.Tasks != nil {
		t.Fatalf("rates = %+v", got.Rates)
	}
}

func TestMultipleMessagesInOrder(t *testing.T) {
	a, b := pipePair()
	defer func() { _ = a.Close(); _ = b.Close() }()
	const n = 20
	go func() {
		for i := 0; i < n; i++ {
			_ = a.Send(sample(0, i, 0.5), time.Second)
		}
	}()
	m := new(Message)
	for i := 0; i < n; i++ {
		if err := b.ReceiveInto(m, time.Second); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if m.Batch.First != i {
			t.Fatalf("message %d has period %d", i, m.Batch.First)
		}
	}
}

func TestConcurrentWritersDoNotInterleave(t *testing.T) {
	a, b := pipePair()
	defer func() { _ = a.Close(); _ = b.Close() }()
	const perWriter = 25
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := a.Send(sample(w, i, 0.5), time.Second); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}()
	}
	seen := 0
	for seen < 4*perWriter {
		m, err := receive(b, time.Second)
		if err != nil {
			t.Fatalf("after %d messages: %v", seen, err)
		}
		if m.Type != TypeUtilizationBatch {
			t.Fatalf("corrupt frame: %+v", m)
		}
		seen++
	}
	wg.Wait()
}

func TestReceiveTimeout(t *testing.T) {
	a, b := pipePair()
	defer func() { _ = a.Close(); _ = b.Close() }()
	_, err := receive(b, 20*time.Millisecond)
	if err == nil {
		t.Fatal("Receive with no sender returned nil error")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want net timeout", err)
	}
}

func TestOversizeFrameRejectedOnReceive(t *testing.T) {
	a, b := net.Pipe()
	defer func() { _ = a.Close(); _ = b.Close() }()
	conn := NewConn(b)
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
		_, _ = a.Write(hdr[:])
	}()
	_, err := receive(conn, time.Second)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestOversizeFrameRejectedOnSend(t *testing.T) {
	a, b := pipePair()
	defer func() { _ = a.Close(); _ = b.Close() }()
	big := &Message{Type: TypeUtilizationBatch, Batch: UtilizationBatch{
		Samples: make([]float64, MaxFrameSize/8+1),
	}}
	err := a.Send(big, time.Second)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := DialContext(context.Background(), "127.0.0.1:1", 100*time.Millisecond); err == nil {
		t.Fatal("DialContext to closed port succeeded")
	}
}

func TestDialAndServe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	done := make(chan *Message, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			done <- nil
			return
		}
		m, err := receive(NewConn(nc), time.Second)
		if err != nil {
			done <- nil
			return
		}
		done <- m
	}()
	c, err := DialContext(context.Background(), ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	hello := &Message{Type: TypeHello, Hello: Hello{Processor: 1, Node: "n1"}}
	if err := c.Send(hello, time.Second); err != nil {
		t.Fatal(err)
	}
	m := <-done
	if m == nil || m.Type != TypeHello || m.Hello.Node != "n1" {
		t.Fatalf("server got %+v", m)
	}
}

func TestReceiveAfterPeerClose(t *testing.T) {
	a, b := pipePair()
	_ = a.Close()
	if _, err := receive(b, time.Second); err == nil {
		t.Fatal("Receive after peer close returned nil error")
	}
	_ = b.Close()
}

// replayConn is a net.Conn whose reads cycle through one encoded frame
// forever, so ReceiveInto can be measured without a peer goroutine.
type replayConn struct {
	net.Conn // nil: only Read and SetReadDeadline are called
	frame    []byte
	off      int
}

func (r *replayConn) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

func (r *replayConn) SetReadDeadline(time.Time) error { return nil }

// TestReceiveIntoSteadyStateZeroAlloc: receiving batch and rates frames
// into a reused Message allocates nothing once the body buffer has grown,
// the length prefix included.
func TestReceiveIntoSteadyStateZeroAlloc(t *testing.T) {
	for _, codec := range []Codec{Binary, BinaryV2} {
		for _, src := range []*Message{
			sample(2, 100, 0.5),
			{Type: TypeRates, Rates: Rates{Period: 100, Tasks: []int32{1, 3, 5}, Values: []float64{0.1, 0.2, 0.3}}},
		} {
			frame, err := codec.AppendEncode([]byte{0, 0, 0, 0}, src)
			if err != nil {
				t.Fatal(err)
			}
			binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
			conn := NewConn(&replayConn{frame: frame}, WithConnCodec(codec))
			var m Message
			if err := conn.ReceiveInto(&m, time.Second); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := conn.ReceiveInto(&m, time.Second); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s %s: %v allocs per receive, want 0", codec.Name(), src.Type, allocs)
			}
		}
	}
}

// receive reads one message into a fresh Message.
func receive(c *Conn, deadline time.Duration) (*Message, error) {
	m := new(Message)
	if err := c.ReceiveInto(m, deadline); err != nil {
		return nil, err
	}
	return m, nil
}
