package lane

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// scriptConn is a net.Conn double that hands out data in scripted
// segments, as a TCP stream may: each Read returns at most what is left of
// the current segment (segs in order, then the rest of data at once), and
// io.EOF once data runs out. It counts its Reads.
type scriptConn struct {
	net.Conn // nil: only Read and SetReadDeadline are called
	data     []byte
	segs     []int
	left     int // bytes still due from the current segment
	reads    int
}

func (s *scriptConn) Read(p []byte) (int, error) {
	s.reads++
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	if s.left == 0 {
		s.left = len(s.data)
		if len(s.segs) > 0 {
			s.left = min(s.segs[0], len(s.data))
			s.segs = s.segs[1:]
		}
	}
	n := copy(p, s.data[:s.left])
	s.data = s.data[n:]
	s.left -= n
	return n, nil
}

func (s *scriptConn) SetReadDeadline(time.Time) error { return nil }

// appendFrame appends m's frame, length prefix included, in codec.
func appendFrame(t testing.TB, dst []byte, codec Codec, m *Message) []byte {
	t.Helper()
	start := len(dst)
	dst, err := codec.AppendEncode(append(dst, 0, 0, 0, 0), m)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// fixtureStream frames every fixture codec can encode, in order, and
// returns the stream with each frame's length.
func fixtureStream(t testing.TB, codec Codec) ([]byte, []int) {
	var stream []byte
	var sizes []int
	for _, m := range messageFixtures() {
		if _, err := codec.AppendEncode(nil, &m); err != nil {
			continue // NaN samples are unrepresentable in JSON
		}
		n := len(stream)
		stream = appendFrame(t, stream, codec, &m)
		sizes = append(sizes, len(stream)-n)
	}
	return stream, sizes
}

// frameOutcome is what reading one frame gave: a decoded message or an
// error.
type frameOutcome struct {
	m   Message
	err error
}

// decodeDirect is the oracle a buffered receive must match: the stream
// split at its length prefixes and each body handed to codec.Decode, up to
// the first framing error or the end of the stream.
func decodeDirect(codec Codec, stream []byte) []frameOutcome {
	var out []frameOutcome
	for {
		if len(stream) == 0 {
			return append(out, frameOutcome{err: io.EOF})
		}
		if len(stream) < 4 {
			return append(out, frameOutcome{err: io.ErrUnexpectedEOF})
		}
		n := binary.BigEndian.Uint32(stream)
		if n > MaxFrameSize {
			return append(out, frameOutcome{err: ErrFrameTooLarge})
		}
		if uint32(len(stream)-4) < n {
			return append(out, frameOutcome{err: io.ErrUnexpectedEOF})
		}
		var o frameOutcome
		o.err = codec.Decode(stream[4:4+n], &o.m)
		out = append(out, o)
		stream = stream[4+n:]
	}
}

// receiveAll reads frames off conn into fresh Messages until the first
// error that is not a malformed body (a bad body ends one frame, not the
// stream).
func receiveAll(conn *Conn) []frameOutcome {
	var out []frameOutcome
	for {
		var o frameOutcome
		o.err = conn.ReceiveInto(&o.m, time.Second)
		out = append(out, o)
		if o.err != nil && !errors.Is(o.err, ErrMalformedFrame) {
			return out
		}
	}
}

// sameOutcomes reports the first difference between got and want: a
// message must equal want's payload, and an error must carry want's
// identity (want's errors are sentinels or the codec's own).
func sameOutcomes(got, want []frameOutcome) error {
	if len(got) != len(want) {
		return fmt.Errorf("read %d outcomes, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		switch {
		case w.err == nil && g.err != nil:
			return fmt.Errorf("frame %d: %v, want %v", i, g.err, w.m.Type)
		case w.err != nil && !errors.Is(g.err, w.err) && (g.err == nil || g.err.Error() != w.err.Error()):
			return fmt.Errorf("frame %d: %v, want %v", i, g.err, w.err)
		case w.err == nil && (g.m.Type != w.m.Type || !equalPayload(canonical(&g.m), canonical(&w.m))):
			return fmt.Errorf("frame %d: %+v, want %+v", i, g.m, w.m)
		}
	}
	return nil
}

// TestReceiveReassemblesSegmentedStream: however the stream is cut into
// Reads — a byte at a time, two or three frames at once, or all of it in
// one — ReceiveInto yields the frames a direct codec.Decode of each body
// gives, then io.EOF.
func TestReceiveReassemblesSegmentedStream(t *testing.T) {
	for _, codec := range []Codec{Binary, BinaryV2, JSONv0} {
		stream, sizes := fixtureStream(t, codec)
		want := decodeDirect(codec, stream)
		perFrames := func(k int) []int {
			var segs []int
			for i := 0; i < len(sizes); i += k {
				n := 0
				for _, s := range sizes[i:min(i+k, len(sizes))] {
					n += s
				}
				segs = append(segs, n)
			}
			return segs
		}
		oneByte := make([]int, len(stream))
		for i := range oneByte {
			oneByte[i] = 1
		}
		for _, tc := range []struct {
			name string
			segs []int
		}{
			{"byte-per-read", oneByte},
			{"two-frames-per-read", perFrames(2)},
			{"three-frames-per-read", perFrames(3)},
			{"one-read", nil},
		} {
			conn := NewConn(&scriptConn{data: stream, segs: tc.segs}, WithConnCodec(codec))
			if err := sameOutcomes(receiveAll(conn), want); err != nil {
				t.Errorf("%s %s: %v", codec.Name(), tc.name, err)
			}
		}
	}
}

// TestReceiveFrameSplitAtEveryOffset cuts a two-frame stream once at every
// offset, so each frame is split at every byte of its header and body.
func TestReceiveFrameSplitAtEveryOffset(t *testing.T) {
	fx := messageFixtures()
	stream := appendFrame(t, nil, Binary, &fx[5])
	stream = appendFrame(t, stream, Binary, &fx[0])
	want := decodeDirect(Binary, stream)
	for cut := 1; cut < len(stream); cut++ {
		conn := NewConn(&scriptConn{data: stream, segs: []int{cut}})
		if err := sameOutcomes(receiveAll(conn), want); err != nil {
			t.Errorf("cut at byte %d: %v", cut, err)
		}
	}
}

// countingConn counts the Reads on a net.Conn.
type countingConn struct {
	net.Conn
	reads int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.Conn.Read(p)
}

// TestReceiveOneReadPerFrame: over loopback TCP, N frames sent one at a
// time cost the receiver exactly N Reads — no separate read for the length
// prefix.
func TestReceiveOneReadPerFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	const n = 50
	got := make(chan struct{})
	sent := make(chan error, 1)
	go func() {
		c, err := DialContext(context.Background(), ln.Addr().String(), time.Second)
		if err != nil {
			sent <- err
			return
		}
		defer func() { _ = c.Close() }()
		for i := 0; i < n; i++ {
			if err := c.Send(sample(0, i, 0.5), time.Second); err != nil {
				sent <- err
				return
			}
			<-got
		}
		sent <- nil
	}()
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingConn{Conn: nc}
	conn := NewConn(counted)
	defer func() { _ = conn.Close() }()
	var m Message
	for i := 0; i < n; i++ {
		if err := conn.ReceiveInto(&m, 5*time.Second); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.Batch.First != i {
			t.Fatalf("frame %d carries period %d", i, m.Batch.First)
		}
		got <- struct{}{}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if counted.reads != n {
		t.Errorf("%d frames took %d Reads, want %d", n, counted.reads, n)
	}
}

// TestReceiveGrowsBufferOnceForLargeFrame: a frame larger than the initial
// buffer grows it to fit, and later frames of that size reuse it.
func TestReceiveGrowsBufferOnceForLargeFrame(t *testing.T) {
	big := &Message{Type: TypeUtilizationBatch, Batch: UtilizationBatch{Samples: make([]float64, 2*readBufferSize/8)}}
	var stream []byte
	for i := 0; i < 3; i++ {
		stream = appendFrame(t, stream, Binary, big)
	}
	size := len(stream) / 3
	conn := NewConn(&scriptConn{data: stream})
	var m Message
	var first *byte
	for i := 0; i < 3; i++ {
		if err := conn.ReceiveInto(&m, time.Second); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(m.Batch.Samples) != len(big.Batch.Samples) {
			t.Fatalf("frame %d: %d samples, want %d", i, len(m.Batch.Samples), len(big.Batch.Samples))
		}
		if len(conn.rbuf) != size {
			t.Fatalf("frame %d: buffer is %d bytes, want the %d-byte frame", i, len(conn.rbuf), size)
		}
		if i == 0 {
			first = &conn.rbuf[0]
		} else if &conn.rbuf[0] != first {
			t.Fatalf("frame %d grew the buffer again", i)
		}
	}
}

// TestOversizePrefixAllocatesNoBody: a length prefix past MaxFrameSize
// fails with ErrFrameTooLarge before the buffer grows.
func TestOversizePrefixAllocatesNoBody(t *testing.T) {
	stream := binary.BigEndian.AppendUint32(nil, MaxFrameSize+1)
	stream = append(stream, make([]byte, 64)...)
	conn := NewConn(&scriptConn{data: stream})
	var m Message
	if err := conn.ReceiveInto(&m, time.Second); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if len(conn.rbuf) != readBufferSize {
		t.Fatalf("buffer grew to %d bytes for a rejected frame", len(conn.rbuf))
	}
}

// TestReceiveEOFIdentity: a stream that ends at a frame boundary reads
// io.EOF; one that ends inside a header or a body reads
// io.ErrUnexpectedEOF.
func TestReceiveEOFIdentity(t *testing.T) {
	frame := appendFrame(t, nil, Binary, sample(1, 2, 0.5))
	for _, tc := range []struct {
		name string
		tail []byte // follows one whole frame
		want error
	}{
		{"boundary", nil, io.EOF},
		{"mid-header", frame[:2], io.ErrUnexpectedEOF},
		{"after-header", frame[:4], io.ErrUnexpectedEOF},
		{"mid-body", frame[:len(frame)-1], io.ErrUnexpectedEOF},
	} {
		conn := NewConn(&scriptConn{data: append(append([]byte(nil), frame...), tc.tail...)})
		var m Message
		if err := conn.ReceiveInto(&m, time.Second); err != nil {
			t.Fatalf("%s: first frame: %v", tc.name, err)
		}
		err := conn.ReceiveInto(&m, time.Second)
		if !errors.Is(err, tc.want) || (tc.want == io.EOF && errors.Is(err, io.ErrUnexpectedEOF)) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
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
