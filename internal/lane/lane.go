// Package lane implements the feedback lanes of the EUCON architecture
// (paper §4): the TCP connections carrying utilization reports from each
// processor's utilization monitor to the centralized controller, and rate
// commands from the controller back to each processor's rate modulator.
//
// The wire format is a 4-byte big-endian frame length followed by one
// encoded message body, capped at MaxFrameSize to bound memory under a
// misbehaving peer. Three codecs produce bodies behind the Codec interface:
// the compact versioned binary format (Binary, the default — zero
// allocations per frame in steady state), its varint-rates variant
// (BinaryV2), and the human-readable JSON v0 fallback (JSONv0). A Conn
// speaks one codec in both directions, fixed when it is made: both ends of
// a lane must be configured alike, and a frame in any other codec fails
// closed with ErrMalformedFrame.
//
// Messages are typed: MessageType discriminates a Message union whose
// payloads (Hello, UtilizationBatch, Rates, Shutdown) carry only the
// fields their type needs. A UtilizationBatch coalesces consecutive
// sampling periods from one processor into a single frame, so a node
// falling behind a congested lane ships its backlog in one write instead
// of one frame per period.
//
// Receives read through a per-Conn buffer: one Read takes whatever the
// socket holds and frames are parsed out of the buffer, so a frame costs
// one read syscall, and frames that arrived together cost one between
// them. Writes are serialized by a mutex so a Conn may be shared by a
// reader and a writer goroutine (one reader at a time).
package lane

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MaxFrameSize bounds a single frame body (1 MiB is far beyond any EUCON
// message; the cap exists to fail fast on corrupt length prefixes).
const MaxFrameSize = 1 << 20

// ErrFrameTooLarge is returned when a peer announces a frame above
// MaxFrameSize.
var ErrFrameTooLarge = errors.New("lane: frame exceeds maximum size")

// ErrMalformedFrame is returned when a frame body cannot be decoded:
// truncated payloads, counts inconsistent with the body length, unknown
// versions, or unknown message types. Decoding fails closed — no partial
// message is ever returned.
var ErrMalformedFrame = errors.New("lane: malformed frame")

// MessageType discriminates protocol messages.
//
//eucon:exhaustive
type MessageType uint8

// Protocol message types. The zero value is invalid on the wire so a
// forgotten Type fails closed at encode time.
const (
	// TypeHello registers a node agent with the controller.
	TypeHello MessageType = 1 + iota
	// TypeUtilizationBatch reports one or more consecutive sampling
	// periods' utilization from one processor.
	TypeUtilizationBatch
	// TypeRates carries new task rates from the controller.
	TypeRates
	// TypeShutdown asks the peer to stop cleanly.
	TypeShutdown
)

// String renders the type for errors and traces.
func (t MessageType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeUtilizationBatch:
		return "utilization-batch"
	case TypeRates:
		return "rates"
	case TypeShutdown:
		return "shutdown"
	default: //eucon:exhaustive-default invalid wire values render numerically
		return fmt.Sprintf("MessageType(%d)", uint8(t))
	}
}

// Hello registers a node agent with the controller.
type Hello struct {
	// Processor is the 0-based processor index this agent hosts.
	Processor int
	// Node is a human-readable node name.
	Node string
}

// UtilizationBatch carries the utilization samples of consecutive
// sampling periods measured on one processor: Samples[i] is u_p(First+i).
// A batch of one is the common steady-state frame; longer batches appear
// when a send queue coalesces a backlog.
type UtilizationBatch struct {
	// Processor is the reporting 0-based processor index.
	Processor int
	// First is the sampling period index of Samples[0].
	First int
	// Samples holds one utilization per consecutive period.
	Samples []float64
}

// Rates carries new task rates from the controller for one sampling
// period. With Tasks nil the frame carries the full rate vector in task
// order; with Tasks set it carries only those task indices (the
// production path — each member receives just the tasks it hosts).
type Rates struct {
	// Period is the sampling period these rates actuate.
	Period int
	// Tasks lists the task indices of Values, or nil for the full vector.
	Tasks []int32
	// Values holds one rate per entry of Tasks (or per task when Tasks is
	// nil).
	Values []float64
}

// Shutdown asks the peer to stop cleanly.
type Shutdown struct {
	// Reason annotates the shutdown for logs.
	Reason string
}

// Message is the typed frame union: Type selects which payload is
// meaningful. After decoding, payloads other than the selected one are
// unspecified (a reused Message keeps their previous contents so slice
// capacity is recycled).
type Message struct {
	Type     MessageType
	Hello    Hello
	Batch    UtilizationBatch
	Rates    Rates
	Shutdown Shutdown
}

// ConnOption configures a Conn.
type ConnOption func(*Conn)

// WithConnCodec selects the codec the Conn encodes and decodes every frame
// with. The peer must use the same one: a frame in another codec fails
// closed with ErrMalformedFrame. The default is Binary.
func WithConnCodec(c Codec) ConnOption {
	return func(conn *Conn) {
		if c != nil {
			conn.codec = c
		}
	}
}

// Conn is a framed, write-serialized connection.
type Conn struct {
	nc net.Conn

	closeOnce sync.Once
	closed    chan struct{} // closed by Close

	codec Codec // the lane's one codec, immutable after NewConn

	writeMu sync.Mutex
	wbuf    []byte // reusable frame buffer, guarded by writeMu

	// rbuf[rpos:rend] holds bytes read off the wire but not yet returned
	// as a frame; the buffer and both offsets are owned by the single
	// reader.
	rbuf       []byte
	rpos, rend int
}

// readBufferSize is a Conn's initial read buffer, larger than any
// steady-state frame of the benchmark systems; a larger frame grows the
// buffer to fit it.
const readBufferSize = 512

// NewConn wraps a net.Conn. With no options frames are sent and received
// in the binary format.
func NewConn(nc net.Conn, opts ...ConnOption) *Conn {
	c := &Conn{nc: nc, codec: Binary, closed: make(chan struct{}), rbuf: make([]byte, readBufferSize)}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// DialContext connects to a controller at addr with the given timeout. An
// already-canceled or mid-dial-canceled context aborts the connection
// attempt with ctx.Err() wrapped in the returned error.
func DialContext(ctx context.Context, addr string, timeout time.Duration, opts ...ConnOption) (*Conn, error) {
	d := net.Dialer{Timeout: timeout}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("lane: dial %s: %w", addr, err)
	}
	return NewConn(nc, opts...), nil
}

// Close closes the underlying connection. It may be called more than
// once.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.nc.Close()
}

// Send encodes m with the connection's codec and writes one frame,
// applying the deadline to the whole write (zero deadline means no
// timeout). The frame buffer is reused across calls, so steady-state
// sends do not allocate.
func (c *Conn) Send(m *Message, deadline time.Duration) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	frame := append(c.wbuf[:0], 0, 0, 0, 0) // length prefix placeholder
	frame, err := c.codec.AppendEncode(frame, m)
	if err != nil {
		return fmt.Errorf("lane: encode %s message: %w", m.Type, err)
	}
	c.wbuf = frame
	body := len(frame) - 4
	if body > MaxFrameSize {
		return fmt.Errorf("lane: send %s: %w", m.Type, ErrFrameTooLarge)
	}
	binary.BigEndian.PutUint32(frame, uint32(body))

	if deadline > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(deadline)); err != nil { //eucon:wallclock-ok operational I/O deadline, never feeds control output
			return fmt.Errorf("lane: set write deadline: %w", err)
		}
	}
	if _, err := c.nc.Write(frame); err != nil {
		return fmt.Errorf("lane: send %s: %w", m.Type, err)
	}
	return nil
}

// ReceiveInto reads one frame into m, decoding it with the connection's
// codec and applying the deadline to the whole read (zero deadline means
// no timeout). Reads go through a per-Conn buffer: one Read takes whatever
// the socket holds, and a frame already buffered by an earlier Read is
// returned without touching the socket. The buffer grows only to fit a
// frame larger than it, and m's slice capacity is reused, so steady-state
// receives of batch and rates frames do not allocate. A stream that ends
// at a frame boundary reads io.EOF; one that ends inside a frame reads
// io.ErrUnexpectedEOF. Only one goroutine may receive on a Conn at a time.
func (c *Conn) ReceiveInto(m *Message, deadline time.Duration) error {
	body, err := c.nextFrame(deadline)
	if err != nil {
		return err
	}
	return c.codec.Decode(body, m)
}

// nextFrame returns the next frame body out of the read buffer, reading
// from the connection only while the buffer lacks a whole frame. The body
// aliases the buffer and is valid until the next call.
func (c *Conn) nextFrame(deadline time.Duration) ([]byte, error) {
	armed := false
	for {
		avail := c.rend - c.rpos
		size := 0 // the whole frame's length, once its prefix is in
		if avail >= 4 {
			n := binary.BigEndian.Uint32(c.rbuf[c.rpos:])
			if n > MaxFrameSize {
				return nil, fmt.Errorf("lane: frame of %d bytes: %w", n, ErrFrameTooLarge)
			}
			size = 4 + int(n)
			if avail >= size {
				body := c.rbuf[c.rpos+4 : c.rpos+size]
				c.rpos += size
				return body, nil
			}
		}
		// Move the partial frame to the front, growing the buffer when
		// the frame cannot fit it.
		if size > len(c.rbuf) {
			grown := make([]byte, size)
			c.rend = copy(grown, c.rbuf[c.rpos:c.rend])
			c.rbuf = grown
		} else {
			c.rend = copy(c.rbuf, c.rbuf[c.rpos:c.rend])
		}
		c.rpos = 0
		if !armed && deadline > 0 {
			if err := c.nc.SetReadDeadline(time.Now().Add(deadline)); err != nil { //eucon:wallclock-ok operational I/O deadline, never feeds control output
				return nil, fmt.Errorf("lane: set read deadline: %w", err)
			}
			armed = true
		}
		k, err := c.nc.Read(c.rbuf[c.rend:])
		c.rend += k
		if err == nil || k > 0 {
			continue // a Read that returned data reports its error again
		}
		if size == 0 {
			if errors.Is(err, io.EOF) && c.rend > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("lane: read frame length: %w", err)
		}
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("lane: read frame body: %w", err)
	}
}
