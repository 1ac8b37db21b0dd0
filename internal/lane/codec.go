package lane

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
)

// Codec encodes and decodes message bodies (the bytes after the 4-byte
// frame length). Implementations must fail closed on malformed input —
// return an error wrapping ErrMalformedFrame, never a partial message —
// and must copy everything they need out of the input buffer, which the
// transport reuses between frames.
type Codec interface {
	// Name identifies the codec ("binary.v1", "json.v0").
	Name() string
	// AppendEncode appends m's encoded body to dst and returns the
	// extended slice (append semantics: the result may alias dst's
	// backing array or a grown copy).
	AppendEncode(dst []byte, m *Message) ([]byte, error)
	// Decode parses a body into m, reusing m's slice capacity where
	// possible. Payload fields not selected by the decoded Type are left
	// unspecified.
	Decode(body []byte, m *Message) error
}

// Binary is the compact versioned binary codec (v1), the default. Bodies
// are big-endian: a version byte, a type byte, then the typed payload.
// Steady-state frames (utilization batches and rate commands) encode and
// decode with zero allocations into reused buffers.
var Binary Codec = binaryCodec{}

// JSONv0 is the human-readable JSON fallback codec, kept for debugging.
// One JSON object per body, e.g.
//
//	{"type":"rates","rates":{"period":7,"values":[0.5,1.2]}}
var JSONv0 Codec = jsonCodec{}

// ParseCodec maps a codec's command-line name — binary, binary2 or json —
// to the codec.
func ParseCodec(name string) (Codec, error) {
	switch name {
	case "binary":
		return Binary, nil
	case "binary2":
		return BinaryV2, nil
	case "json":
		return JSONv0, nil
	default:
		return nil, fmt.Errorf("unknown codec %q (want binary, binary2, or json)", name)
	}
}

// binaryVersion tags binary v1 bodies. It must never collide with '{'
// (0x7b), the first byte of a JSON body, so a JSON peer on a binary lane
// fails closed at the version byte.
const binaryVersion = 0x01

// maxBinaryCount bounds any element count a binary frame can legally
// declare: each element is at least 1 byte, so a count beyond the frame
// cap is malformed regardless of the remaining body length.
const maxBinaryCount = MaxFrameSize

type binaryCodec struct{}

func (binaryCodec) Name() string { return "binary.v1" }

// AppendEncode implements Codec. Field widths: processor, period, and
// count fields are uint32; samples and rates are float64 bits; strings
// carry a uint16 length.
func (binaryCodec) AppendEncode(dst []byte, m *Message) ([]byte, error) {
	dst = append(dst, binaryVersion, byte(m.Type))
	switch m.Type {
	case TypeHello:
		var err error
		if dst, err = appendU32(dst, m.Hello.Processor, "hello processor"); err != nil {
			return dst, err
		}
		return appendString(dst, m.Hello.Node, "hello node")
	case TypeUtilizationBatch:
		b := &m.Batch
		var err error
		if dst, err = appendU32(dst, b.Processor, "batch processor"); err != nil {
			return dst, err
		}
		if dst, err = appendU32(dst, b.First, "batch first period"); err != nil {
			return dst, err
		}
		if dst, err = appendU32(dst, len(b.Samples), "batch sample count"); err != nil {
			return dst, err
		}
		for _, v := range b.Samples {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
		}
		return dst, nil
	case TypeRates:
		r := &m.Rates
		var err error
		if dst, err = appendU32(dst, r.Period, "rates period"); err != nil {
			return dst, err
		}
		var flags byte
		if r.Tasks != nil {
			if len(r.Tasks) != len(r.Values) {
				return dst, fmt.Errorf("lane: rates frame has %d tasks for %d values", len(r.Tasks), len(r.Values))
			}
			flags |= rateFlagSparse
		}
		dst = append(dst, flags)
		if dst, err = appendU32(dst, len(r.Values), "rates count"); err != nil {
			return dst, err
		}
		for _, t := range r.Tasks {
			if dst, err = appendU32(dst, int(t), "rates task index"); err != nil {
				return dst, err
			}
		}
		for _, v := range r.Values {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
		}
		return dst, nil
	case TypeShutdown:
		return appendString(dst, m.Shutdown.Reason, "shutdown reason")
	default: //eucon:exhaustive-default the zero MessageType and corrupt values must fail closed at encode time
		return dst, fmt.Errorf("lane: cannot encode message type %s", m.Type)
	}
}

// rateFlagSparse marks a rates frame carrying explicit task indices.
const rateFlagSparse = 0x01

// Decode implements Codec.
func (binaryCodec) Decode(body []byte, m *Message) error {
	if len(body) < 2 {
		return fmt.Errorf("%w: binary body of %d bytes", ErrMalformedFrame, len(body))
	}
	if body[0] != binaryVersion {
		return fmt.Errorf("%w: binary version 0x%02x, want 0x%02x", ErrMalformedFrame, body[0], binaryVersion)
	}
	d := decoder{buf: body, off: 2}
	m.Type = MessageType(body[1])
	switch m.Type {
	case TypeHello:
		return decodeHelloPayload(&d, m)
	case TypeUtilizationBatch:
		return decodeBatchPayload(&d, m)
	case TypeRates:
		return decodeRatesV1Payload(&d, m)
	case TypeShutdown:
		return decodeShutdownPayload(&d, m)
	default: //eucon:exhaustive-default unknown wire types are malformed input, not a dispatch gap
		return fmt.Errorf("%w: unknown message type %d", ErrMalformedFrame, body[1])
	}
}

// The per-type payload decoders below are shared between binary v1 and v2:
// only the rates payload differs across versions (see codecv2.go).

func decodeHelloPayload(d *decoder, m *Message) error {
	m.Hello.Processor = d.u32("hello processor")
	m.Hello.Node = d.str("hello node")
	return d.finish()
}

func decodeBatchPayload(d *decoder, m *Message) error {
	b := &m.Batch
	b.Processor = d.u32("batch processor")
	b.First = d.u32("batch first period")
	n := d.count("batch sample count", 8)
	b.Samples = b.Samples[:0]
	for i := 0; i < n && d.err == nil; i++ {
		b.Samples = append(b.Samples, d.f64("batch sample"))
	}
	return d.finish()
}

func decodeRatesV1Payload(d *decoder, m *Message) error {
	r := &m.Rates
	r.Period = d.u32("rates period")
	flags := d.byte("rates flags")
	sparse := flags&rateFlagSparse != 0
	elem := 8
	if sparse {
		elem = 12 // 4-byte index + 8-byte value
	}
	n := d.count("rates count", elem)
	r.Tasks = r.Tasks[:0]
	if sparse {
		for i := 0; i < n && d.err == nil; i++ {
			t := d.u32("rates task index")
			if t > math.MaxInt32 {
				d.err = fmt.Errorf("%w: rates task index %d exceeds int32", ErrMalformedFrame, t)
				break
			}
			r.Tasks = append(r.Tasks, int32(t))
		}
		if r.Tasks == nil {
			r.Tasks = []int32{} // keep sparse-with-no-tasks distinct from full-vector
		}
	} else {
		r.Tasks = nil
	}
	r.Values = r.Values[:0]
	for i := 0; i < n && d.err == nil; i++ {
		r.Values = append(r.Values, d.f64("rates value"))
	}
	return d.finish()
}

func decodeShutdownPayload(d *decoder, m *Message) error {
	m.Shutdown.Reason = d.str("shutdown reason")
	return d.finish()
}

// appendU32 appends v as a big-endian uint32, rejecting values outside
// [0, 2³²).
func appendU32(dst []byte, v int, what string) ([]byte, error) {
	if v < 0 || int64(v) > math.MaxUint32 {
		return dst, fmt.Errorf("lane: %s %d outside uint32 range", what, v)
	}
	return binary.BigEndian.AppendUint32(dst, uint32(v)), nil
}

// appendString appends a uint16 length prefix and the string bytes.
func appendString(dst []byte, s, what string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return dst, fmt.Errorf("lane: %s of %d bytes exceeds uint16 length", what, len(s))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

// decoder is a bounds-checked cursor over a binary body. The first error
// sticks; every accessor degenerates to a zero value afterwards, and
// finish reports it (or trailing garbage).
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s at offset %d", ErrMalformedFrame, what, d.off)
	}
}

func (d *decoder) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if d.off+1 > len(d.buf) {
		d.fail(what)
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u32(what string) int {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.buf) {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return int(v)
}

func (d *decoder) f64(what string) float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// count reads a uint32 element count and validates it against the bytes
// actually remaining (elemSize per element), so a hostile count can never
// drive a large allocation or a long loop over a short body.
func (d *decoder) count(what string, elemSize int) int {
	return d.fits(what, d.u32(what), elemSize)
}

// fits validates an element count n just read (see count).
func (d *decoder) fits(what string, n, elemSize int) int {
	if d.err != nil {
		return 0
	}
	if n > maxBinaryCount || n*elemSize > len(d.buf)-d.off {
		d.err = fmt.Errorf("%w: %s %d exceeds remaining body (%d bytes)", ErrMalformedFrame, what, n, len(d.buf)-d.off)
		return 0
	}
	return n
}

// str reads a uint16 length prefix and copies that many bytes out.
func (d *decoder) str(what string) string {
	if d.err != nil {
		return ""
	}
	if d.off+2 > len(d.buf) {
		d.fail(what)
		return ""
	}
	n := int(binary.BigEndian.Uint16(d.buf[d.off:]))
	d.off += 2
	if d.off+n > len(d.buf) {
		d.fail(what)
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// finish reports the sticky error, or rejects trailing garbage (a frame
// longer than its payload is as malformed as a short one).
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes after payload", ErrMalformedFrame, len(d.buf)-d.off)
	}
	return nil
}

// ---- JSON v0 ----

type jsonCodec struct{}

func (jsonCodec) Name() string { return "json.v0" }

// jsonFrame is the wire shape of a JSON v0 body.
type jsonFrame struct {
	Type     string        `json:"type"`
	Hello    *jsonHello    `json:"hello,omitempty"`
	Batch    *jsonBatch    `json:"batch,omitempty"`
	Rates    *jsonRates    `json:"rates,omitempty"`
	Shutdown *jsonShutdown `json:"shutdown,omitempty"`
}

type jsonHello struct {
	Processor int    `json:"processor"`
	Node      string `json:"node,omitempty"`
}

type jsonBatch struct {
	Processor int       `json:"processor"`
	First     int       `json:"first"`
	Samples   []float64 `json:"samples"`
}

type jsonRates struct {
	Period int       `json:"period"`
	Tasks  []int32   `json:"tasks"`
	Values []float64 `json:"values"`
}

type jsonShutdown struct {
	Reason string `json:"reason,omitempty"`
}

// AppendEncode implements Codec.
func (jsonCodec) AppendEncode(dst []byte, m *Message) ([]byte, error) {
	f := jsonFrame{Type: m.Type.String()}
	switch m.Type {
	case TypeHello:
		f.Hello = &jsonHello{Processor: m.Hello.Processor, Node: m.Hello.Node}
	case TypeUtilizationBatch:
		f.Batch = &jsonBatch{Processor: m.Batch.Processor, First: m.Batch.First, Samples: nonNil(m.Batch.Samples)}
	case TypeRates:
		f.Rates = &jsonRates{Period: m.Rates.Period, Tasks: m.Rates.Tasks, Values: nonNil(m.Rates.Values)}
	case TypeShutdown:
		f.Shutdown = &jsonShutdown{Reason: m.Shutdown.Reason}
	default: //eucon:exhaustive-default the zero MessageType and corrupt values must fail closed at encode time
		return dst, fmt.Errorf("lane: cannot encode message type %s", m.Type)
	}
	body, err := json.Marshal(&f)
	if err != nil {
		return dst, fmt.Errorf("lane: encode %s message: %w", m.Type, err)
	}
	return append(dst, body...), nil
}

// nonNil canonicalizes a nil slice to an empty one so JSON encoding is
// deterministic (`[]`, never `null`) regardless of how the caller built
// the message.
func nonNil(s []float64) []float64 {
	if s == nil {
		return []float64{}
	}
	return s
}

// Decode implements Codec.
func (jsonCodec) Decode(body []byte, m *Message) error {
	var f jsonFrame
	if err := json.Unmarshal(body, &f); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformedFrame, err)
	}
	switch f.Type {
	case "hello":
		m.Type = TypeHello
		if f.Hello == nil {
			return fmt.Errorf("%w: hello frame without hello payload", ErrMalformedFrame)
		}
		m.Hello = Hello{Processor: f.Hello.Processor, Node: f.Hello.Node}
	case "utilization-batch":
		m.Type = TypeUtilizationBatch
		if f.Batch == nil {
			return fmt.Errorf("%w: utilization-batch frame without batch payload", ErrMalformedFrame)
		}
		m.Batch.Processor = f.Batch.Processor
		m.Batch.First = f.Batch.First
		m.Batch.Samples = append(m.Batch.Samples[:0], f.Batch.Samples...)
	case "rates":
		m.Type = TypeRates
		if f.Rates == nil {
			return fmt.Errorf("%w: rates frame without rates payload", ErrMalformedFrame)
		}
		m.Rates.Period = f.Rates.Period
		if f.Rates.Tasks == nil {
			m.Rates.Tasks = nil
		} else if m.Rates.Tasks = append(m.Rates.Tasks[:0], f.Rates.Tasks...); m.Rates.Tasks == nil {
			m.Rates.Tasks = []int32{} // keep sparse-with-no-tasks distinct from full-vector
		}
		m.Rates.Values = append(m.Rates.Values[:0], f.Rates.Values...)
	case "shutdown":
		m.Type = TypeShutdown
		if f.Shutdown == nil {
			m.Shutdown = Shutdown{}
		} else {
			m.Shutdown = Shutdown{Reason: f.Shutdown.Reason}
		}
	default:
		return fmt.Errorf("%w: unknown message type %q", ErrMalformedFrame, f.Type)
	}
	if !binaryFits(m) {
		return fmt.Errorf("%w: %s frame field outside the binary wire ranges", ErrMalformedFrame, m.Type)
	}
	return nil
}

// binaryFits reports whether every field of m fits the binary wire format
// — uint32 indices and periods, uint16-length strings, one value per
// sparse task — so a JSON frame can carry nothing a binary frame cannot.
func binaryFits(m *Message) bool {
	u32 := func(v int) bool { return v >= 0 && int64(v) <= math.MaxUint32 }
	switch m.Type {
	case TypeHello:
		return u32(m.Hello.Processor) && len(m.Hello.Node) <= math.MaxUint16
	case TypeUtilizationBatch:
		return u32(m.Batch.Processor) && u32(m.Batch.First)
	case TypeRates:
		if m.Rates.Tasks != nil && len(m.Rates.Tasks) != len(m.Rates.Values) {
			return false
		}
		for _, t := range m.Rates.Tasks {
			if t < 0 {
				return false
			}
		}
		return u32(m.Rates.Period)
	case TypeShutdown:
		return len(m.Shutdown.Reason) <= math.MaxUint16
	default: //eucon:exhaustive-default only decoded types reach here
		return false
	}
}
