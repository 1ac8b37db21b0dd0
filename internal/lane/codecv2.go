package lane

import (
	"encoding/binary"
	"fmt"
	"math"
)

// BinaryV2 is the varint binary codec (v2). Hello, utilization batch, and
// shutdown payloads are identical to v1 behind the 0x02 version byte;
// rates frames replace v1's fixed-width layout with varints — the period
// and element count are uvarints, and sparse task indices are encoded as
// ascending index gaps, so a rates frame costs about one byte per task
// index instead of four. Both ends of a lane must be configured with it:
// v1 and JSON decoders reject its version byte, and it rejects theirs.
var BinaryV2 Codec = binaryV2Codec{}

// binaryV2Version tags binary v2 bodies. Like v1 it must never collide
// with '{' (0x7b), the first byte of a JSON body.
const binaryV2Version = 0x02

type binaryV2Codec struct{}

func (binaryV2Codec) Name() string { return "binary.v2" }

// AppendEncode implements Codec. Non-rates payloads share v1's layout, so
// they are encoded by the v1 codec and re-tagged; rates get the varint
// layout.
func (binaryV2Codec) AppendEncode(dst []byte, m *Message) ([]byte, error) {
	if m.Type == TypeRates {
		dst = append(dst, binaryV2Version, byte(m.Type))
		return appendRatesV2(dst, &m.Rates)
	}
	mark := len(dst)
	dst, err := Binary.AppendEncode(dst, m)
	if err == nil {
		dst[mark] = binaryV2Version
	}
	return dst, err
}

// appendRatesV2 appends the v2 rates payload: uvarint period, a flags
// byte, a uvarint element count, then — sparse — one (uvarint index gap,
// float64 bits) pair per element, with indices strictly ascending
// (index₀ = gap₀, indexᵢ = index₍ᵢ₋₁₎ + 1 + gapᵢ), or — full — the raw
// float64 bits.
func appendRatesV2(dst []byte, r *Rates) ([]byte, error) {
	if r.Period < 0 || int64(r.Period) > math.MaxUint32 {
		return dst, fmt.Errorf("lane: rates period %d outside uint32 range", r.Period)
	}
	dst = binary.AppendUvarint(dst, uint64(r.Period))
	var flags byte
	if r.Tasks != nil {
		if len(r.Tasks) != len(r.Values) {
			return dst, fmt.Errorf("lane: rates frame has %d tasks for %d values", len(r.Tasks), len(r.Values))
		}
		flags |= rateFlagSparse
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(r.Values)))
	if r.Tasks != nil {
		prev := int32(-1)
		for i, t := range r.Tasks {
			if t <= prev {
				return dst, fmt.Errorf("lane: v2 sparse rates require strictly ascending task indices (task %d after %d)", t, prev)
			}
			dst = binary.AppendUvarint(dst, uint64(t-prev-1))
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.Values[i]))
			prev = t
		}
		return dst, nil
	}
	for _, v := range r.Values {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst, nil
}

// Decode implements Codec.
func (binaryV2Codec) Decode(body []byte, m *Message) error {
	if len(body) < 2 {
		return fmt.Errorf("%w: binary body of %d bytes", ErrMalformedFrame, len(body))
	}
	if body[0] != binaryV2Version {
		return fmt.Errorf("%w: binary version 0x%02x, want 0x%02x", ErrMalformedFrame, body[0], binaryV2Version)
	}
	d := decoder{buf: body, off: 2}
	m.Type = MessageType(body[1])
	switch m.Type {
	case TypeHello:
		return decodeHelloPayload(&d, m)
	case TypeUtilizationBatch:
		return decodeBatchPayload(&d, m)
	case TypeShutdown:
		return decodeShutdownPayload(&d, m)
	case TypeRates:
		// Falls through to the v2 rates layout below.
	default: //eucon:exhaustive-default unknown wire types are malformed input, not a dispatch gap
		return fmt.Errorf("%w: unknown message type %d", ErrMalformedFrame, body[1])
	}
	r := &m.Rates
	r.Period = d.uvarint("rates period")
	flags := d.byte("rates flags")
	sparse := flags&rateFlagSparse != 0
	elem := 8
	if sparse {
		elem = 9 // ≥1-byte gap varint + 8-byte value
	}
	n := d.fits("rates count", d.uvarint("rates count"), elem)
	r.Tasks = r.Tasks[:0]
	r.Values = r.Values[:0]
	if sparse {
		idx := -1
		for i := 0; i < n && d.err == nil; i++ {
			gap := d.uvarint("rates index gap")
			idx += 1 + gap
			if idx > math.MaxInt32 {
				d.err = fmt.Errorf("%w: rates task index %d exceeds int32", ErrMalformedFrame, idx)
				break
			}
			r.Tasks = append(r.Tasks, int32(idx))
			r.Values = append(r.Values, d.f64("rates value"))
		}
		if r.Tasks == nil {
			r.Tasks = []int32{} // keep sparse-with-no-tasks distinct from full-vector
		}
	} else {
		r.Tasks = nil
		for i := 0; i < n && d.err == nil; i++ {
			r.Values = append(r.Values, d.f64("rates value"))
		}
	}
	return d.finish()
}

// uvarint reads one unsigned varint capped at MaxUint32 (periods, counts,
// and index gaps all fit u32 by protocol).
func (d *decoder) uvarint(what string) int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 || v > math.MaxUint32 {
		d.fail(what)
		return 0
	}
	d.off += n
	return int(v)
}
