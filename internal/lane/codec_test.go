package lane

import (
	"encoding/binary"
	"errors"
	"math"
	"net"
	"reflect"
	"testing"
	"time"
)

// messageFixtures covers every message type, including sparse rates and
// multi-sample batches.
func messageFixtures() []Message {
	return []Message{
		{Type: TypeHello, Hello: Hello{Processor: 7, Node: "node-7"}},
		{Type: TypeHello, Hello: Hello{Processor: 0, Node: ""}},
		{Type: TypeUtilizationBatch, Batch: UtilizationBatch{Processor: 3, First: 42, Samples: []float64{0.1, 0.97, 0}}},
		{Type: TypeUtilizationBatch, Batch: UtilizationBatch{Processor: 0, First: 0, Samples: []float64{math.NaN()}}},
		{Type: TypeRates, Rates: Rates{Period: 9, Values: []float64{0.004, 2.5, 0.333}}},
		{Type: TypeRates, Rates: Rates{Period: 11, Tasks: []int32{0, 5, 1023}, Values: []float64{1, 2, 3}}},
		{Type: TypeRates, Rates: Rates{Period: 0, Tasks: []int32{}, Values: []float64{}}},
		{Type: TypeShutdown, Shutdown: Shutdown{Reason: "drain"}},
		{Type: TypeShutdown, Shutdown: Shutdown{}},
	}
}

// canonical reduces a message to its meaningful payload for comparison
// (unselected union fields are unspecified after decode).
func canonical(m *Message) any {
	switch m.Type {
	case TypeHello:
		return m.Hello
	case TypeUtilizationBatch:
		return m.Batch
	case TypeRates:
		return m.Rates
	case TypeShutdown:
		return m.Shutdown
	default: //eucon:exhaustive-default test helper: unknown types compare by discriminant only
		return m.Type
	}
}

// equalPayload compares payloads treating NaN as equal to itself and a
// nil slice as equal to an empty one (the wire cannot distinguish them
// for Values/Samples; Tasks nil vs empty IS meaningful and checked
// separately).
func equalPayload(a, b any) bool {
	switch x := a.(type) {
	case UtilizationBatch:
		y, ok := b.(UtilizationBatch)
		return ok && x.Processor == y.Processor && x.First == y.First && equalFloats(x.Samples, y.Samples)
	case Rates:
		y, ok := b.(Rates)
		if !ok || x.Period != y.Period || !equalFloats(x.Values, y.Values) {
			return false
		}
		if (x.Tasks == nil) != (y.Tasks == nil) {
			return false
		}
		if len(x.Tasks) != len(y.Tasks) {
			return false
		}
		for i := range x.Tasks {
			if x.Tasks[i] != y.Tasks[i] {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a, b)
	}
}

func hasNaN(s []float64) bool {
	for _, v := range s {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestCodecRoundTripBitExact(t *testing.T) {
	for _, codec := range []Codec{Binary, BinaryV2, JSONv0} {
		for _, want := range messageFixtures() {
			if codec == JSONv0 && hasNaN(want.Batch.Samples) {
				continue // JSON cannot represent NaN; the binary codec is bit-exact
			}
			body, err := codec.AppendEncode(nil, &want)
			if err != nil {
				t.Fatalf("%s encode %s: %v", codec.Name(), want.Type, err)
			}
			var got Message
			if err := codec.Decode(body, &got); err != nil {
				t.Fatalf("%s decode %s: %v", codec.Name(), want.Type, err)
			}
			if got.Type != want.Type || !equalPayload(canonical(&want), canonical(&got)) {
				t.Fatalf("%s round trip %s:\n want %+v\n got  %+v", codec.Name(), want.Type, canonical(&want), canonical(&got))
			}
			// Re-encoding the decoded message must be byte-identical
			// (deterministic wire form).
			body2, err := codec.AppendEncode(nil, &got)
			if err != nil {
				t.Fatalf("%s re-encode: %v", codec.Name(), err)
			}
			if string(body) != string(body2) {
				t.Fatalf("%s re-encode of %s differs:\n %x\n %x", codec.Name(), want.Type, body, body2)
			}
		}
	}
}

func TestBinaryEncodeDeterministic(t *testing.T) {
	m := &Message{Type: TypeRates, Rates: Rates{Period: 5, Tasks: []int32{2, 4}, Values: []float64{0.5, 0.25}}}
	a, err := Binary.AppendEncode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Binary.AppendEncode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("non-deterministic encode:\n %x\n %x", a, b)
	}
	if a[0] != binaryVersion {
		t.Fatalf("first byte = 0x%02x, want version 0x%02x", a[0], binaryVersion)
	}
}

func TestDecodeMalformedFailsClosed(t *testing.T) {
	valid, err := Binary.AppendEncode(nil, &Message{
		Type:  TypeUtilizationBatch,
		Batch: UtilizationBatch{Processor: 1, First: 2, Samples: []float64{0.5, 0.6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	validV2, err := BinaryV2.AppendEncode(nil, &Message{
		Type:  TypeRates,
		Rates: Rates{Period: 9, Tasks: []int32{1, 4}, Values: []float64{0.5, 0.25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"version-only", []byte{binaryVersion}},
		{"unknown-version", []byte{0x7f, 1, 2, 3}},
		{"unknown-type", []byte{binaryVersion, 0xee}},
		{"zero-type", []byte{binaryVersion, 0}},
		{"truncated-header", valid[:3]},
		{"truncated-payload", valid[:len(valid)-1]},
		{"trailing-garbage", append(append([]byte{}, valid...), 0xaa)},
		{"hostile-count", func() []byte {
			// A batch claiming 2^31 samples in a tiny body must be
			// rejected before any allocation is attempted.
			b := append([]byte{}, valid[:10]...)
			b = append(b, 0x7f, 0xff, 0xff, 0xff)
			return b
		}()},
		{"task-index-overflow", func() []byte {
			// A sparse v1 rates frame naming task 2^32-1, which no int32
			// task index can hold.
			b := []byte{binaryVersion, byte(TypeRates), 0, 0, 0, 9, rateFlagSparse, 0, 0, 0, 1}
			b = append(b, 0xff, 0xff, 0xff, 0xff)
			return append(b, 0, 0, 0, 0, 0, 0, 0, 0)
		}()},
		{"json-truncated", []byte(`{"type":"rates","per`)},
		{"json-unknown-type", []byte(`{"type":"gossip"}`)},
		{"json-empty-object", []byte(`{}`)},
		{"json-negative-processor", []byte(`{"type":"hello","hello":{"processor":-1}}`)},
		{"json-tasks-without-values", []byte(`{"type":"rates","rates":{"period":1,"tasks":[3],"values":[]}}`)},
		{"v2-version-only", []byte{binaryV2Version}},
		{"v2-unknown-type", []byte{binaryV2Version, 0xee}},
		{"v2-truncated-payload", validV2[:len(validV2)-1]},
		{"v2-truncated-varint", validV2[:3]},
		{"v2-trailing-garbage", append(append([]byte{}, validV2...), 0xaa)},
		{"v2-hostile-count", func() []byte {
			// A v2 rates frame claiming 2^28 sparse elements in a tiny
			// body must be rejected before any allocation is attempted.
			b := []byte{binaryV2Version, byte(TypeRates), 9 /* period */, rateFlagSparse}
			b = append(b, 0x80, 0x80, 0x80, 0x80, 0x01) // uvarint 2^28
			return b
		}()},
		{"v2-gap-overflow", func() []byte {
			// One sparse element whose index gap (MaxUint32, a legal
			// varint) pushes the running task index past MaxInt32.
			b := []byte{binaryV2Version, byte(TypeRates), 9, rateFlagSparse, 1}
			b = append(b, 0xff, 0xff, 0xff, 0xff, 0x0f) // uvarint 2^32-1 gap
			b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)       // the element's value
			return b
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Every codec must refuse every case: a body malformed for its
			// own codec, and a well-formed one of another codec.
			for _, codec := range []Codec{Binary, BinaryV2, JSONv0} {
				var m Message
				if err := codec.Decode(tc.body, &m); !errors.Is(err, ErrMalformedFrame) {
					t.Fatalf("%s.Decode(%x) = %v, want ErrMalformedFrame", codec.Name(), tc.body, err)
				}
			}
		})
	}
}

// TestParseCodec pins the one table of -codec names.
func TestParseCodec(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Codec
	}{
		{"binary", Binary},
		{"binary2", BinaryV2},
		{"json", JSONv0},
		{"binary.v1", nil},
		{"", nil},
	} {
		got, err := ParseCodec(tc.name)
		if got != tc.want || (err == nil) != (tc.want != nil) {
			t.Errorf("ParseCodec(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
}

func TestEncodeZeroTypeFailsClosed(t *testing.T) {
	if _, err := Binary.AppendEncode(nil, &Message{}); err == nil {
		t.Fatal("encoding a zero-Type message succeeded")
	}
	if _, err := JSONv0.AppendEncode(nil, &Message{}); err == nil {
		t.Fatal("JSON-encoding a zero-Type message succeeded")
	}
}

// TestBinarySteadyStateZeroAlloc is the acceptance gate: encoding and
// decoding batch and rates frames into reused buffers must not allocate.
func TestBinarySteadyStateZeroAlloc(t *testing.T) {
	batch := &Message{Type: TypeUtilizationBatch, Batch: UtilizationBatch{Processor: 2, First: 100, Samples: []float64{0.5, 0.6, 0.7}}}
	rates := &Message{Type: TypeRates, Rates: Rates{Period: 100, Tasks: []int32{1, 3, 5}, Values: []float64{0.1, 0.2, 0.3}}}

	var buf []byte
	var m Message
	// Warm the buffers once so capacity is in place.
	for _, src := range []*Message{batch, rates} {
		b, err := Binary.AppendEncode(buf[:0], src)
		if err != nil {
			t.Fatal(err)
		}
		buf = b
		if err := Binary.Decode(buf, &m); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name string
		src  *Message
	}{{"batch", batch}, {"rates", rates}} {
		allocs := testing.AllocsPerRun(200, func() {
			b, err := Binary.AppendEncode(buf[:0], tc.src)
			if err != nil {
				t.Fatal(err)
			}
			buf = b
			if err := Binary.Decode(buf, &m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op in steady state, want 0", tc.name, allocs)
		}
	}
}

// TestTruncationMidStreamFailsClosed is the lossy-network recovery case,
// run through a Conn of each codec: a frame whose body was cut short (the
// sender died, the fault plan cut the write) must fail closed, and the
// NEXT frame on the same lane must decode normally. Decoding keeps no state
// between bodies, so one poisoned frame never wedges the stream.
func TestTruncationMidStreamFailsClosed(t *testing.T) {
	rates := &Message{
		Type:  TypeRates,
		Rates: Rates{Period: 40, Tasks: []int32{2, 7}, Values: []float64{0.4, 0.9}},
	}
	for _, codec := range []Codec{Binary, BinaryV2, JSONv0} {
		body, err := codec.AppendEncode(nil, rates)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name      string
			truncated []byte // arrives first: must fail closed
		}{
			{"half", body[:len(body)/2]},
			{"tail", body[:len(body)-3]},
		} {
			t.Run(codec.Name()+"/"+tc.name, func(t *testing.T) {
				na, nb := net.Pipe()
				defer func() { _ = na.Close(); _ = nb.Close() }()
				send, recv := NewConn(na, WithConnCodec(codec)), NewConn(nb, WithConnCodec(codec))
				sent := make(chan error, 1)
				go func() {
					frame := binary.BigEndian.AppendUint32(nil, uint32(len(tc.truncated)))
					if _, err := na.Write(append(frame, tc.truncated...)); err != nil {
						sent <- err
						return
					}
					sent <- send.Send(rates, time.Second)
				}()
				var m Message
				if err := recv.ReceiveInto(&m, time.Second); !errors.Is(err, ErrMalformedFrame) {
					t.Fatalf("truncated frame: got %v, want ErrMalformedFrame", err)
				}
				m = Message{}
				if err := recv.ReceiveInto(&m, time.Second); err != nil {
					t.Fatalf("frame after truncated one failed to decode: %v", err)
				}
				if m.Type != TypeRates || m.Rates.Period != 40 {
					t.Fatalf("frame after truncated one decoded as %v period %d, want rates period 40", m.Type, m.Rates.Period)
				}
				if err := <-sent; err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestBinaryV2VersionByte pins v2's wire tag: even a hello, whose payload
// is v1's, carries it, so a v1 lane refuses a v2 peer at its first frame.
func TestBinaryV2VersionByte(t *testing.T) {
	body, err := BinaryV2.AppendEncode(nil, &Message{Type: TypeHello, Hello: Hello{Processor: 3, Node: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if body[0] != binaryV2Version {
		t.Fatalf("first byte = 0x%02x, want 0x%02x", body[0], binaryV2Version)
	}
	var m Message
	if err := BinaryV2.Decode(body, &m); err != nil || m.Hello.Processor != 3 {
		t.Fatalf("v2 hello: %+v, %v", m.Hello, err)
	}
	if err := Binary.Decode(body, &m); !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("v1 decode of a v2 hello = %v, want ErrMalformedFrame", err)
	}
}

// TestBinaryV2SparseEmptyDistinct: an empty sparse frame must stay
// distinct from a full-vector frame through a v2 round trip.
func TestBinaryV2SparseEmptyDistinct(t *testing.T) {
	sparse := &Message{Type: TypeRates, Rates: Rates{Period: 5, Tasks: []int32{}, Values: []float64{}}}
	body, err := BinaryV2.AppendEncode(nil, sparse)
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := BinaryV2.Decode(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Rates.Tasks == nil {
		t.Fatal("empty sparse rates decoded with nil Tasks (would be read as a full vector)")
	}
	full := &Message{Type: TypeRates, Rates: Rates{Period: 5, Values: []float64{1, 2}}}
	body, err = BinaryV2.AppendEncode(nil, full)
	if err != nil {
		t.Fatal(err)
	}
	got = Message{}
	if err := BinaryV2.Decode(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Rates.Tasks != nil {
		t.Fatal("full rates decoded with non-nil Tasks")
	}
}

// TestBinaryV2RejectsNonAscending: the gap encoding cannot represent
// repeated or descending indices, so the encoder must refuse them rather
// than corrupt silently.
func TestBinaryV2RejectsNonAscending(t *testing.T) {
	for _, tasks := range [][]int32{{5, 5}, {5, 3}} {
		m := &Message{Type: TypeRates, Rates: Rates{Period: 1, Tasks: tasks, Values: []float64{1, 2}}}
		if _, err := BinaryV2.AppendEncode(nil, m); err == nil {
			t.Fatalf("encoding non-ascending tasks %v succeeded", tasks)
		}
	}
}

// TestBinaryV2SparseSmallerThanV1 pins the point of v2: a sparse rates
// element costs a varint index gap plus its value, not v1's fixed 12
// bytes.
func TestBinaryV2SparseSmallerThanV1(t *testing.T) {
	m := &Message{Type: TypeRates, Rates: Rates{
		Period: 100,
		Tasks:  []int32{12, 13, 47},
		Values: []float64{0.1, 0.2, 0.3},
	}}
	v1, err := Binary.AppendEncode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := BinaryV2.AppendEncode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(v2) >= len(v1) {
		t.Fatalf("v2 sparse frame is %d bytes, v1 is %d — v2 should be strictly smaller", len(v2), len(v1))
	}
}

// TestBinaryV2SteadyStateZeroAlloc mirrors the v1 gate: v2 encode/decode
// of batch and rates frames into reused buffers must not allocate.
func TestBinaryV2SteadyStateZeroAlloc(t *testing.T) {
	batch := &Message{Type: TypeUtilizationBatch, Batch: UtilizationBatch{Processor: 2, First: 100, Samples: []float64{0.5, 0.6, 0.7}}}
	sparse := &Message{Type: TypeRates, Rates: Rates{Period: 100, Tasks: []int32{1, 3, 5}, Values: []float64{0.1, 0.2, 0.3}}}
	full := &Message{Type: TypeRates, Rates: Rates{Period: 100, Values: []float64{0.1, 0.2, 0.3}}}

	var buf []byte
	var m Message
	for _, src := range []*Message{batch, sparse, full} {
		b, err := BinaryV2.AppendEncode(buf[:0], src)
		if err != nil {
			t.Fatal(err)
		}
		buf = b
		if err := BinaryV2.Decode(buf, &m); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name string
		src  *Message
	}{{"batch", batch}, {"sparse-rates", sparse}, {"full-rates", full}} {
		allocs := testing.AllocsPerRun(200, func() {
			b, err := BinaryV2.AppendEncode(buf[:0], tc.src)
			if err != nil {
				t.Fatal(err)
			}
			buf = b
			if err := BinaryV2.Decode(buf, &m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op in steady state, want 0", tc.name, allocs)
		}
	}
}

func BenchmarkBinaryEncodeDecodeBatch(b *testing.B) {
	src := &Message{Type: TypeUtilizationBatch, Batch: UtilizationBatch{Processor: 2, First: 100, Samples: []float64{0.5, 0.6, 0.7, 0.8}}}
	var buf []byte
	var m Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = Binary.AppendEncode(buf[:0], src)
		if err != nil {
			b.Fatal(err)
		}
		if err := Binary.Decode(buf, &m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryEncodeDecodeRates(b *testing.B) {
	tasks := make([]int32, 16)
	vals := make([]float64, 16)
	for i := range tasks {
		tasks[i] = int32(i * 3)
		vals[i] = float64(i) * 0.01
	}
	src := &Message{Type: TypeRates, Rates: Rates{Period: 7, Tasks: tasks, Values: vals}}
	var buf []byte
	var m Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = Binary.AppendEncode(buf[:0], src)
		if err != nil {
			b.Fatal(err)
		}
		if err := Binary.Decode(buf, &m); err != nil {
			b.Fatal(err)
		}
	}
}
