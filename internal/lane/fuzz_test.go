package lane

import (
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bodies at all three codecs' decoders. The
// invariant under test: each decode either succeeds with a valid message
// type, or fails closed with ErrMalformedFrame — it must never panic, and
// a successful decode must re-encode (a total decoder). The seed corpus
// includes valid frames from every codec plus known-nasty shapes, so each
// codec also sees the others' frames, and the corpus round runs
// meaningfully under plain `go test`.
func FuzzDecodeFrame(f *testing.F) {
	for _, m := range messageFixtures() {
		for _, codec := range []Codec{Binary, BinaryV2, JSONv0} {
			body, err := codec.AppendEncode(nil, &m)
			if err != nil {
				continue // e.g. NaN samples are unrepresentable in JSON
			}
			f.Add(body)
			// Truncation mid-stream: a partial frame (a lossy lane cut the
			// body short) must fail closed without wedging the decoder.
			if len(body) > 2 {
				f.Add(body[:len(body)/2])
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{binaryVersion})
	f.Add([]byte{binaryVersion, 0xff, 0xff})
	f.Add([]byte{binaryVersion, byte(TypeUtilizationBatch), 0x7f, 0xff, 0xff, 0xff})
	f.Add([]byte{binaryV2Version})
	f.Add([]byte{binaryV2Version, byte(TypeRates), 9, rateFlagSparse, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Add([]byte{binaryV2Version, byte(TypeRates), 9, rateFlagSparse, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte(`{"type":"rates","period":-1,"values":[1e309]}`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, codec := range []Codec{Binary, BinaryV2, JSONv0} {
			var m Message
			if err := codec.Decode(body, &m); err != nil {
				if !errors.Is(err, ErrMalformedFrame) {
					t.Fatalf("%s rejected a body with %v, want ErrMalformedFrame", codec.Name(), err)
				}
				continue
			}
			switch m.Type {
			case TypeHello, TypeUtilizationBatch, TypeRates, TypeShutdown:
				// A decoded message must survive binary re-encoding (JSON
				// is excluded: it cannot represent non-finite floats).
				if _, err := Binary.AppendEncode(nil, &m); err != nil {
					t.Fatalf("%s-decoded message fails binary re-encode: %v", codec.Name(), err)
				}
			default: //eucon:exhaustive-default fuzz oracle: any other type is a decoder bug
				t.Fatalf("%s accepted unknown type %d", codec.Name(), m.Type)
			}
		}
	})
}

// FuzzBinaryRoundTrip fuzzes structured batch fields through a full
// encode/decode cycle.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(0, 0, 0.0, 0.5, 3)
	f.Add(1023, 200, 0.97, 0.0, 1)
	f.Fuzz(func(t *testing.T, proc, first int, u0, u1 float64, n int) {
		if proc < 0 || first < 0 || n < 1 || n > 256 {
			return
		}
		samples := make([]float64, n)
		for i := range samples {
			if i%2 == 0 {
				samples[i] = u0
			} else {
				samples[i] = u1
			}
		}
		want := &Message{Type: TypeUtilizationBatch, Batch: UtilizationBatch{Processor: proc, First: first, Samples: samples}}
		body, err := Binary.AppendEncode(nil, want)
		if err != nil {
			return // out-of-range fields (e.g. > uint32) may be rejected
		}
		var got Message
		if err := Binary.Decode(body, &got); err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if got.Batch.Processor != proc || got.Batch.First != first || !equalFloats(got.Batch.Samples, samples) {
			t.Fatalf("round trip mismatch: %+v", got.Batch)
		}
	})
}

// FuzzReceiveSegmented feeds a stream of frames through ReceiveInto in
// Reads cut at fuzzer-chosen boundaries (segment i is cuts[i]+1 bytes, the
// rest arrives at once). Whatever the cuts, the frames read must be the
// ones a direct codec.Decode of each body gives, and a stream that fails
// must fail closed with the error the uncut stream gives. The seeds frame
// every fixture, nasty bodies, an oversized prefix and truncated tails.
func FuzzReceiveSegmented(f *testing.F) {
	for c, codec := range []Codec{Binary, BinaryV2, JSONv0} {
		stream, _ := fixtureStream(f, codec)
		f.Add(uint8(c), stream, []byte{0})
		f.Add(uint8(c), stream, []byte{2, 7, 0, 30, 1})
		f.Add(uint8(c), stream[:len(stream)-3], []byte{5})
	}
	hostile := func(bodies ...[]byte) []byte {
		var s []byte
		for _, b := range bodies {
			s = binary.BigEndian.AppendUint32(s, uint32(len(b)))
			s = append(s, b...)
		}
		return s
	}
	valid := appendFrame(f, nil, Binary, &Message{Type: TypeRates, Rates: Rates{Period: 3, Values: []float64{0.5}}})
	f.Add(uint8(0), append(hostile([]byte{binaryVersion, 0xff, 0xff}, nil), valid...), []byte{1, 3})
	f.Add(uint8(1), append(hostile([]byte{binaryV2Version, byte(TypeRates), 9, rateFlagSparse, 0x80}), valid...), []byte{0, 0, 9})
	f.Add(uint8(0), append(append([]byte(nil), valid...), binary.BigEndian.AppendUint32(nil, MaxFrameSize+1)...), []byte{4})
	f.Add(uint8(2), hostile([]byte(`{`), []byte(`{"type":"shutdown"}`)), []byte{})

	f.Fuzz(func(t *testing.T, c uint8, stream, cuts []byte) {
		codec := []Codec{Binary, BinaryV2, JSONv0}[c%3]
		segs := make([]int, len(cuts))
		for i, b := range cuts {
			segs[i] = int(b) + 1
		}
		whole := receiveAll(NewConn(&scriptConn{data: stream}, WithConnCodec(codec)))
		cut := receiveAll(NewConn(&scriptConn{data: stream, segs: segs}, WithConnCodec(codec)))
		if err := sameOutcomes(whole, decodeDirect(codec, stream)); err != nil {
			t.Fatalf("uncut stream against direct decoding: %v", err)
		}
		if err := sameOutcomes(cut, whole); err != nil {
			t.Fatalf("cut stream against the uncut one: %v", err)
		}
	})
}
