package lane

import (
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
