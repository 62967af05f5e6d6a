package snapshot_test

// Fuzzing the envelope codec. Two properties: Decode never panics on any
// input — truncated, bit-flipped, version-skewed, or valid — and always
// fails cleanly on anything that is not an intact envelope; and the
// encode→decode→encode composition is a fixpoint — one Encode
// canonicalizes (compacts, escapes), after which re-encoding the decoded
// payload reproduces the bytes exactly — and byte-equal to the
// reference encoder in snapshot_test.go. A committed seed corpus under
// testdata/fuzz pins the interesting failure shapes.

import (
	"bytes"
	"encoding/json"
	"testing"

	"kyoto/internal/snapshot"
)

// validEnvelope builds a small intact envelope for seeding.
func validEnvelope(tb testing.TB) []byte {
	data, err := snapshot.Encode(snapshot.KindWorld, "cfg", map[string]int{"x": 1})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func addSeeds(f *testing.F) {
	valid := validEnvelope(f)
	f.Add([]byte(nil))
	f.Add([]byte("not a snapshot"))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(flipByte(valid))
	f.Add(bytes.Replace(valid, []byte(snapshot.Schema), []byte("kyoto-snapshot-v999"), 1))
	f.Add([]byte(`{"schema":"kyoto-snapshot-v2","kind":"world","config":"cfg","fingerprint":"0","payload":null}`))
	f.Add([]byte(`{"schema":"kyoto-snapshot-v2","kind":"fleet","config":"cfg","fingerprint":"0","payload":{}}`))
	if odd, err := snapshot.Encode("<k&ind>\u2028", "c>fg\u2029", map[string]string{"a<": "&\u2028"}); err == nil {
		f.Add(odd)
	}
}

func FuzzSnapshotDecode(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []string{snapshot.KindWorld, snapshot.KindFleet} {
			payload, err := snapshot.Decode(data, kind, "cfg")
			if err != nil {
				continue
			}
			// Whatever Decode accepts must be intact: the payload it
			// returns re-encodes into a decodable envelope.
			enc, err := snapshot.Encode(kind, "cfg", payload)
			if err != nil {
				t.Fatalf("accepted payload does not re-encode: %v", err)
			}
			if _, err := snapshot.Decode(enc, kind, "cfg"); err != nil {
				t.Fatalf("re-encoded envelope does not decode: %v", err)
			}
		}
	})
}

func FuzzSnapshotRoundTrip(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var env snapshot.Envelope
		if json.Unmarshal(data, &env) != nil {
			return
		}
		payload, err := snapshot.Decode(data, env.Kind, env.Config)
		if err != nil {
			return
		}
		// First Encode canonicalizes; from there the composition must be
		// byte-stable. Every Encode must also match the reference
		// encoder, here on whatever kind and config strings the input
		// carried.
		enc1, err := snapshot.Encode(env.Kind, env.Config, payload)
		if err != nil {
			t.Fatalf("encode of decoded payload: %v", err)
		}
		if want := referenceEncode(t, env.Kind, env.Config, payload); !bytes.Equal(enc1, want) {
			t.Fatalf("Encode differs from the reference encoder:\n%s\nvs\n%s", enc1, want)
		}
		p2, err := snapshot.Decode(enc1, env.Kind, env.Config)
		if err != nil {
			t.Fatalf("decode of canonical envelope: %v", err)
		}
		enc2, err := snapshot.Encode(env.Kind, env.Config, p2)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encode∘decode not a fixpoint:\n%s\nvs\n%s", enc1, enc2)
		}
	})
}
