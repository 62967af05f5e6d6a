package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseShardSpec pins the shard-spec parser: arbitrary input must
// never panic, and any accepted spec must be a well-formed "k/n" with
// 0 <= k < n that survives a format/reparse round trip.
func FuzzParseShardSpec(f *testing.F) {
	for _, seed := range []string{"0/1", "3/4", "0/16", "", "1", "a/b", "1/0", "-1/4", "4/4", "1/2/3", "01/04", " 1/2", "+1/2", "9999999999999999999/2"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		shard, shards, err := ParseShardSpec(spec)
		if err != nil {
			return
		}
		if shards < 1 || shard < 0 || shard >= shards {
			t.Fatalf("accepted %q as out-of-range %d/%d", spec, shard, shards)
		}
		shard2, shards2, err := ParseShardSpec(fmt.Sprintf("%d/%d", shard, shards))
		if err != nil || shard2 != shard || shards2 != shards {
			t.Fatalf("%q parsed to %d/%d, which reparses to %d/%d (%v)", spec, shard, shards, shard2, shards2, err)
		}
	})
}

// FuzzShardEnvelopeRoundTrip pins the envelope file format from both
// directions. Arbitrary bytes fed to ReadEnvelope must never panic, and
// anything it accepts must carry the canonical schema; the same bytes
// used as a checkpoint must be refused or resume to exactly the
// cold-run envelope. A well-formed envelope built around the fuzzed
// payload must survive WriteFile -> ReadEnvelope bit-exactly, and its
// payload fingerprint must be stable across the trip and insensitive to
// JSON whitespace.
func FuzzShardEnvelopeRoundTrip(f *testing.F) {
	f.Add([]byte(`{"metric": 0.54}`))
	f.Add([]byte(`[1, 2, 3]`))
	f.Add([]byte(`"solo/gcc"`))
	f.Add([]byte(`{"schema":"kyoto-sweep-shard-v1","sweep":"x","shard":0,"shards":1,"plan_jobs":1,"jobs":[]}`))
	f.Add([]byte(`{"schema":"kyoto-sweep-shard-v1","sweep":"fake","shard":0,"shards":1,"plan_jobs":3,"jobs":null}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	// Real checkpoints of the sweep direction 1 resumes: complete, and
	// left behind by a run that died at job 2.
	coldEnv, err := Engine{Workers: 1}.RunShard(newFakeSweep(3), 0, 1)
	if err != nil {
		f.Fatal(err)
	}
	cold, _ := json.Marshal(coldEnv)
	f.Add(append(cold, '\n'))
	dying := newFakeSweep(3)
	dying.failAt = 2
	partialPath := filepath.Join(f.TempDir(), "partial.json")
	if _, _, err := (Engine{Workers: 1}).RunShardResumable(dying, 0, 1, partialPath, 1); err == nil {
		f.Fatal("failing run succeeded")
	}
	partial, err := os.ReadFile(partialPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(partial)
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()

		// Direction 1: raw bytes as an envelope file. Must reject or
		// yield a schema-valid envelope — never panic.
		rawPath := filepath.Join(dir, "raw.json")
		if err := os.WriteFile(rawPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if env, err := ReadEnvelope(rawPath); err == nil && env.Schema != EnvelopeSchema {
			t.Fatalf("accepted envelope with schema %q", env.Schema)
		}
		// The same file as a checkpoint: refused, or resumed to the
		// cold-run envelope whatever mix of cached and fresh jobs.
		if env, _, err := (Engine{Workers: 1}).RunShardResumable(newFakeSweep(3), 0, 1, rawPath, 1); err == nil {
			if got, _ := json.Marshal(env); !bytes.Equal(got, cold) {
				t.Fatalf("checkpoint %q resumed to\n%s\nwant the cold run's\n%s", raw, got, cold)
			}
		}

		// Direction 2: the fuzzed bytes as a job payload inside a
		// canonical envelope, when they are valid JSON.
		if !json.Valid(raw) {
			return
		}
		payload := json.RawMessage(raw)
		fp := FingerprintPayload(payload)
		if fp != FingerprintPayload(payload) {
			t.Fatal("fingerprint not deterministic")
		}
		// Whitespace-insensitivity: json.Indent reformats the byte stream
		// without reordering tokens, so the fingerprint must not move.
		var indented bytes.Buffer
		if err := json.Indent(&indented, raw, "", "  "); err == nil {
			if FingerprintPayload(indented.Bytes()) != fp {
				t.Fatalf("fingerprint of %q changed under re-indentation", raw)
			}
		}
		env := Envelope{
			Schema:   EnvelopeSchema,
			Sweep:    "fuzz",
			Shard:    0,
			Shards:   1,
			PlanJobs: 1,
			Jobs: []JobResult{{
				Key:         "job/0",
				Index:       0,
				Fingerprint: fp,
				Payload:     payload,
			}},
		}
		env.Fingerprint = foldFingerprints([]string{fp})
		path := filepath.Join(dir, "env.json")
		if err := env.WriteFile(path, nil); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEnvelope(path)
		if err != nil {
			t.Fatalf("canonical envelope rejected: %v", err)
		}
		// The payload may be re-indented by MarshalIndent, so compare
		// compacted payloads and everything else structurally.
		if FingerprintPayload(back.Jobs[0].Payload) != fp {
			t.Fatalf("payload fingerprint changed across file round trip")
		}
		back.Jobs[0].Payload = nil
		env.Jobs[0].Payload = nil
		if !reflect.DeepEqual(env, back) {
			t.Fatalf("envelope changed across round trip:\n%+v\n%+v", env, back)
		}
		// The merged fingerprint of the round-tripped envelope set must
		// still validate.
		if _, err := MergedFingerprint([]Envelope{back}); err != nil {
			t.Fatalf("round-tripped envelope fails merged fingerprint: %v", err)
		}
	})
}
