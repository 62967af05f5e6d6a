// Package snapshot serializes complete simulation states — a single
// World or a whole Fleet — into versioned, fingerprinted envelopes and
// restores them with bit-identity replay guarantees: a world restored
// from Restore(Snapshot(w)) under the same configuration continues
// exactly as w would have, tick for tick and bit for bit.
//
// The envelope carries three safeguards so a stale, corrupted or
// mismatched checkpoint fails loudly instead of silently diverging:
//
//   - Schema pins the format version; a snapshot from a future or past
//     incompatible format is rejected by name.
//   - Config is a digest of the normalized construction configuration
//     (machine, scheduler, Kyoto enforcement, seed, fidelity). Restoring
//     under any other configuration — a different seed, the other cache
//     tier — is refused before any state is touched.
//   - Fingerprint hashes the payload bytes (the same FNV-1a fold the
//     sweep envelopes use), so truncation and bit flips are detected.
//
// What a world snapshot contains: the exact set-associative cache arrays
// (or the analytic occupancy model, per the world's fidelity tier), every
// scheduler's per-vCPU and per-VM accounts, the Kyoto pollution ledgers,
// the monitor's sampler snapshots, each workload generator's PRNG cursor
// and phase position, VM/owner id allocators, pending wake-ups, and the
// per-core assignments. What it deliberately omits — per-tick scratch —
// is exactly the state that is provably dead at a tick boundary; see
// internal/hv/state.go.
package snapshot

import (
	"encoding/json"
	"fmt"

	"kyoto/internal/cluster"
	"kyoto/internal/sweep"
)

// Schema identifies the snapshot envelope format.
const Schema = "kyoto-snapshot-v2"

// Envelope kinds.
const (
	// KindWorld wraps one host's WorldPayload.
	KindWorld = "world"
	// KindFleet wraps a cluster.FleetState.
	KindFleet = "fleet"
)

// Envelope is the on-disk form of every snapshot.
type Envelope struct {
	// Schema is always Schema for this format version.
	Schema string `json:"schema"`
	// Kind says what the payload is (KindWorld, KindFleet).
	Kind string `json:"kind"`
	// Config digests the construction configuration the state belongs to.
	Config string `json:"config"`
	// Fingerprint hashes Payload (sweep.FingerprintPayload), detecting
	// truncation and corruption.
	Fingerprint string `json:"fingerprint"`
	// Payload is the serialized state.
	Payload json.RawMessage `json:"payload"`
}

// WorldPayload is a KindWorld envelope's payload: one Kyoto host's
// checkpoint, the same bytes a fleet snapshot holds per host.
type WorldPayload = cluster.NodeState

// ConfigDigest canonicalizes a configuration value to JSON and hashes
// it. Both sides of a checkpoint must digest the identically normalized
// configuration, which is the caller's contract (the public facade
// normalizes before digesting).
func ConfigDigest(cfg any) (string, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("snapshot: digesting config: %w", err)
	}
	return sweep.FingerprintPayload(raw), nil
}

// Encode wraps a payload value in a fingerprinted envelope. The bytes
// are exactly json.Marshal(Envelope{...}) of the same fields, but the
// payload is marshalled once and the envelope is written around it.
// Marshalling the full Envelope would re-scan, re-compact and re-copy
// the payload through json.RawMessage, and json.Marshal output is
// already compact and HTML-escaped, so that pass cannot change a byte.
// The header is the Envelope itself marshalled with a nil payload, so
// its field order and string escaping are the encoder's own; it ends in
// `null}`, which the payload bytes replace in an exactly sized buffer.
func Encode(kind, configDigest string, payload any) ([]byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding %s payload: %w", kind, err)
	}
	head, err := json.Marshal(Envelope{
		Schema:      Schema,
		Kind:        kind,
		Config:      configDigest,
		Fingerprint: sweep.FingerprintPayload(raw),
	})
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding %s envelope: %w", kind, err)
	}
	head = head[:len(head)-len("null}")]
	out := make([]byte, 0, len(head)+len(raw)+len("}"))
	return append(append(append(out, head...), raw...), '}'), nil
}

// Decode validates an envelope — schema, kind, configuration digest,
// payload fingerprint — and returns its payload. Every failure mode of a
// checkpoint file (truncated, bit-flipped, produced by another format
// version, taken under a different configuration or fidelity) is a clean
// error here, never a panic and never a silently diverging restore.
func Decode(data []byte, wantKind, wantConfig string) (json.RawMessage, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("snapshot: not a snapshot envelope (truncated or corrupted): %w", err)
	}
	if env.Schema != Schema {
		return nil, fmt.Errorf("snapshot: unsupported schema %q, this build reads %q", env.Schema, Schema)
	}
	if env.Kind != wantKind {
		return nil, fmt.Errorf("snapshot: envelope holds a %q snapshot, expected %q", env.Kind, wantKind)
	}
	if len(env.Payload) == 0 {
		return nil, fmt.Errorf("snapshot: envelope has no payload")
	}
	if got := sweep.FingerprintPayload(env.Payload); got != env.Fingerprint {
		return nil, fmt.Errorf("snapshot: payload does not match its fingerprint (%s vs %s) — file corrupted", got, env.Fingerprint)
	}
	if env.Config != wantConfig {
		return nil, fmt.Errorf("snapshot: snapshot was taken under a different configuration (config digest %s, restoring with %s) — the restore side must use the exact configuration of the checkpointed run, including seed and fidelity", env.Config, wantConfig)
	}
	return env.Payload, nil
}

// CaptureWorld snapshots one Kyoto host into an envelope. Call it only
// between ticks.
func CaptureWorld(n *cluster.Node, configDigest string) ([]byte, error) {
	p, err := n.CaptureState()
	if err != nil {
		return nil, err
	}
	return Encode(KindWorld, configDigest, p)
}

// RestoreWorld restores a world snapshot onto a freshly built host
// constructed from the identical configuration the digest was computed
// over.
func RestoreWorld(n *cluster.Node, configDigest string, data []byte) error {
	raw, err := Decode(data, KindWorld, configDigest)
	if err != nil {
		return err
	}
	var p WorldPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		return fmt.Errorf("snapshot: decoding world payload: %w", err)
	}
	return n.RestoreState(&p)
}

// CaptureFleet snapshots a whole fleet into an envelope. Call it only
// between RunTicks calls.
func CaptureFleet(f *cluster.Fleet, configDigest string) ([]byte, error) {
	st, err := f.CaptureState()
	if err != nil {
		return nil, err
	}
	return Encode(KindFleet, configDigest, st)
}

// RestoreFleet restores a fleet snapshot onto a freshly built fleet
// constructed from the identical configuration.
func RestoreFleet(f *cluster.Fleet, configDigest string, data []byte) error {
	raw, err := Decode(data, KindFleet, configDigest)
	if err != nil {
		return err
	}
	var st cluster.FleetState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("snapshot: decoding fleet payload: %w", err)
	}
	return f.RestoreState(&st)
}
