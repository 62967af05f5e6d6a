package snapshot_test

// The bit-identity contract, at the hypervisor level: for every golden
// scenario (the same three worlds internal/hv pins fingerprints for), on
// both fidelity tiers, snapshotting at several mid-run ticks and
// restoring into a fresh world must (a) leave the snapshotted world's
// own future unchanged, (b) give the restored world the exact same
// future, and (c) re-capturing the restored world immediately must
// reproduce the snapshot byte for byte. Run under -race in CI.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"kyoto/internal/arrivals"
	"kyoto/internal/cache"
	"kyoto/internal/cluster"
	"kyoto/internal/hv"
	"kyoto/internal/machine"
	"kyoto/internal/pmc"
	"kyoto/internal/snapshot"
	"kyoto/internal/sweep"
	"kyoto/internal/vm"
)

const (
	testSeed  = 7
	testTicks = 60
)

// scenarios mirrors internal/hv's golden worlds: solo, contention pair,
// and the fully booked Kyoto host — the three commit-pinned futures.
var scenarios = []struct {
	name  string
	specs []vm.Spec
	kyoto bool
}{
	{"solo-gcc", []vm.Spec{
		{Name: "solo", App: "gcc", Pins: []int{0}},
	}, false},
	{"gcc-lbm-contention", []vm.Spec{
		{Name: "victim", App: "gcc", Pins: []int{0}},
		{Name: "attacker", App: "lbm", Pins: []int{1}},
	}, false},
	{"kyoto-admission-4vm", []vm.Spec{
		{Name: "vm0", App: "gcc", Pins: []int{0}, LLCCap: 250},
		{Name: "vm1", App: "lbm", Pins: []int{1}, LLCCap: 250},
		{Name: "vm2", App: "omnetpp", Pins: []int{2}, LLCCap: 250},
		{Name: "vm3", App: "blockie", Pins: []int{3}, LLCCap: 250},
	}, true},
}

// buildHost constructs the scenario's host with no VMs — the shape a
// restore target must have (RestoreState rebuilds the VMs itself).
func buildHost(t testing.TB, scIdx int, fid cache.Fidelity) *cluster.Node {
	t.Helper()
	n, err := cluster.NewNode(cluster.NodeConfig{
		Machine: machine.TableOne(), Seed: testSeed, Fidelity: fid, EnableKyoto: scenarios[scIdx].kyoto,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// build constructs the scenario's world with its VMs placed, ready to run.
func build(t testing.TB, scIdx int, fid cache.Fidelity) *cluster.Node {
	t.Helper()
	out := buildHost(t, scIdx, fid)
	for _, spec := range scenarios[scIdx].specs {
		if _, err := out.World.AddVM(spec); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// fingerprint folds every vCPU's counters and every VM's punishment
// count — the identity the goldens pin, extended with the Kyoto outcome.
func fingerprint(w *hv.World) string {
	h := pmc.FoldSeed
	for _, v := range w.VCPUs() {
		h = v.Counters.Fold(h)
	}
	for _, m := range w.VMs() {
		h = pmc.FoldUint64(h, m.Punishments)
	}
	return fmt.Sprintf("%016x", h)
}

func TestWorldRoundTripBitIdentity(t *testing.T) {
	for scIdx := range scenarios {
		for _, fid := range []cache.Fidelity{cache.FidelityExact, cache.FidelityAnalytic} {
			t.Run(fmt.Sprintf("%s/%v", scenarios[scIdx].name, fid), func(t *testing.T) {
				ref := build(t, scIdx, fid)
				ref.World.RunTicks(testTicks)
				want := fingerprint(ref.World)

				for _, snapTick := range []int{0, 17, 41} {
					// (a) capturing must not perturb the captured world.
					a := build(t, scIdx, fid)
					a.World.RunTicks(snapTick)
					data, err := snapshot.CaptureWorld(a, "test-config")
					if err != nil {
						t.Fatalf("tick %d: capture: %v", snapTick, err)
					}
					a.World.RunTicks(testTicks - snapTick)
					if got := fingerprint(a.World); got != want {
						t.Fatalf("tick %d: snapshotted world diverged after capture: %s vs %s", snapTick, got, want)
					}

					// (b) the restored world continues bit-identically.
					b := buildHost(t, scIdx, fid)
					if err := snapshot.RestoreWorld(b, "test-config", data); err != nil {
						t.Fatalf("tick %d: restore: %v", snapTick, err)
					}
					if b.World.Now() != uint64(snapTick) {
						t.Fatalf("tick %d: restored clock at %d", snapTick, b.World.Now())
					}
					b.World.RunTicks(testTicks - snapTick)
					if got := fingerprint(b.World); got != want {
						t.Fatalf("tick %d: restored world diverged: %s vs %s", snapTick, got, want)
					}

					// (c) re-capturing a freshly restored world reproduces
					// the snapshot byte for byte.
					c := buildHost(t, scIdx, fid)
					if err := snapshot.RestoreWorld(c, "test-config", data); err != nil {
						t.Fatalf("tick %d: second restore: %v", snapTick, err)
					}
					again, err := snapshot.CaptureWorld(c, "test-config")
					if err != nil {
						t.Fatalf("tick %d: recapture: %v", snapTick, err)
					}
					if !bytes.Equal(again, data) {
						t.Fatalf("tick %d: capture(restore(snap)) differs from snap", snapTick)
					}
				}
			})
		}
	}
}

// TestRestoreFidelityMismatch pins the cross-tier failure mode below the
// config digest: even with a matching digest string, restoring an
// analytic snapshot into an exact world (or vice versa) must fail
// cleanly on the state shape.
func TestRestoreFidelityMismatch(t *testing.T) {
	a := build(t, 0, cache.FidelityAnalytic)
	a.World.RunTicks(5)
	data, err := snapshot.CaptureWorld(a, "same-digest")
	if err != nil {
		t.Fatal(err)
	}
	b := buildHost(t, 0, cache.FidelityExact)
	if err := snapshot.RestoreWorld(b, "same-digest", data); err == nil {
		t.Fatal("restoring an analytic snapshot into an exact world succeeded")
	}

	c := build(t, 0, cache.FidelityExact)
	c.World.RunTicks(5)
	data, err = snapshot.CaptureWorld(c, "same-digest")
	if err != nil {
		t.Fatal(err)
	}
	d := buildHost(t, 0, cache.FidelityAnalytic)
	if err := snapshot.RestoreWorld(d, "same-digest", data); err == nil {
		t.Fatal("restoring an exact snapshot into an analytic world succeeded")
	}
}

// TestRestoreRequiresFreshWorld pins the restore-onto-used-world error.
func TestRestoreRequiresFreshWorld(t *testing.T) {
	a := build(t, 0, cache.FidelityExact)
	a.World.RunTicks(3)
	data, err := snapshot.CaptureWorld(a, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	b := build(t, 0, cache.FidelityExact)
	b.World.RunTicks(1)
	if err := snapshot.RestoreWorld(b, "cfg", data); err == nil {
		t.Fatal("restoring onto a world that already ran succeeded")
	}
}

func TestDecodeValidation(t *testing.T) {
	a := build(t, 0, cache.FidelityExact)
	a.World.RunTicks(3)
	data, err := snapshot.CaptureWorld(a, "cfg")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		kind string
		cfg  string
	}{
		{"truncated", data[:len(data)/2], snapshot.KindWorld, "cfg"},
		{"empty", nil, snapshot.KindWorld, "cfg"},
		{"not-json", []byte("not a snapshot"), snapshot.KindWorld, "cfg"},
		{"bit-flip", flipByte(data), snapshot.KindWorld, "cfg"},
		{"version-skew", bytes.Replace(data, []byte(snapshot.Schema), []byte("kyoto-snapshot-v999"), 1), snapshot.KindWorld, "cfg"},
		{"kind-mismatch", data, snapshot.KindFleet, "cfg"},
		{"config-mismatch", data, snapshot.KindWorld, "other-cfg"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := snapshot.Decode(tc.data, tc.kind, tc.cfg); err == nil {
				t.Fatalf("Decode accepted a %s envelope", tc.name)
			}
		})
	}
}

// TestDecodeRefusesV1Envelope: a v1 checkpoint, whose caches carried
// replacement state this format no longer has, is refused by its schema
// name, not misreported as a configuration mismatch.
func TestDecodeRefusesV1Envelope(t *testing.T) {
	data, err := snapshot.Encode(snapshot.KindWorld, "cfg", map[string]int{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Replace(data, []byte(snapshot.Schema), []byte("kyoto-snapshot-v1"), 1)
	_, err = snapshot.Decode(v1, snapshot.KindWorld, "other-cfg")
	if err == nil || !strings.Contains(err.Error(), `unsupported schema "kyoto-snapshot-v1"`) {
		t.Fatalf("Decode(v1 envelope) error = %v, want the unsupported-schema error", err)
	}
}

// flipByte flips one bit in the middle of the payload region.
func flipByte(data []byte) []byte {
	out := append([]byte(nil), data...)
	out[len(out)/2] ^= 0x40
	return out
}

// referenceEncode is the envelope encoder Encode replaced: marshal the
// payload, then marshal the whole Envelope around it. Encode writes the
// envelope around the payload bytes instead, and must stay byte-equal
// to this for every input, or every committed checkpoint would change.
func referenceEncode(tb testing.TB, kind, configDigest string, payload any) []byte {
	tb.Helper()
	raw, err := json.Marshal(payload)
	if err != nil {
		tb.Fatal(err)
	}
	out, err := json.Marshal(snapshot.Envelope{
		Schema:      snapshot.Schema,
		Kind:        kind,
		Config:      configDigest,
		Fingerprint: sweep.FingerprintPayload(raw),
		Payload:     raw,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// requireReferenceEncoding fails unless Encode reproduces referenceEncode.
func requireReferenceEncoding(t *testing.T, kind, configDigest string, payload any) []byte {
	t.Helper()
	got, err := snapshot.Encode(kind, configDigest, payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceEncode(t, kind, configDigest, payload); !bytes.Equal(got, want) {
		t.Fatalf("Encode(%q, %q) differs from the reference encoder:\n%.300s\nvs\n%.300s", kind, configDigest, got, want)
	}
	return got
}

// testFleet builds a two-host Kyoto fleet on the given tier with four
// VMs placed and 20 ticks run.
func testFleet(t testing.TB, fid cache.Fidelity) *cluster.Fleet {
	t.Helper()
	f, err := cluster.New(cluster.Config{
		Hosts:    2,
		Template: cluster.HostTemplate{Seed: testSeed, EnableKyoto: true, Fidelity: fid},
		Placer:   cluster.Spread{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, app := range []string{"gcc", "lbm", "omnetpp", "blockie"} {
		req := cluster.Request{Spec: vm.Spec{Name: fmt.Sprintf("vm%d", i), App: app, LLCCap: 250}}
		if _, err := f.Place(req); err != nil {
			t.Fatal(err)
		}
	}
	f.RunTicks(20)
	return f
}

// TestEncodeMatchesReference holds Encode to the reference encoder's
// bytes on real captures — every golden world and a fleet, on both
// tiers — and on header strings that json.Marshal escapes: HTML
// characters, U+2028/U+2029, quotes, backslashes, control bytes and
// invalid UTF-8.
func TestEncodeMatchesReference(t *testing.T) {
	for _, fid := range []cache.Fidelity{cache.FidelityExact, cache.FidelityAnalytic} {
		for scIdx := range scenarios {
			t.Run(fmt.Sprintf("world/%s/%v", scenarios[scIdx].name, fid), func(t *testing.T) {
				w := build(t, scIdx, fid)
				w.World.RunTicks(17)
				p, err := w.CaptureState()
				if err != nil {
					t.Fatal(err)
				}
				enc := requireReferenceEncoding(t, snapshot.KindWorld, "cfg", p)
				captured, err := snapshot.CaptureWorld(w, "cfg")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(captured, enc) {
					t.Fatal("CaptureWorld differs from Encode of the same state")
				}
			})
		}
		t.Run(fmt.Sprintf("fleet/%v", fid), func(t *testing.T) {
			f := testFleet(t, fid)
			st, err := f.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			enc := requireReferenceEncoding(t, snapshot.KindFleet, "cfg", st)
			captured, err := snapshot.CaptureFleet(f, "cfg")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(captured, enc) {
				t.Fatal("CaptureFleet differs from Encode of the same state")
			}
		})
	}
	t.Run("escaped-headers", func(t *testing.T) {
		payload := map[string]string{"note": "<b>&</b> \u2028 \u2029 \"q\" \\"}
		for _, s := range []string{
			"", "<script>", "a&b", "x>y", "line\u2028sep", "para\u2029sep",
			`quote"back\slash`, "tab\tnl\n\x01", "bad\xffutf8", "é☕",
		} {
			requireReferenceEncoding(t, s, "cfg", payload)
			requireReferenceEncoding(t, snapshot.KindFleet, s, payload)
		}
	})
}

// encodeFixture is a fleet snapshot taken halfway through an analytic
// churn replay: 12 hosts, with the VMs resident at that moment.
func encodeFixture(b *testing.B) *cluster.FleetState {
	b.Helper()
	f, err := cluster.New(cluster.Config{
		Hosts:    12,
		Template: cluster.HostTemplate{Seed: testSeed, EnableKyoto: true, Fidelity: cache.FidelityAnalytic},
		Placer:   cluster.Admission{},
		Workers:  1,
	})
	if err != nil {
		b.Fatal(err)
	}
	tr := arrivals.Synthesize(arrivals.SynthConfig{Seed: testSeed, VMs: 2400, Horizon: 2000, MeanLifetime: 40})
	p, err := arrivals.NewReplayer(f, tr, arrivals.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.StepUntil(1000); err != nil {
		b.Fatal(err)
	}
	st, err := f.CaptureState()
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func BenchmarkSnapshotEncode(b *testing.B) {
	st := encodeFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := snapshot.Encode(snapshot.KindFleet, "cfg", st)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

func BenchmarkSnapshotDecode(b *testing.B) {
	data, err := snapshot.Encode(snapshot.KindFleet, "cfg", encodeFixture(b))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Decode(data, snapshot.KindFleet, "cfg"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFingerprintPayload(b *testing.B) {
	raw, err := json.Marshal(encodeFixture(b))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep.FingerprintPayload(raw)
	}
}
