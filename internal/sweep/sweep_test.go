package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"kyoto/internal/pmc"
)

// fakeSweep squares its job indices: cheap, deterministic, and the merge
// result (the sum of squares) is order-sensitive enough to catch
// reassembly bugs.
type fakeSweep struct {
	name   string
	jobs   int
	runs   atomic.Int64
	merged []int
	failAt int // job index whose Run errors; -1 disables
}

func newFakeSweep(jobs int) *fakeSweep {
	return &fakeSweep{name: "fake", jobs: jobs, failAt: -1}
}

func (f *fakeSweep) Name() string { return f.name }

func (f *fakeSweep) Plan() []Job {
	plan := make([]Job, f.jobs)
	for i := range plan {
		plan[i] = Job{Sweep: f.name, Key: fmt.Sprintf("job/%d", i), Index: i}
	}
	return plan
}

func (f *fakeSweep) Run(job Job) (json.RawMessage, error) {
	f.runs.Add(1)
	if job.Index == f.failAt {
		return nil, fmt.Errorf("boom at %d", job.Index)
	}
	return json.Marshal(job.Index * job.Index)
}

func (f *fakeSweep) Merge(payloads []json.RawMessage) error {
	f.merged = make([]int, len(payloads))
	for i, p := range payloads {
		if err := json.Unmarshal(p, &f.merged[i]); err != nil {
			return err
		}
	}
	return nil
}

func TestEngineRunMatchesShardedMerge(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 7} {
		whole := newFakeSweep(7)
		if err := (Engine{Workers: 1}).Run(whole); err != nil {
			t.Fatal(err)
		}
		parts := newFakeSweep(7)
		envs := make([]Envelope, shards)
		for k := 0; k < shards; k++ {
			env, err := Engine{Workers: 2}.RunShard(parts, k, shards)
			if err != nil {
				t.Fatal(err)
			}
			if env.Shard != k || env.Shards != shards || env.PlanJobs != 7 {
				t.Fatalf("envelope metadata wrong: %+v", env)
			}
			envs[k] = env
		}
		if err := Merge(parts, envs); err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if fmt.Sprint(parts.merged) != fmt.Sprint(whole.merged) {
			t.Fatalf("%d shards: merged %v, unsharded %v", shards, parts.merged, whole.merged)
		}
		if got := parts.runs.Load(); got != 7 {
			t.Fatalf("%d shards ran %d jobs, want exactly 7", shards, got)
		}
	}
}

func TestMergedFingerprintIsShardCountInvariant(t *testing.T) {
	base, err := Engine{}.RunShard(newFakeSweep(6), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MergedFingerprint([]Envelope{base})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 6} {
		envs := make([]Envelope, shards)
		for k := range envs {
			if envs[k], err = (Engine{}).RunShard(newFakeSweep(6), k, shards); err != nil {
				t.Fatal(err)
			}
		}
		got, err := MergedFingerprint(envs)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%d shards: merged fingerprint %s, want %s", shards, got, want)
		}
	}
}

func TestMergeRejectsBrokenEnvelopeSets(t *testing.T) {
	s := newFakeSweep(4)
	e0, err := Engine{}.RunShard(s, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := Engine{}.RunShard(s, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		envs func() []Envelope
		want string
	}{
		{"missing shard", func() []Envelope { return []Envelope{e0} }, "missing shard"},
		{"duplicate shard", func() []Envelope { return []Envelope{e0, e0} }, "supplied twice"},
		{"foreign sweep", func() []Envelope {
			bad := e0
			bad.Sweep = "other"
			return []Envelope{bad, e1}
		}, "belongs to sweep"},
		{"disagreeing shard counts", func() []Envelope {
			bad := e1
			bad.Shards = 3
			return []Envelope{e0, bad}
		}, "disagree"},
		{"plan size mismatch", func() []Envelope {
			bad := e0
			bad.PlanJobs = 9
			return []Envelope{bad, e1}
		}, "same flags"},
		{"corrupted payload", func() []Envelope {
			bad := e0
			bad.Jobs = append([]JobResult(nil), e0.Jobs...)
			bad.Jobs[0].Payload = json.RawMessage("12345")
			return []Envelope{bad, e1}
		}, "fingerprint"},
		{"none at all", func() []Envelope { return nil }, "no shard envelopes"},
	}
	for _, tc := range cases {
		err := Merge(newFakeSweep(4), tc.envs())
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestRunShardValidatesArguments(t *testing.T) {
	s := newFakeSweep(3)
	if _, err := (Engine{}).RunShard(s, 0, 0); err == nil {
		t.Fatal("0 shards must fail")
	}
	if _, err := (Engine{}).RunShard(s, 3, 3); err == nil {
		t.Fatal("shard == shards must fail")
	}
	if _, err := (Engine{}).RunShard(s, -1, 3); err == nil {
		t.Fatal("negative shard must fail")
	}
	s.failAt = 1
	if _, err := (Engine{}).RunShard(s, 0, 1); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("job failure must propagate, got %v", err)
	}
}

func TestEnvelopeFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := newFakeSweep(5)
	for k := 0; k < 2; k++ {
		env, err := Engine{}.RunShard(s, k, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.WriteFile(filepath.Join(dir, fmt.Sprintf("shard-%d.json", k)), nil); err != nil {
			t.Fatal(err)
		}
	}
	envs, err := ReadEnvelopes([]string{filepath.Join(dir, "shard-*.json")})
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 2 {
		t.Fatalf("glob read %d envelopes, want 2", len(envs))
	}
	merged := newFakeSweep(5)
	if err := Merge(merged, envs); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(merged.merged) != "[0 1 4 9 16]" {
		t.Fatalf("merged %v", merged.merged)
	}

	if _, err := ReadEnvelopes([]string{filepath.Join(dir, "nope-*.json")}); err == nil {
		t.Fatal("empty glob must fail loudly")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"wrong"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEnvelope(bad); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong schema must fail, got %v", err)
	}
}

// TestDispatchModes drives the CLIs' one dispatcher through its three
// modes: shard runs write envelopes and return nil, the merge of those
// files and the in-process run (with a checkpoint) both fold the whole
// plan and return what they merged, and -shard with -merge is refused.
func TestDispatchModes(t *testing.T) {
	dir := t.TempDir()
	for k := 0; k < 2; k++ {
		var stdout bytes.Buffer
		out := filepath.Join(dir, fmt.Sprintf("shard-%d.json", k))
		envs, err := Dispatch{Shard: fmt.Sprintf("%d/2", k), ShardOut: out}.Run(newFakeSweep(5), &stdout)
		if err != nil || envs != nil || stdout.Len() != 0 {
			t.Fatalf("shard %d/2: envs %v, stdout %q, err %v", k, envs, stdout.String(), err)
		}
	}
	merged := newFakeSweep(5)
	envs, err := Dispatch{Merge: filepath.Join(dir, "shard-*.json")}.Run(merged, nil)
	if err != nil || len(envs) != 2 || fmt.Sprint(merged.merged) != "[0 1 4 9 16]" {
		t.Fatalf("merge: %d envelopes, merged %v, err %v", len(envs), merged.merged, err)
	}
	ck := filepath.Join(dir, "ck.json")
	whole := newFakeSweep(5)
	envs, err = Dispatch{Checkpoint: ck}.Run(whole, nil)
	if err != nil || len(envs) != 1 || fmt.Sprint(whole.merged) != "[0 1 4 9 16]" {
		t.Fatalf("in-process: %d envelopes, merged %v, err %v", len(envs), whole.merged, err)
	}
	if final, err := ReadEnvelope(ck); err != nil || final.Fingerprint != envs[0].Fingerprint {
		t.Fatalf("checkpoint is not the finished envelope: %v", err)
	}
	if _, err := (Dispatch{Shard: "0/2", Merge: ck}).Run(newFakeSweep(5), nil); err == nil {
		t.Fatal("-shard with -merge must fail")
	}
}

func TestParseShardSpec(t *testing.T) {
	k, n, err := ParseShardSpec("2/5")
	if err != nil || k != 2 || n != 5 {
		t.Fatalf("2/5 -> %d/%d, %v", k, n, err)
	}
	for _, bad := range []string{"", "3", "a/b", "1/0", "5/5", "-1/4", "1/2/3"} {
		if _, _, err := ParseShardSpec(bad); err == nil {
			t.Fatalf("%q must be rejected", bad)
		}
	}
}

func TestForEachSerialAndParallel(t *testing.T) {
	for _, workers := range []int{1, 0, 4} {
		var sum atomic.Int64
		if err := ForEach(100, workers, func(i int) error {
			sum.Add(int64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if sum.Load() != 4950 {
			t.Fatalf("workers=%d: sum %d", workers, sum.Load())
		}
	}
	err := ForEach(10, 3, func(i int) error {
		if i >= 4 {
			return fmt.Errorf("fail %d", i)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "fail 4") {
		t.Fatalf("lowest-indexed failure must win, got %v", err)
	}
}

// The fused compact-and-fold in FingerprintPayload must produce exactly
// what the original implementation produced — json.Compact into a
// buffer, then fold — for any valid JSON, or every committed envelope
// and golden fingerprint would shift.
func TestFingerprintPayloadMatchesCompactThenFold(t *testing.T) {
	reference := func(payload []byte) string {
		var buf bytes.Buffer
		if err := json.Compact(&buf, payload); err == nil {
			payload = buf.Bytes()
		}
		h := pmc.FoldSeed
		for _, b := range payload {
			h = pmc.FoldUint64(h, uint64(b))
		}
		return fmt.Sprintf("%016x", h)
	}
	cases := []string{
		`{}`,
		`{"seed":5}`,
		"{\n  \"seed\": 5,\n  \"apps\": [\"gcc\", \"lbm\"]\n}",
		`{"s":"spaces  inside\tstay","esc":"a \"quoted\" part"}`,
		`{"backslash":"ends with \\", "next": " \t "}`,
		`{"unicode":"é café — ☕","nested":{"a":[1,2,{"b":" x "}]}}`,
		`[1, 2,    3,
			{"deep": {"deeper": "  \\\" tricky "}}]`,
		`"just a string with \" and \\ and spaces  "`,
		`  42  `,
	}
	for _, c := range cases {
		if got, want := FingerprintPayload([]byte(c)), reference([]byte(c)); got != want {
			t.Errorf("payload %q: fused fold %s, reference %s", c, got, want)
		}
	}
}
