package sweep

// RunShardResumable contract tests on the fake sweep: a cold run's final
// envelope is byte-identical to plain RunShard; a run killed mid-shard
// leaves a checkpoint that a retry resumes from without re-running the
// completed jobs, and the resumed envelope is still byte-identical; and
// checkpoints from another sweep, shard slice or configuration are
// refused instead of silently discarded.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunShardResumableColdMatchesRunShard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	plain, err := Engine{Workers: 1}.RunShard(newFakeSweep(9), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	resumable, resumed, err := Engine{Workers: 1}.RunShardResumable(newFakeSweep(9), 0, 2, path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("cold start resumed %d jobs", resumed)
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(resumable)
	if string(a) != string(b) {
		t.Fatalf("resumable envelope differs from RunShard:\n%s\nvs\n%s", b, a)
	}

	// The final checkpoint file is the complete envelope: resuming from it
	// runs zero jobs and returns the identical envelope.
	again := newFakeSweep(9)
	env2, resumed2, err := Engine{Workers: 1}.RunShardResumable(again, 0, 2, path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if resumed2 != len(env2.Jobs) || again.runs.Load() != 0 {
		t.Fatalf("complete checkpoint re-ran jobs: resumed %d of %d, %d runs", resumed2, len(env2.Jobs), again.runs.Load())
	}
	c, _ := json.Marshal(env2)
	if string(c) != string(a) {
		t.Fatal("fully resumed envelope differs")
	}
}

func TestRunShardResumableKillAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	ref, err := Engine{Workers: 1}.RunShard(newFakeSweep(10), 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	// First attempt dies at job 6; with serial execution and a 1-job
	// checkpoint interval, jobs 0..5 are on disk.
	dying := newFakeSweep(10)
	dying.failAt = 6
	if _, _, err := (Engine{Workers: 1}).RunShardResumable(dying, 0, 1, path, 1); err == nil {
		t.Fatal("failing shard run succeeded")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint left behind: %v", err)
	}

	retry := newFakeSweep(10)
	env, resumed, err := Engine{Workers: 1}.RunShardResumable(retry, 0, 1, path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 6 {
		t.Fatalf("resumed %d jobs, want 6", resumed)
	}
	if got := retry.runs.Load(); got != 4 {
		t.Fatalf("retry ran %d jobs, want 4", got)
	}
	a, _ := json.Marshal(ref)
	b, _ := json.Marshal(env)
	if string(a) != string(b) {
		t.Fatal("resumed envelope differs from uninterrupted RunShard")
	}
	if err := Merge(newFakeSweep(10), []Envelope{env}); err != nil {
		t.Fatalf("resumed envelope does not merge: %v", err)
	}
}

func TestRunShardResumableRejectsMismatchedCheckpoints(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	if _, _, err := (Engine{Workers: 1}).RunShardResumable(newFakeSweep(8), 1, 2, path, 1); err != nil {
		t.Fatal(err)
	}

	cases := map[string]func() (Envelope, int, error){
		"other-shard": func() (Envelope, int, error) {
			return Engine{Workers: 1}.RunShardResumable(newFakeSweep(8), 0, 2, path, 1)
		},
		"other-shard-count": func() (Envelope, int, error) {
			return Engine{Workers: 1}.RunShardResumable(newFakeSweep(8), 1, 4, path, 1)
		},
		"other-plan": func() (Envelope, int, error) {
			return Engine{Workers: 1}.RunShardResumable(newFakeSweep(5), 1, 2, path, 1)
		},
		"other-sweep": func() (Envelope, int, error) {
			s := newFakeSweep(8)
			s.name = "different"
			return Engine{Workers: 1}.RunShardResumable(s, 1, 2, path, 1)
		},
	}
	for name, run := range cases {
		if _, _, err := run(); err == nil {
			t.Errorf("%s: mismatched checkpoint accepted", name)
		}
	}

	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := (Engine{Workers: 1}).RunShardResumable(newFakeSweep(8), 1, 2, corrupt, 1); err == nil {
		t.Error("corrupted checkpoint accepted")
	}

	if _, _, err := (Engine{Workers: 1}).RunShardResumable(newFakeSweep(8), 0, 1, filepath.Join(dir, "x.json"), 0); err == nil {
		t.Error("zero checkpoint interval accepted")
	}
}

func TestRunShardResumableParallelWorkers(t *testing.T) {
	// Concurrent completions interleave checkpoint writes; the final
	// envelope must still be byte-identical to the serial reference.
	path := filepath.Join(t.TempDir(), "ckpt.json")
	ref, err := Engine{Workers: 1}.RunShard(newFakeSweep(16), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	env, _, err := Engine{Workers: 4}.RunShardResumable(newFakeSweep(16), 0, 1, path, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(ref)
	b, _ := json.Marshal(env)
	if string(a) != string(b) {
		t.Fatal("parallel resumable envelope differs from serial RunShard")
	}
}

func TestRunShardResumableUniqueKeysAcrossRetries(t *testing.T) {
	// A resumed retry that itself checkpoints must keep the partial file
	// parseable at every step: drive a 3-stage run (die at 3, die at 7,
	// finish) and verify each intermediate checkpoint loads cleanly.
	path := filepath.Join(t.TempDir(), "ckpt.json")
	for _, failAt := range []int{3, 7, -1} {
		s := newFakeSweep(12)
		s.failAt = failAt
		_, _, err := Engine{Workers: 1}.RunShardResumable(s, 0, 1, path, 1)
		if failAt >= 0 && err == nil {
			t.Fatalf("failAt %d: run succeeded", failAt)
		}
		if failAt < 0 && err != nil {
			t.Fatalf("final stage: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var env Envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("failAt %d: checkpoint unparseable: %v", failAt, err)
		}
	}
	// After the final stage the checkpoint is the complete envelope.
	env, resumed, err := Engine{Workers: 1}.RunShardResumable(newFakeSweep(12), 0, 1, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 12 || len(env.Jobs) != 12 {
		t.Fatalf("final checkpoint incomplete: resumed %d, jobs %d", resumed, len(env.Jobs))
	}
	_ = fmt.Sprint(env.Fingerprint)
}

// TestMergeAndResumeRefuseTheSameBrokenEnvelopes feeds each broken
// envelope both to Merge and, as a checkpoint file, to
// RunShardResumable: the one envelope check behind both must refuse it
// with the same complaint, and the resume must run no job.
func TestMergeAndResumeRefuseTheSameBrokenEnvelopes(t *testing.T) {
	e0, err := Engine{}.RunShard(newFakeSweep(6), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := Engine{}.RunShard(newFakeSweep(6), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, want string
		mutate     func(e *Envelope)
	}{
		{"foreign sweep", "belongs to sweep", func(e *Envelope) { e.Sweep = "other" }},
		{"wrong shard count", "disagree", func(e *Envelope) { e.Shards = 3 }},
		{"out-of-range shard", "out of range", func(e *Envelope) { e.Shard = 2 }},
		{"plan size", "same flags", func(e *Envelope) { e.PlanJobs = 9 }},
		{"digest", "different configuration", func(e *Envelope) { e.Config = "0123456789abcdef" }},
		{"foreign job index", "does not belong", func(e *Envelope) { e.Jobs[0].Index = 1 }},
		{"wrong key", "same flags", func(e *Envelope) { e.Jobs[0].Key = "job/x" }},
		{"duplicate job", "supplied twice", func(e *Envelope) { e.Jobs = append(e.Jobs, e.Jobs[0]) }},
		{"tampered payload", "fingerprint", func(e *Envelope) { e.Jobs[0].Payload = json.RawMessage("12345") }},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		bad := e0
		bad.Jobs = append([]JobResult(nil), e0.Jobs...)
		tc.mutate(&bad)

		if err := Merge(newFakeSweep(6), []Envelope{e1, bad}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Merge returned %v, want an error containing %q", tc.name, err, tc.want)
		}

		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".json")
		data, err := encodeEnvelope(bad, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFileAtomic(path, data); err != nil {
			t.Fatal(err)
		}
		s := newFakeSweep(6)
		_, _, err = Engine{Workers: 1}.RunShardResumable(s, 0, 2, path, 1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: resume returned %v, want an error containing %q", tc.name, err, tc.want)
		}
		if n := s.runs.Load(); n != 0 {
			t.Errorf("%s: refused checkpoint still ran %d jobs", tc.name, n)
		}
	}
}

// htmlSweep is fakeSweep with payloads that hold raw <, > and &, which
// json.Marshal would escape (to \u003c, \u003e and \u0026).
type htmlSweep struct{ *fakeSweep }

func (h htmlSweep) Run(job Job) (json.RawMessage, error) {
	h.runs.Add(1)
	return json.RawMessage(fmt.Sprintf(`{"html":"<b>%d</b> & more"}`, job.Index)), nil
}

func (h htmlSweep) Merge(payloads []json.RawMessage) error { return nil }

// TestRunShardResumableRawHTMLPayloads: a checkpoint keeps payload bytes
// verbatim, so a payload holding raw <, > or & resumes from its own
// checkpoint, and the checkpoint merges like a shard envelope.
func TestRunShardResumableRawHTMLPayloads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	cold, _, err := Engine{Workers: 1}.RunShardResumable(htmlSweep{newFakeSweep(4)}, 0, 1, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	again := htmlSweep{newFakeSweep(4)}
	env, resumed, err := Engine{Workers: 1}.RunShardResumable(again, 0, 1, path, 1)
	if err != nil {
		t.Fatalf("resuming raw-HTML payloads: %v", err)
	}
	if resumed != 4 || again.runs.Load() != 0 {
		t.Fatalf("resumed %d jobs and re-ran %d, want 4 and 0", resumed, again.runs.Load())
	}
	a, _ := json.Marshal(cold)
	b, _ := json.Marshal(env)
	if string(a) != string(b) {
		t.Fatalf("resumed envelope differs:\n%s\nvs\n%s", b, a)
	}
	ck, err := ReadEnvelope(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Merge(htmlSweep{newFakeSweep(4)}, []Envelope{ck}); err != nil {
		t.Fatalf("raw-HTML checkpoint does not merge: %v", err)
	}
}
