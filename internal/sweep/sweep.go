// Package sweep is the shardable sweep engine: one job model behind
// every multi-configuration experiment, executable as a single process
// or fanned out across many.
//
// The paper's evaluation is a grid of scenarios (the Figure 4 matrix
// alone is 90 worlds; the migration sweep crosses 9 arms over a trace),
// and once single-world ticks are cheap the bottleneck is sweep
// orchestration. This package turns every such sweep into the same three
// phases:
//
//	plan  — a Sweep enumerates its Jobs in one canonical order,
//	        deterministically derived from its configuration;
//	run   — an Engine executes the jobs of one shard (shard k of n owns
//	        jobs with Index % n == k) and emits a JSON Envelope of
//	        per-job payloads with fingerprints;
//	merge — the envelopes of all n shards are validated for coverage and
//	        folded, in plan order, into the sweep's final result.
//
// Because the in-process path (one shard, n = 1) uses exactly the same
// envelope serialization and merge code as the distributed path, merging
// n shard envelopes is bit-identical to the unsharded run by
// construction; golden tests in internal/experiments pin it. Processes
// never share state: each one rebuilds the Sweep from the same
// configuration (CLI flags, trace file, seed), plans the same job list,
// and runs only its own slice.
package sweep

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"kyoto/internal/pmc"
)

// Job is one deterministic unit of a sweep's plan. A job is fully
// described by its owning sweep's configuration plus this spec: any
// process that rebuilds the sweep from the same configuration can execute
// any job of the plan and obtain the identical payload.
type Job struct {
	// Sweep names the owning sweep (Sweep.Name).
	Sweep string `json:"sweep"`
	// Key is the job's stable, human-readable identity within the sweep,
	// e.g. "solo/gcc" or "arm/reactive/kyoto". Keys are unique per plan.
	Key string `json:"key"`
	// Index is the job's position in the canonical plan order; shard k of
	// n owns the jobs with Index % n == k.
	Index int `json:"index"`
}

// Sweep is a shardable experiment: a deterministic plan of independent
// jobs plus a merge that folds their payloads into the final result.
// Implementations live in internal/experiments (the fleet sweeps and
// every paper figure); external programs consume them through the public
// kyoto.SweepJobs / kyoto.RunSweepShard / kyoto.MergeShards.
type Sweep interface {
	// Name identifies the sweep; envelopes carry it and Merge validates
	// it, so shards of different sweeps cannot be folded together.
	Name() string
	// Plan enumerates the jobs in canonical order. Plan must be
	// deterministic for a given sweep configuration: every process of a
	// distributed run re-plans and must see the identical list.
	Plan() []Job
	// Run executes one job and returns its result as canonical JSON.
	// Jobs are independent: Run must not depend on any other job having
	// run, and must be safe for concurrent use from multiple goroutines.
	Run(job Job) (json.RawMessage, error)
	// Merge folds the payloads of all jobs, in plan order, into the
	// sweep's final result (retrievable from the concrete type).
	Merge(payloads []json.RawMessage) error
}

// JobResult is one executed job inside an Envelope.
type JobResult struct {
	// Key and Index echo the job spec.
	Key   string `json:"key"`
	Index int    `json:"index"`
	// Fingerprint is FingerprintPayload(Payload): a stable hash of the
	// canonical JSON, so two executions of the same job can be compared
	// without decoding.
	Fingerprint string `json:"fingerprint"`
	// Payload is the job's canonical JSON result.
	Payload json.RawMessage `json:"payload"`
}

// ConfigFingerprinter is optionally implemented by sweeps that can
// digest their full configuration (trace, seeds, fleet shape — anything
// that changes results). RunShard stamps the digest into the envelope
// and Merge rejects envelopes whose digest differs from the merging
// sweep's, catching the "merged with different flags" mistake even when
// the job plan happens to look identical.
type ConfigFingerprinter interface {
	ConfigFingerprint() string
}

// configFingerprint resolves the optional interface.
func configFingerprint(s Sweep) string {
	if cf, ok := s.(ConfigFingerprinter); ok {
		return cf.ConfigFingerprint()
	}
	return ""
}

// EnvelopeSchema identifies the shard-envelope JSON format.
const EnvelopeSchema = "kyoto-sweep-shard-v1"

// Envelope is the canonical result of running one shard of a sweep: the
// unit that crosses process (and machine) boundaries on disk.
type Envelope struct {
	// Schema is EnvelopeSchema.
	Schema string `json:"schema"`
	// Sweep is the owning sweep's name.
	Sweep string `json:"sweep"`
	// Shard and Shards identify the slice: this envelope holds the jobs
	// with Index % Shards == Shard.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// PlanJobs is the size of the full plan, so Merge can detect a
	// sweep/flag mismatch before diffing job indices.
	PlanJobs int `json:"plan_jobs"`
	// Config is the sweep's configuration digest
	// (ConfigFingerprinter.ConfigFingerprint) when the sweep provides
	// one, empty otherwise.
	Config string `json:"config,omitempty"`
	// Jobs holds the shard's executed jobs in ascending Index order.
	Jobs []JobResult `json:"jobs"`
	// Fingerprint folds the job fingerprints in Index order — a quick
	// equality check for whole shards.
	Fingerprint string `json:"fingerprint"`
}

// FingerprintPayload hashes a JSON payload (FNV-1a over its compacted
// bytes, rendered like the replay fingerprints). Compacting makes the
// fingerprint whitespace-insensitive, so an envelope re-indented on its
// way through a file still verifies. The compaction is fused into the
// fold: one pass skips RFC 8259 whitespace outside strings and folds
// every other byte as it goes, with no intermediate buffer — on a
// million-VM churn replay, fingerprinting the multi-megabyte arm
// payloads through json.Compact was half the sweep's CPU (the copy, its
// validation pass, and the buffer regrowth), and this path is what every
// job result funnels through. Bytes inside strings are folded verbatim
// (tracking escape state so a quote ending the string is distinguished
// from an escaped one), exactly as json.Compact preserves them. Each
// byte folds through pmc.FoldByte, one multiply where FoldUint64 takes
// eight, with the identical result.
func FingerprintPayload(payload []byte) string {
	h := pmc.FoldSeed
	inString, escaped := false, false
	for _, b := range payload {
		if inString {
			h = pmc.FoldByte(h, b)
			switch {
			case escaped:
				escaped = false
			case b == '\\':
				escaped = true
			case b == '"':
				inString = false
			}
			continue
		}
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		case '"':
			inString = true
		}
		h = pmc.FoldByte(h, b)
	}
	return fmt.Sprintf("%016x", h)
}

// foldFingerprints combines per-job fingerprint strings in the order
// given into one envelope- or sweep-level fingerprint.
func foldFingerprints(fps []string) string {
	h := pmc.FoldSeed
	h = pmc.FoldUint64(h, uint64(len(fps)))
	for _, fp := range fps {
		for _, b := range []byte(fp) {
			h = pmc.FoldByte(h, b)
		}
	}
	return fmt.Sprintf("%016x", h)
}

// Engine executes sweep jobs across a bounded worker pool.
type Engine struct {
	// Workers caps in-process parallelism: 0 means GOMAXPROCS, 1 runs
	// jobs serially in plan order (the reference execution the
	// determinism goldens compare against).
	Workers int
}

// RunShard plans the sweep and executes shard `shard` of `shards`,
// returning its envelope. Shards partition the plan round-robin by job
// index, so a sweep whose expensive jobs cluster at one end still
// spreads them across shards. It is RunShardResumable without a
// checkpoint file.
func (e Engine) RunShard(s Sweep, shard, shards int) (Envelope, error) {
	env, _, err := e.RunShardResumable(s, shard, shards, "", 1)
	return env, err
}

// RunShardResumable is RunShard with job-level checkpointing, so a killed
// run restarts where it stopped instead of from job zero; an empty path
// means no checkpoint. The file at path, when present, must be a
// (partial) envelope of this exact sweep configuration and shard slice —
// it passes the same checks Merge applies — and its completed jobs are
// reused without re-running. Progress is rewritten to path (atomically)
// after every `every` fresh completions, after a failure, and once at the
// end, so the final file is the complete shard envelope. Jobs are
// deterministic, so the envelope is byte-identical whatever mix of cached
// and fresh jobs produced it. Returns the envelope plus how many jobs
// were reused from the checkpoint.
func (e Engine) RunShardResumable(s Sweep, shard, shards int, path string, every int) (Envelope, int, error) {
	if path != "" && every < 1 {
		return Envelope{}, 0, fmt.Errorf("sweep: checkpoint interval must be >= 1 job, got %d", every)
	}
	if shards < 1 {
		return Envelope{}, 0, fmt.Errorf("sweep: shards must be >= 1, got %d", shards)
	}
	if shard < 0 || shard >= shards {
		return Envelope{}, 0, fmt.Errorf("sweep: shard %d out of range 0..%d", shard, shards-1)
	}
	plan, err := validatePlan(s)
	if err != nil {
		return Envelope{}, 0, err
	}
	var mine []Job
	for _, j := range plan {
		if j.Index%shards == shard {
			mine = append(mine, j)
		}
	}
	env := Envelope{
		Schema:   EnvelopeSchema,
		Sweep:    s.Name(),
		Shard:    shard,
		Shards:   shards,
		PlanJobs: len(plan),
		Config:   configFingerprint(s),
		Jobs:     make([]JobResult, len(mine)),
	}
	// done marks the jobs present in env.Jobs; job Index sits at slot
	// Index / shards of its shard.
	done := make([]bool, len(mine))
	resumed := 0
	if path != "" {
		prior, err := loadCheckpoint(s, plan, shard, shards, path)
		if err != nil {
			return Envelope{}, 0, err
		}
		for _, jr := range prior {
			env.Jobs[jr.Index/shards] = jr
			done[jr.Index/shards] = true
		}
		resumed = len(prior)
	}

	// flush writes the completed jobs, in slice order, as the checkpoint
	// (the whole envelope once every job is done). While jobs run, callers
	// hold mu, which also guards the completion counter.
	var mu sync.Mutex
	fresh := 0
	flush := func() error {
		if path == "" {
			return nil
		}
		partial := env
		partial.Jobs = make([]JobResult, 0, len(env.Jobs))
		for i, jr := range env.Jobs {
			if done[i] {
				partial.Jobs = append(partial.Jobs, jr)
			}
		}
		data, err := encodeEnvelope(partial, "")
		if err != nil {
			return err
		}
		return WriteFileAtomic(path, data)
	}
	err = ForEach(len(mine), e.Workers, func(i int) error {
		if done[i] {
			return nil
		}
		payload, err := s.Run(mine[i])
		if err != nil {
			return fmt.Errorf("sweep %s: job %s: %w", s.Name(), mine[i].Key, err)
		}
		// Guard against invalid JSON here so a buggy Sweep fails its own
		// shard, not a later merge on another machine.
		if !json.Valid(payload) {
			return fmt.Errorf("sweep %s: job %s returned invalid JSON", s.Name(), mine[i].Key)
		}
		mu.Lock()
		defer mu.Unlock()
		env.Jobs[i] = JobResult{
			Key:         mine[i].Key,
			Index:       mine[i].Index,
			Fingerprint: FingerprintPayload(payload),
			Payload:     payload,
		}
		done[i] = true
		if fresh++; fresh%every == 0 {
			return flush()
		}
		return nil
	})
	if err != nil {
		// Persist whatever completed before the failure, so the retry
		// resumes instead of restarting; the run itself still fails.
		mu.Lock()
		_ = flush()
		mu.Unlock()
		return Envelope{}, resumed, err
	}
	fps := make([]string, len(env.Jobs))
	for i, j := range env.Jobs {
		fps[i] = j.Fingerprint
	}
	env.Fingerprint = foldFingerprints(fps)
	if err := flush(); err != nil {
		return Envelope{}, resumed, err
	}
	return env, resumed, nil
}

// Run executes the whole sweep in-process and merges the result — the
// single-machine convenience path. It is exactly RunShard(s, 0, 1)
// followed by Merge, so its result is bit-identical to any sharded
// execution of the same sweep.
func (e Engine) Run(s Sweep) error {
	env, err := e.RunShard(s, 0, 1)
	if err != nil {
		return err
	}
	return Merge(s, []Envelope{env})
}

// Merge validates that envs cover every job of the sweep's plan exactly
// once and folds the payloads, in plan order, into the sweep's result via
// s.Merge. The sweep must be configured identically to the one that
// produced the envelopes: each envelope must pass checkEnvelope, and
// together they must cover the plan (see place).
func Merge(s Sweep, envs []Envelope) error {
	plan, err := validatePlan(s)
	if err != nil {
		return err
	}
	for _, env := range envs {
		if err := checkEnvelope(s, plan, env, env.Shard, envs[0].Shards, "envelope"); err != nil {
			return err
		}
	}
	jobs, err := place(envs)
	if err != nil {
		return fmt.Errorf("sweep %s: %w", s.Name(), err)
	}
	payloads := make([]json.RawMessage, len(jobs))
	for i, j := range jobs {
		payloads[i] = j.Payload
	}
	return s.Merge(payloads)
}

// MergedFingerprint folds the per-job fingerprints of a complete envelope
// set in plan order — the whole-sweep identity the determinism goldens
// pin. It performs Merge's coverage pass but needs no sweep, so it
// neither checks envelopes against a plan nor executes a fold.
func MergedFingerprint(envs []Envelope) (string, error) {
	jobs, err := place(envs)
	if err != nil {
		return "", fmt.Errorf("sweep: %w", err)
	}
	fps := make([]string, len(jobs))
	for i, j := range jobs {
		fps[i] = j.Fingerprint
	}
	return foldFingerprints(fps), nil
}

// checkEnvelope is the one validation of an envelope against the
// freshly planned sweep, shared by Merge and checkpoint resume: schema,
// sweep name, shard count (shards) and slice (shard), plan size and
// configuration digest, then for each job its index, shard ownership,
// key, uniqueness and payload fingerprint. what names the envelope in
// errors.
func checkEnvelope(s Sweep, plan []Job, env Envelope, shard, shards int, what string) error {
	const sameFlags = " — use the same flags as the run that wrote it"
	name := s.Name()
	switch want := configFingerprint(s); {
	case env.Schema != EnvelopeSchema:
		return fmt.Errorf("sweep %s: %s has schema %q, this build reads %q", name, what, env.Schema, EnvelopeSchema)
	case env.Sweep != name:
		return fmt.Errorf("sweep %s: %s belongs to sweep %q", name, what, env.Sweep)
	case env.Shards != shards:
		return fmt.Errorf("sweep %s: %s disagrees on the shard count: %d vs %d", name, what, env.Shards, shards)
	case env.Shard < 0 || env.Shard >= shards:
		return fmt.Errorf("sweep %s: %s shard %d out of range 0..%d", name, what, env.Shard, shards-1)
	case env.Shard != shard:
		return fmt.Errorf("sweep %s: %s covers shard %d/%d, this run is shard %d/%d", name, what, env.Shard, shards, shard, shards)
	case env.PlanJobs != len(plan):
		return fmt.Errorf("sweep %s: %s plans %d jobs, this configuration plans %d"+sameFlags, name, what, env.PlanJobs, len(plan))
	case env.Config != want:
		return fmt.Errorf("sweep %s: %s was produced under a different configuration (digest %s, this run's is %s)"+sameFlags, name, what, env.Config, want)
	}
	seen := make(map[int]bool, len(env.Jobs))
	for _, j := range env.Jobs {
		switch {
		case j.Index < 0 || j.Index >= len(plan):
			return fmt.Errorf("sweep %s: %s job index %d out of plan range", name, what, j.Index)
		case j.Index%shards != shard:
			return fmt.Errorf("sweep %s: %s job %d does not belong to shard %d of %d", name, what, j.Index, shard, shards)
		case j.Key != plan[j.Index].Key:
			return fmt.Errorf("sweep %s: %s job %d is %q, the plan says %q"+sameFlags, name, what, j.Index, j.Key, plan[j.Index].Key)
		case seen[j.Index]:
			return fmt.Errorf("sweep %s: %s job %d supplied twice", name, what, j.Index)
		}
		seen[j.Index] = true
		if got := FingerprintPayload(j.Payload); got != j.Fingerprint {
			return fmt.Errorf("sweep %s: %s job %s payload does not match its fingerprint (%s vs %s) — corrupted", name, what, j.Key, got, j.Fingerprint)
		}
	}
	return nil
}

// place is the coverage pass shared by Merge and MergedFingerprint: it
// files every job of envs at its plan index, requiring the envelopes to
// agree on plan size and shard count, each shard to be supplied exactly
// once, and every plan index to be covered exactly once.
func place(envs []Envelope) ([]JobResult, error) {
	if len(envs) == 0 {
		return nil, fmt.Errorf("no shard envelopes to merge")
	}
	n, shards := envs[0].PlanJobs, envs[0].Shards
	seen := make(map[int]bool, len(envs))
	total := 0
	for _, env := range envs {
		switch {
		case env.PlanJobs != n:
			return nil, fmt.Errorf("envelopes disagree on plan size: %d vs %d", env.PlanJobs, n)
		case env.Shards != shards:
			return nil, fmt.Errorf("envelopes disagree on shard count: %d vs %d", env.Shards, shards)
		case env.Shard < 0 || env.Shard >= shards:
			return nil, fmt.Errorf("envelope shard %d out of range 0..%d", env.Shard, shards-1)
		case seen[env.Shard]:
			return nil, fmt.Errorf("shard %d supplied twice", env.Shard)
		}
		seen[env.Shard] = true
		total += len(env.Jobs)
	}
	if len(seen) != shards {
		// List the first few gaps; a corrupt shard count must not turn
		// the listing itself into a huge loop.
		var missing []int
		for k := 0; k < shards && len(missing) < 16; k++ {
			if !seen[k] {
				missing = append(missing, k)
			}
		}
		return nil, fmt.Errorf("missing shard envelopes %v of %d", missing, shards)
	}
	// Checking the count first bounds the allocation by the jobs actually
	// supplied; with it equal to n, an index in range and not yet filled
	// for every job means every index is covered.
	if total != n {
		return nil, fmt.Errorf("envelopes hold %d jobs, the plan has %d", total, n)
	}
	jobs := make([]JobResult, n)
	filled := make([]bool, n)
	for _, env := range envs {
		for _, j := range env.Jobs {
			if j.Index < 0 || j.Index >= n || filled[j.Index] {
				return nil, fmt.Errorf("job index %d out of plan range or supplied twice", j.Index)
			}
			jobs[j.Index], filled[j.Index] = j, true
		}
	}
	return jobs, nil
}

// validatePlan fetches the plan and checks its invariants: contiguous
// indices in order, unique keys, matching sweep name.
func validatePlan(s Sweep) ([]Job, error) {
	plan := s.Plan()
	if len(plan) == 0 {
		return nil, fmt.Errorf("sweep %s: empty plan", s.Name())
	}
	keys := make(map[string]bool, len(plan))
	for i, j := range plan {
		if j.Index != i {
			return nil, fmt.Errorf("sweep %s: plan job %d carries index %d", s.Name(), i, j.Index)
		}
		if j.Sweep != s.Name() {
			return nil, fmt.Errorf("sweep %s: plan job %d belongs to sweep %q", s.Name(), i, j.Sweep)
		}
		if j.Key == "" || keys[j.Key] {
			return nil, fmt.Errorf("sweep %s: plan job %d has empty or duplicate key %q", s.Name(), i, j.Key)
		}
		keys[j.Key] = true
	}
	return plan, nil
}

// ForEach runs f(0) .. f(n-1) across a bounded worker pool (0 workers
// means GOMAXPROCS; 1 means serial in index order) and returns the error
// of the lowest-indexed failure. It is the one worker pool behind every
// sweep and experiment fan-out.
func ForEach(n, workers int, f func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
