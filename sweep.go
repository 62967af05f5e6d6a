package kyoto

// The shardable sweep facade: every multi-configuration experiment in
// the harness (the trace, migration and detection fleet sweeps, every
// paper figure) is planned as a list of deterministic jobs that external
// drivers — cron jobs, CI matrices, a handful of machines pointed at the
// same repository — can execute shard by shard and merge bit-identically
// to an unsharded run. See internal/sweep/README.md for the job model
// and the shard envelope schema, and scripts/sweep_shards.sh for a
// ready-made local fan-out.
//
// The division of labour: every process rebuilds the same sweep from the
// same configuration (trace, seed, config struct), so only job *results*
// ever cross process boundaries, as JSON envelopes with per-job
// fingerprints.

import (
	"kyoto/internal/experiments"
	"kyoto/internal/stats"
	"kyoto/internal/sweep"
)

// Re-exported sweep types.
type (
	// Sweep is a shardable experiment: a deterministic plan of
	// independent jobs plus a merge folding their payloads into the
	// final result. Obtain one from NewTraceSweeper, NewMigrationSweeper
	// or the experiment constructors in internal/experiments.
	Sweep = sweep.Sweep
	// SweepJob is one deterministic unit of a sweep's plan.
	SweepJob = sweep.Job
	// SweepJobResult is one executed job inside a shard envelope.
	SweepJobResult = sweep.JobResult
	// ShardEnvelope is the canonical JSON result of one shard of a
	// sweep — the unit that crosses process and machine boundaries.
	ShardEnvelope = sweep.Envelope
	// FleetSweeper is the shardable form of SweepTrace and
	// SweepMigrations (NewTraceSweeper, NewMigrationSweeper): the same
	// sweep type as every paper figure, one job per solo baseline and
	// per arm. Its Result method returns the merged FleetSweepResult, nil
	// until the sweep ran or merged.
	FleetSweeper = experiments.FleetSweeper
	// SeedableSweep is a sweep that can be replicated under different RNG
	// seeds and report scalar metrics; FleetSweeper implements it.
	SeedableSweep = sweep.Seedable
	// SeedSweeper replicates a SeedableSweep across consecutive seeds and
	// aggregates its metrics into distributions with confidence
	// intervals. It is itself a Sweep, so seed sweeps shard and merge
	// through the same envelope machinery.
	SeedSweeper = sweep.SeedSweeper
	// SeedSweepConfig parameterizes NewSeedSweeper.
	SeedSweepConfig = sweep.SeedSweepConfig
	// SeedSweepResult is a merged seed sweep: per-(arm, metric) sample
	// distributions over all seeds.
	SeedSweepResult = sweep.SeedSweepResult
	// SeedSweepArm is one arm's per-metric distributions.
	SeedSweepArm = sweep.SeedSweepArm
	// MetricSummary is one metric's across-seed sample distribution, with
	// mean/percentile/CI accessors.
	MetricSummary = stats.Summary
	// SweepTable is a rendered experiment table (String gives ASCII).
	SweepTable = experiments.Table
)

// NewTraceSweeper returns the three-placer trace sweep as a shardable
// Sweep; after merging, its Result method returns the FleetSweepResult
// that SweepTrace would have produced.
func NewTraceSweeper(tr Trace, cfg FleetSweepConfig) (*FleetSweeper, error) {
	return experiments.NewTraceSweeper(tr, cfg)
}

// NewMigrationSweeper returns the rebalancer x placer migration sweep as
// a shardable Sweep; after merging, its Result method returns the
// FleetSweepResult that SweepMigrations would have produced.
func NewMigrationSweeper(tr Trace, cfg FleetSweepConfig) (*FleetSweeper, error) {
	return experiments.NewMigrationSweeper(tr, cfg)
}

// NewSeedSweeper wraps a seedable sweep (NewTraceSweeper,
// NewMigrationSweeper) in a seed sweep: replication i of cfg.Seeds runs
// the whole inner sweep under seed cfg.BaseSeed+i, and the merged
// result reports each metric's across-seed mean, percentiles and
// confidence intervals. Because the seed sweep is itself a Sweep, it
// shards with RunSweepShard and merges with MergeShards like any other
// — and the merged statistics are bit-identical for every shard count.
func NewSeedSweeper(proto SeedableSweep, cfg SeedSweepConfig) (*SeedSweeper, error) {
	return sweep.NewSeedSweeper(proto, cfg)
}

// SeedSweepTable renders a merged seed sweep as the arm x metric
// statistics table the CLIs print (mean ± CI, p50/p95/p99 with
// bootstrap CIs).
func SeedSweepTable(r *SeedSweepResult) (SweepTable, error) {
	return experiments.SeedSweepTable(r)
}

// FormatMeanCI renders a mean and CI half-width in the "0.540 ± 0.030"
// form the seed-sweep tables and README use.
func FormatMeanCI(mean, halfwidth float64) string {
	return stats.FormatMeanCI(mean, halfwidth)
}

// SweepJobs returns the sweep's canonical job plan — what a distributed
// driver partitions across processes. Shard k of n owns the jobs with
// Index % n == k, which is exactly what RunSweepShard executes.
func SweepJobs(s Sweep) []SweepJob { return s.Plan() }

// RunSweepShard executes shard `shard` of `shards` of the sweep's plan
// across `workers` goroutines (0 = GOMAXPROCS) and returns its envelope.
// Write it with ShardEnvelope.WriteFile and merge all n envelopes with
// MergeShards — on this machine or another one.
func RunSweepShard(s Sweep, shard, shards, workers int) (ShardEnvelope, error) {
	return sweep.Engine{Workers: workers}.RunShard(s, shard, shards)
}

// RunSweepShardResumable is RunSweepShard with job-level checkpointing:
// completed jobs are rewritten to the file at path (atomically) after
// every `every` fresh completions, and a file already present there must
// be a checkpoint of this exact sweep configuration and shard slice,
// whose completed jobs are reused without re-running. The final envelope
// is byte-identical to an uninterrupted RunSweepShard. An empty path
// means no checkpoint: the call is then exactly RunSweepShard. Returns
// the envelope plus how many jobs were resumed from the checkpoint.
func RunSweepShardResumable(s Sweep, shard, shards, workers int, path string, every int) (ShardEnvelope, int, error) {
	return sweep.Engine{Workers: workers}.RunShardResumable(s, shard, shards, path, every)
}

// RunSweep executes the whole sweep in-process and merges the result —
// the single-machine path, bit-identical to a sharded run of the same
// sweep.
func RunSweep(s Sweep, workers int) error {
	return sweep.Engine{Workers: workers}.Run(s)
}

// MergeShards validates that the envelopes cover every job of the
// sweep's plan exactly once and folds them into the sweep's final result
// (retrievable from the concrete sweeper). The sweep must be built from
// the same configuration as the one the shards ran.
func MergeShards(s Sweep, envs []ShardEnvelope) error {
	return sweep.Merge(s, envs)
}

// MergedSweepFingerprint folds a complete envelope set's per-job
// fingerprints in plan order — the whole-sweep identity the shard
// determinism goldens pin.
func MergedSweepFingerprint(envs []ShardEnvelope) (string, error) {
	return sweep.MergedFingerprint(envs)
}

// ReadShardEnvelope parses one shard envelope file.
func ReadShardEnvelope(path string) (ShardEnvelope, error) {
	return sweep.ReadEnvelope(path)
}

// ReadShardEnvelopes expands glob patterns (a literal path matches
// itself) and parses every matched envelope, in sorted path order.
func ReadShardEnvelopes(patterns []string) ([]ShardEnvelope, error) {
	return sweep.ReadEnvelopes(patterns)
}

// ParseShardSpec parses a "k/n" shard flag value into (shard, shards).
func ParseShardSpec(s string) (shard, shards int, err error) {
	return sweep.ParseShardSpec(s)
}
