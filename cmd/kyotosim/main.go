// Command kyotosim runs an arbitrary scenario described in JSON on the
// simulated testbed and reports per-VM statistics — the general-purpose
// front door to the simulator that the paper-specific kyotobench builds on.
//
// Usage:
//
//	kyotosim -scenario scenario.json
//	kyotosim -example | kyotosim -scenario -
//	kyotosim -scenario fleet.json -hosts 8 -placer kyoto
//	kyotosim -trace trace.json -hosts 4
//	kyotosim -churn 24 -hosts 4 -seed 7 [-trace-out churn.json]
//	kyotosim -churn 24 -hosts 4 -migrate reactive -pending fifo
//	kyotosim -trace trace.json -migrate topo -pending deadline -pending-deadline 40
//
// With -hosts N > 1 the scenario runs on a simulated fleet instead of a
// single machine: every host is built from the scenario's machine /
// scheduler / kyoto settings, the -placer policy decides which host gets
// each VM (first-fit bin-packing, contention-aware spread, or Kyoto
// llc_cap admission control), and the report gains a host column. VMs the
// policy rejects are reported, not fatal — rejection is Kyoto admission
// control doing its job.
//
// With -trace the simulator leaves fixed-population mode entirely: the
// file (JSON or CSV, schema in internal/arrivals/README.md) is an
// arrival/departure trace that is replayed through all three placement
// policies on identically seeded -hosts fleets, and the report is the
// per-policy rejection-rate / utilization / p50-p95-p99
// normalized-performance comparison table. -churn N does the same for a
// seeded synthetic trace of N VMs (Poisson-style arrivals, heavy-tailed
// lifetimes); -trace-out writes the synthesized trace for later replay.
//
// Adding -migrate and/or -pending turns the replay into a migration
// sweep: reactive operation (live migration by the named rebalancer, a
// Borg-style pending queue for rejected arrivals) is compared against
// plain no-migration replays, across all three placers on identically
// seeded fleets. The table gains queue-wait percentiles and migration
// counts; -big-llc makes the highest-ID host heterogeneous (a larger
// LLC) so the topology-aware rebalancer has somewhere to steer
// polluters — applied automatically (factor 2) whenever a topo arm is
// swept, and never otherwise, so non-topo sweeps stay comparable to
// plain -trace runs. -migrate signature sweeps the change-detection
// rebalancer, which migrates only on confirmed CUSUM change points in
// per-VM pollution rates; its detector knobs are -detect-alpha,
// -detect-drift, -detect-threshold and -detect-warmup. See
// internal/cluster/README.md for the policies.
//
// Both sweep modes shard across processes: -shard k/n runs the k-th of n
// shards of the sweep's job plan and writes a JSON envelope instead of
// the table, and -merge folds all n envelopes back into the table,
// bit-identically to the unsharded sweep. The merge invocation must
// repeat the shard runs' flags (trace/churn, hosts, seed, migrate,
// pending, ...):
//
//	kyotosim -churn 24 -hosts 4 -migrate all -shard 0/2 -shard-out s0.json
//	kyotosim -churn 24 -hosts 4 -migrate all -shard 1/2 -shard-out s1.json
//	kyotosim -churn 24 -hosts 4 -migrate all -merge 's*.json'
//
// Runs are checkpointable: -checkpoint-every N -checkpoint-out f
// periodically writes a resumable checkpoint (atomically, so a kill
// mid-write leaves the previous one intact), and -resume f continues a
// killed run, producing output byte-identical to an uninterrupted run.
// In single-host scenario mode N counts ticks and the checkpoint wraps
// the versioned world snapshot plus the scenario and report baseline;
// resuming under a different seed/fidelity/machine fails with the
// snapshot config-digest error, and any other scenario change is caught
// against the stored scenario bytes. In the -trace/-churn sweep modes
// (including -seeds and -shard) N counts completed jobs and the
// checkpoint is a partial shard envelope; resumed shard envelopes merge
// byte-identically with serial runs:
//
//	kyotosim -scenario s.json -checkpoint-every 50 -checkpoint-out ck.json
//	kyotosim -scenario s.json -resume ck.json
//	kyotosim -churn 24 -hosts 4 -seeds 100 -checkpoint-every 5 -checkpoint-out sweep-ck.json
//	kyotosim -churn 24 -hosts 4 -seeds 100 -resume sweep-ck.json
//
// -fidelity selects the cache-model tier: exact (the default,
// per-access cache simulation), analytic (the fast LLC-occupancy model:
// no per-access work, ~100x faster, modeled rather than simulated miss
// rates), or two-tier (-trace/-churn only: the whole sweep runs on the
// analytic tier, then the -confirm-top arms with the best analytic p99
// floor are re-run exact). exact and analytic compose with
// -shard/-merge/-seeds; the fidelity enters the sweep's config digest,
// so shard envelopes produced under mismatched tiers refuse to merge:
//
//	kyotosim -churn 1000 -hosts 4 -fidelity analytic
//	kyotosim -trace trace.json -fidelity two-tier -confirm-top 2
//
// -seeds N is statistical mode: the whole sweep (plain or migration) is
// replicated under N consecutive seeds starting at -seed, and the table
// reports each metric's across-seed mean, p50/p95/p99 and 95%
// confidence intervals instead of single numbers. The seed sweep is
// itself a sweep, so -seeds composes with -shard/-merge and the merged
// statistics are bit-identical for every shard count:
//
//	kyotosim -trace trace.json -hosts 4 -seeds 200
//	kyotosim -churn 24 -hosts 4 -seeds 100 -shard 0/4 -shard-out s0.json
//
// Scenario schema (JSON):
//
//	{
//	  "machine":   "table1" | "r420",
//	  "scheduler": "credit" | "cfs" | "pisces",
//	  "kyoto":     true,
//	  "monitor":   "counters" | "shadow",
//	  "seed":      1,
//	  "warmup":    12,
//	  "ticks":     60,
//	  "vms": [
//	    {"name": "web", "app": "gcc", "pins": [0], "llc_cap": 250},
//	    {"name": "batch", "app": "lbm", "pins": [1], "llc_cap": 250,
//	     "weight": 256, "cap_percent": 0, "home_node": 0,
//	     "memory_mb": 64}
//	  ]
//	}
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"kyoto"
	"kyoto/internal/profiling"
)

// scenario is the JSON schema.
type scenario struct {
	Machine   string   `json:"machine"`
	Scheduler string   `json:"scheduler"`
	Kyoto     bool     `json:"kyoto"`
	Monitor   string   `json:"monitor"`
	Seed      uint64   `json:"seed"`
	Warmup    int      `json:"warmup"`
	Ticks     int      `json:"ticks"`
	VMs       []vmSpec `json:"vms"`
}

type vmSpec struct {
	Name       string  `json:"name"`
	App        string  `json:"app"`
	Pins       []int   `json:"pins"`
	LLCCap     float64 `json:"llc_cap"`
	Weight     int64   `json:"weight"`
	CapPercent int     `json:"cap_percent"`
	HomeNode   int     `json:"home_node"`
	VCPUs      int     `json:"vcpus"`
	// MemoryMB is the fleet-mode memory booking (default 64 MB).
	MemoryMB int `json:"memory_mb"`
}

// toSpec maps the JSON shape onto the public VM spec.
func (s vmSpec) toSpec() kyoto.VMSpec {
	return kyoto.VMSpec{
		Name: s.Name, App: s.App, Pins: s.Pins, LLCCap: s.LLCCap,
		Weight: s.Weight, CapPercent: s.CapPercent,
		HomeNode: s.HomeNode, VCPUs: s.VCPUs,
	}
}

const exampleScenario = `{
  "machine": "table1",
  "scheduler": "credit",
  "kyoto": true,
  "seed": 1,
  "warmup": 12,
  "ticks": 60,
  "vms": [
    {"name": "web", "app": "gcc", "pins": [0], "llc_cap": 250},
    {"name": "batch", "app": "lbm", "pins": [1], "llc_cap": 250}
  ]
}`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "kyotosim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("kyotosim", flag.ContinueOnError)
	var (
		path    = fs.String("scenario", "", "scenario JSON file ('-' for stdin)")
		example = fs.Bool("example", false, "print an example scenario and exit")
		apps    = fs.Bool("apps", false, "list built-in application profiles and exit")
		hosts   = fs.Int("hosts", 1, "fleet size; > 1 runs the scenario on a cluster")
		placer  = fs.String("placer", "first-fit", "fleet placement policy: first-fit, spread or kyoto")

		tracePath = fs.String("trace", "", "arrival/departure trace file (.json or .csv); replays it through all three placers")
		churn     = fs.Int("churn", 0, "synthesize a churn trace of this many VMs and replay it through all three placers")
		seed      = fs.Uint64("seed", 1, "seed for -trace/-churn fleets and the synthetic generator")
		horizon   = fs.Uint64("churn-horizon", 0, "ticks the synthetic arrivals spread over (default 120)")
		meanLife  = fs.Float64("churn-life", 0, "mean synthetic VM lifetime in ticks (default 45)")
		traceOut  = fs.String("trace-out", "", "write the synthesized -churn trace to this JSON file")

		migrate      = fs.String("migrate", "", "live-migration sweep: compare no-migration against this rebalancer (reactive, topo, signature, or all for every one) across all three placers")
		pending      = fs.String("pending", "", "pending-queue policy for the migration sweep: none, fifo, deadline or sjf (default fifo once -migrate/-pending engage the sweep)")
		migrateEvery = fs.Uint64("migrate-every", 0, "rebalance epoch in ticks (default 12)")
		downtime     = fs.Int("migrate-downtime", 0, "per-migration blackout in ticks (default 0)")
		maxWait      = fs.Uint64("pending-deadline", 0, "max queue wait in ticks under -pending deadline (default 60)")
		bigLLC       = fs.Int("big-llc", -1, "LLC scale factor of the sweep's highest-ID host (power of two; 0 = homogeneous; default: 2 when a topo arm is swept, else 0 so non-topo sweeps stay comparable to plain -trace runs)")

		detectAlpha     = fs.Float64("detect-alpha", 0, "signature arm: EWMA smoothing factor in (0,1] for the change-point detector (default 0.2)")
		detectDrift     = fs.Float64("detect-drift", 0, "signature arm: CUSUM drift (slack) in normalized units, >= 0 (default 0.5)")
		detectThreshold = fs.Float64("detect-threshold", 0, "signature arm: CUSUM fire threshold in normalized units, > 0 (default 5)")
		detectWarmup    = fs.Int("detect-warmup", 0, "signature arm: samples the detector observes before arming (default 4)")

		seeds = fs.Int("seeds", 0, "statistical mode: replicate the -trace/-churn sweep under this many consecutive seeds (starting at -seed) and report per-metric means, percentiles and 95% confidence intervals")

		fidelity   = fs.String("fidelity", "exact", "cache-model tier: exact (per-access simulation), analytic (fast LLC-occupancy model), or two-tier (-trace/-churn only: broad analytic pass, top arms confirmed exact)")
		confirmTop = fs.Int("confirm-top", 1, "arms the two-tier mode re-runs on the exact tier")

		shardSpec  = fs.String("shard", "", "run one shard (k/n) of the -trace/-churn sweep's job plan and write its envelope instead of the table")
		shardOut   = fs.String("shard-out", "-", "shard envelope output path ('-' = stdout)")
		mergeGlobs = fs.String("merge", "", "comma-separated shard envelope files/globs to merge into the sweep's table (repeat the shard runs' flags)")

		ckEvery    = fs.Int("checkpoint-every", 0, "write a resumable checkpoint every N ticks (scenario mode) or N completed jobs (-trace/-churn sweeps); requires -checkpoint-out")
		ckOut      = fs.String("checkpoint-out", "", "checkpoint file the run writes (atomically) and a killed run resumes from with -resume")
		resumeFrom = fs.String("resume", "", "resume from this checkpoint file; the run must repeat the checkpointed run's scenario/flags and its output is byte-identical to an uninterrupted run")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer profiling.StopInto(stopProf, &err)
	if *example {
		fmt.Fprintln(out, exampleScenario)
		return nil
	}
	if *apps {
		for _, n := range kyoto.ProfileNames() {
			fmt.Fprintln(out, n)
		}
		return nil
	}
	// Flags from the other mode must not be silently dropped, in either
	// direction: trace/churn mode rejects scenario flags, scenario mode
	// rejects trace/churn flags.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	twoTier := *fidelity == "two-tier"
	var fid kyoto.Fidelity
	if !twoTier {
		if fid, err = kyoto.ParseFidelity(*fidelity); err != nil {
			return err
		}
	}
	if set["confirm-top"] && !twoTier {
		return fmt.Errorf("-confirm-top only applies with -fidelity two-tier")
	}
	if twoTier && *confirmTop < 1 {
		return fmt.Errorf("-confirm-top must be at least 1, got %d", *confirmTop)
	}
	// Checkpoint flags: -checkpoint-every/-checkpoint-out checkpoint a
	// run, -resume continues one. Valid in single-host scenario mode and
	// the sweep modes; validated here, routed below.
	checkpointing := set["checkpoint-every"] || set["checkpoint-out"] || set["resume"]
	if set["checkpoint-every"] && *ckEvery < 1 {
		return fmt.Errorf("-checkpoint-every must be at least 1, got %d", *ckEvery)
	}
	if set["checkpoint-every"] != set["checkpoint-out"] {
		return fmt.Errorf("-checkpoint-every and -checkpoint-out go together (got one without the other)")
	}
	if *resumeFrom != "" {
		if _, err := os.Stat(*resumeFrom); err != nil {
			return fmt.Errorf("cannot resume: %w", err)
		}
	}
	if *tracePath == "" && *churn == 0 {
		for _, name := range []string{"seed", "churn-horizon", "churn-life", "trace-out",
			"migrate", "pending", "migrate-every", "migrate-downtime", "pending-deadline", "big-llc",
			"detect-alpha", "detect-drift", "detect-threshold", "detect-warmup",
			"seeds", "shard", "shard-out", "merge"} {
			if set[name] {
				return fmt.Errorf("-%s only applies in -trace/-churn mode", name)
			}
		}
	}
	if *tracePath != "" || *churn > 0 {
		if *hosts < 1 {
			return fmt.Errorf("-hosts must be at least 1, got %d", *hosts)
		}
		if *tracePath != "" && *churn > 0 {
			return fmt.Errorf("-trace and -churn are mutually exclusive")
		}
		if *path != "" {
			return fmt.Errorf("-scenario does not apply in -trace/-churn mode")
		}
		if set["placer"] {
			return fmt.Errorf("-placer does not apply in -trace/-churn mode: the trace is swept through all three placers")
		}
		if *tracePath != "" && (set["trace-out"] || set["churn-horizon"] || set["churn-life"]) {
			return fmt.Errorf("-trace-out/-churn-horizon/-churn-life only apply with -churn")
		}
		migrateMode := set["migrate"] || set["pending"]
		if set["seeds"] && *seeds < 1 {
			return fmt.Errorf("-seeds must be at least 1, got %d", *seeds)
		}
		if set["big-llc"] && *bigLLC < 0 {
			return fmt.Errorf("-big-llc must be >= 0, got %d", *bigLLC)
		}
		if *shardSpec != "" && *mergeGlobs != "" {
			return fmt.Errorf("-shard and -merge are mutually exclusive (run shards first, merge after)")
		}
		if set["shard-out"] && *shardSpec == "" {
			return fmt.Errorf("-shard-out only applies with -shard")
		}
		if (*shardSpec != "" || *mergeGlobs != "") && set["trace-out"] {
			// N shard processes would race writing the same file, and the
			// confirmation line would pollute a stdout envelope; write the
			// trace once, separately.
			return fmt.Errorf("-trace-out does not apply with -shard/-merge (synthesize the trace in its own run)")
		}
		if *mergeGlobs != "" && checkpointing {
			return fmt.Errorf("-checkpoint/-resume apply to runs, not -merge (merge re-reads completed envelopes)")
		}
		if !migrateMode {
			for _, name := range []string{"migrate-every", "migrate-downtime", "pending-deadline", "big-llc"} {
				if set[name] {
					return fmt.Errorf("-%s only applies with -migrate/-pending", name)
				}
			}
		}
		// Detector knobs tune the signature rebalancer's change-point
		// detector; with no signature arm in the sweep they would be
		// silently dropped.
		signatureArm := *migrate == "signature" || *migrate == "all"
		for _, name := range []string{"detect-alpha", "detect-drift", "detect-threshold", "detect-warmup"} {
			if set[name] && !signatureArm {
				return fmt.Errorf("-%s only applies with -migrate signature (or -migrate all)", name)
			}
		}
		detector := kyoto.DetectorConfig{
			Alpha:     *detectAlpha,
			Drift:     *detectDrift,
			Threshold: *detectThreshold,
			Warmup:    *detectWarmup,
		}
		// A shard run's stdout is just the envelope (or nothing, with
		// -shard-out to a file): the informational preamble would pollute
		// the merged stream sweep_shards.sh pipes around.
		quiet := *shardSpec != ""
		var tr kyoto.Trace
		if *tracePath != "" {
			tr, err = kyoto.LoadTrace(*tracePath)
			if err != nil {
				return err
			}
			if !quiet {
				fmt.Fprintf(out, "trace: %s (%d events)\n", *tracePath, len(tr.Events))
			}
		} else {
			cfg := kyoto.ChurnConfig{Seed: *seed, VMs: *churn, Horizon: *horizon, MeanLifetime: *meanLife}
			tr = kyoto.SynthesizeTrace(cfg)
			if !quiet {
				fmt.Fprintf(out, "synthetic churn: %d VMs, seed %d\n", *churn, *seed)
			}
			if *traceOut != "" {
				f, err := os.Create(*traceOut)
				if err != nil {
					return err
				}
				if err := tr.WriteJSON(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Fprintf(out, "wrote %s\n", *traceOut)
			}
		}
		// In the sweep modes the checkpoint file both receives progress and
		// seeds a resume, so -resume and -checkpoint-out name the same file
		// and either one engages job-level checkpointing.
		ckPath := *ckOut
		if ckPath == "" {
			ckPath = *resumeFrom
		}
		if *ckOut != "" && *resumeFrom != "" && *ckOut != *resumeFrom {
			return fmt.Errorf("in sweep modes -resume and -checkpoint-out name the same checkpoint file; got %q and %q", *resumeFrom, *ckOut)
		}
		ckEveryJobs := *ckEvery
		if ckEveryJobs == 0 {
			ckEveryJobs = 1
		}
		dispatch := sweepDispatch{shardSpec: *shardSpec, shardOut: *shardOut, mergeGlobs: *mergeGlobs,
			ckPath: ckPath, ckEvery: ckEveryJobs}
		if twoTier {
			// The two-tier mode's exact pass depends on the analytic
			// ranking, so it cannot be planned as independent jobs up
			// front; it runs in-process only.
			if *shardSpec != "" || *mergeGlobs != "" {
				return fmt.Errorf("-fidelity two-tier does not shard (-shard/-merge); shard each tier separately with -fidelity analytic/exact")
			}
			if checkpointing {
				return fmt.Errorf("-fidelity two-tier does not checkpoint (its exact pass depends on the analytic ranking); checkpoint each tier separately with -fidelity analytic/exact")
			}
			if *seeds > 0 {
				return fmt.Errorf("-fidelity two-tier does not compose with -seeds; replicate each tier separately with -fidelity analytic/exact")
			}
			if migrateMode {
				return fmt.Errorf("-fidelity two-tier applies to the plain trace sweep; run the migration sweep with -fidelity analytic or exact")
			}
			return executeTwoTierTrace(tr, *hosts, *seed, *confirmTop, out)
		}
		cfg := kyoto.FleetSweepConfig{Hosts: *hosts, Seed: *seed, Fidelity: fid}
		if migrateMode {
			if err := migrationConfig(&cfg, *migrate, *pending, *migrateEvery, *downtime, *maxWait, *bigLLC, detector); err != nil {
				return err
			}
		}
		return executeSweep(tr, cfg, migrateMode, *seeds, dispatch, out)
	}
	if twoTier {
		return fmt.Errorf("-fidelity two-tier only applies in -trace/-churn mode")
	}
	if *path == "" {
		return fmt.Errorf("missing -scenario (use -example for a template)")
	}

	var raw []byte
	if *path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(*path)
	}
	if err != nil {
		return err
	}
	var sc scenario
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return fmt.Errorf("parsing scenario: %w", err)
	}
	if *hosts < 1 {
		return fmt.Errorf("-hosts must be at least 1, got %d", *hosts)
	}
	placerKind, err := kyoto.PlacerKindByName(*placer)
	if err != nil {
		return err
	}
	if *hosts > 1 {
		if checkpointing {
			return fmt.Errorf("-checkpoint/-resume apply to single-host scenarios and -trace/-churn sweeps, not fleet scenario mode")
		}
		return executeFleet(sc, *hosts, fid, *placer, placerKind, out)
	}
	return executeScenario(sc, raw, fid, checkpointOpts{
		resume: *resumeFrom, path: *ckOut, every: *ckEvery,
	}, out)
}

// sweepDispatch carries the -shard/-merge and checkpoint flags into the
// sweep modes.
type sweepDispatch struct {
	shardSpec  string
	shardOut   string
	mergeGlobs string
	// ckPath, when non-empty, engages job-level checkpointing: completed
	// jobs are persisted there every ckEvery completions and a file
	// already present (from a killed run) is resumed instead of re-run.
	ckPath  string
	ckEvery int
}

// apply runs the sweep the way the flags ask: a merge of existing
// envelopes, one shard written as an envelope, or the whole sweep
// in-process (the default) — shard 0 of 1, merged. Both runs take the
// optional job-level checkpoint. It reports whether the caller should
// print the merged result (false after a shard run, whose only output is
// the envelope).
func (d sweepDispatch) apply(s kyoto.Sweep, out io.Writer) (bool, error) {
	if d.mergeGlobs != "" {
		envs, err := kyoto.ReadShardEnvelopes(strings.Split(d.mergeGlobs, ","))
		if err != nil {
			return false, err
		}
		return true, kyoto.MergeShards(s, envs)
	}
	k, n := 0, 1
	if d.shardSpec != "" {
		var err error
		if k, n, err = kyoto.ParseShardSpec(d.shardSpec); err != nil {
			return false, err
		}
	}
	env, _, err := kyoto.RunSweepShardResumable(s, k, n, 0, d.ckPath, d.ckEvery)
	if err != nil {
		return false, err
	}
	if d.shardSpec != "" {
		return false, env.WriteFile(d.shardOut, out)
	}
	return true, kyoto.MergeShards(s, []kyoto.ShardEnvelope{env})
}

// executeSeedSweep runs the -seeds statistical mode: the seedable sweep
// is replicated under consecutive seeds starting at baseSeed, sharded or
// merged exactly like the underlying sweep, and the merged across-seed
// statistics table is printed (the per-seed digests are not — with many
// seeds they are noise).
func executeSeedSweep(proto kyoto.SeedableSweep, seeds int, baseSeed uint64, dispatch sweepDispatch, out io.Writer) error {
	ss, err := kyoto.NewSeedSweeper(proto, kyoto.SeedSweepConfig{Seeds: seeds, BaseSeed: baseSeed})
	if err != nil {
		return err
	}
	print, err := dispatch.apply(ss, out)
	if err != nil {
		return err
	}
	if !print {
		return nil
	}
	tbl, err := kyoto.SeedSweepTable(ss.Result())
	if err != nil {
		return err
	}
	fmt.Fprintln(out, tbl.String())
	return nil
}

// executeTwoTierTrace runs the trace sweep two-tier: broad analytic
// pass, top-k arms confirmed exact.
func executeTwoTierTrace(tr kyoto.Trace, hosts int, seed uint64, topK int, out io.Writer) error {
	res, err := kyoto.SweepTraceTwoTier(tr, kyoto.FleetSweepConfig{Hosts: hosts, Seed: seed}, topK)
	if err != nil {
		return err
	}
	for _, t := range res.Tables() {
		fmt.Fprintln(out, t.String())
	}
	return nil
}

// migrationConfig resolves the -migrate/-pending flags into cfg: the
// rebalancing arms (no-migration plus the requested policy), the queue
// policy and the fleet shape the topology-aware arm needs.
func migrationConfig(cfg *kyoto.FleetSweepConfig, migrate, pending string,
	every uint64, downtime int, maxWait uint64, bigLLC int, detector kyoto.DetectorConfig) error {
	switch migrate {
	case "", "none":
		cfg.Rebalancers = []string{"none"}
	case "all":
		cfg.Rebalancers = kyoto.RebalancerNames()
	default:
		if _, err := kyoto.RebalancerByName(migrate); err != nil {
			return err
		}
		cfg.Rebalancers = []string{"none", migrate}
	}
	if bigLLC < 0 {
		// Auto default: the topology-aware arm needs a bigger-LLC host to
		// steer polluters to; every other sweep stays homogeneous so its
		// no-migration baseline rows stay comparable to plain -trace runs.
		bigLLC = 0
		for _, name := range cfg.Rebalancers {
			if name == "topo" {
				bigLLC = 2
			}
		}
	}
	if pending == "" {
		// The sweep exists to show the rejection-vs-wait trade-off, so the
		// queue defaults on; pass -pending none for drop-on-reject.
		pending = "fifo"
	}
	pp, err := kyoto.PendingPolicyByName(pending)
	if err != nil {
		return err
	}
	cfg.RebalanceEvery, cfg.Downtime, cfg.Pending, cfg.MaxWait = every, downtime, pp, maxWait
	cfg.BigLLCFactor, cfg.Detector = bigLLC, detector
	return nil
}

// executeSweep runs the trace sweep (or, with migrate, the rebalancer x
// placer migration sweep) over the trace and prints the comparison table
// plus a per-arm digest: rejections for the trace sweep, applied
// migrations for the migration sweep.
func executeSweep(tr kyoto.Trace, cfg kyoto.FleetSweepConfig, migrate bool, seeds int, dispatch sweepDispatch, out io.Writer) error {
	build := kyoto.NewTraceSweeper
	if migrate {
		build = kyoto.NewMigrationSweeper
	}
	s, err := build(tr, cfg)
	if err != nil {
		return err
	}
	if seeds > 0 {
		return executeSeedSweep(s, seeds, cfg.Seed, dispatch, out)
	}
	print, err := dispatch.apply(s, out)
	if err != nil {
		return err
	}
	if !print {
		return nil
	}
	res := s.Result()
	fmt.Fprintln(out, res.Table().String())
	for _, row := range res.Rows {
		switch {
		case migrate && len(row.Replay.Migrations) > 0:
			fmt.Fprintf(out, "%s/%s migrations:\n", row.Placer, row.Rebalancer)
			for _, m := range row.Replay.Migrations {
				fmt.Fprintf(out, "  t=%d %s: host%d -> host%d (%s)\n", m.Tick, m.Name, m.SrcHost, m.DstHost, m.Reason)
			}
		case !migrate && row.Rejected > 0:
			fmt.Fprintf(out, "%s rejections:\n", row.Placer)
			for _, rec := range row.Replay.Records {
				if rec.Rejected {
					fmt.Fprintf(out, "  t=%d %s (%s): %s\n", rec.Submit, rec.Name, rec.App, rec.Reason)
				}
			}
		}
	}
	return nil
}

// worldConfig maps the scenario's host settings onto a WorldConfig.
func worldConfig(sc scenario, fid kyoto.Fidelity) (kyoto.WorldConfig, error) {
	cfg := kyoto.WorldConfig{Seed: sc.Seed, EnableKyoto: sc.Kyoto, Fidelity: fid}
	switch sc.Machine {
	case "", "table1":
		cfg.Machine = kyoto.TableOneMachine(sc.Seed)
	case "r420":
		cfg.Machine = kyoto.R420Machine(sc.Seed)
	default:
		return cfg, fmt.Errorf("unknown machine %q", sc.Machine)
	}
	switch sc.Scheduler {
	case "", "credit":
		cfg.Scheduler = kyoto.CreditScheduler
	case "cfs":
		cfg.Scheduler = kyoto.CFSScheduler
	case "pisces":
		cfg.Scheduler = kyoto.PiscesScheduler
	default:
		return cfg, fmt.Errorf("unknown scheduler %q", sc.Scheduler)
	}
	switch sc.Monitor {
	case "", "counters":
		cfg.Monitor = kyoto.MonitorCounters
	case "shadow":
		cfg.Monitor = kyoto.MonitorShadowSim
	default:
		return cfg, fmt.Errorf("unknown monitor %q", sc.Monitor)
	}
	return cfg, nil
}

// windows returns the scenario's warmup and measurement tick counts.
func windows(sc scenario) (warmup, ticks int) {
	warmup, ticks = sc.Warmup, sc.Ticks
	if warmup == 0 {
		warmup = 12
	}
	if ticks == 0 {
		ticks = 60
	}
	return warmup, ticks
}

// statsRow writes one VM's measurement-window report line.
func statsRow(tw io.Writer, prefix string, v *kyoto.VM, before kyoto.Counters) {
	d := v.Counters().Delta(before)
	fmt.Fprintf(tw, "%s%s\t%s\t%.4f\t%.2f\t%.1f\t%.1f\t%d\n",
		prefix, v.Name, v.App, d.IPC(), d.MissesPerKiloInstr(),
		kyoto.Equation1Value(d), float64(d.WallCycles())/100_000,
		v.Punishments)
}

// executeFleet runs the scenario on a cluster of identical hosts behind
// the named placement policy.
func executeFleet(sc scenario, hosts int, fid kyoto.Fidelity, placerName string, placer kyoto.PlacerKind, out io.Writer) error {
	cfg, err := worldConfig(sc, fid)
	if err != nil {
		return err
	}
	if len(sc.VMs) == 0 {
		return fmt.Errorf("scenario has no VMs")
	}
	c, err := kyoto.NewCluster(kyoto.ClusterConfig{Hosts: hosts, World: cfg, Placer: placer})
	if err != nil {
		return err
	}

	// rows parallels sc.VMs by index (names need not be unique): a row
	// holds either the placed VM or the policy's rejection.
	type row struct {
		v    *kyoto.VM
		host int
		err  error
	}
	rows := make([]row, len(sc.VMs))
	for i, s := range sc.VMs {
		p, err := c.Place(kyoto.ClusterVMSpec{VMSpec: s.toSpec(), MemoryMB: s.MemoryMB})
		if err != nil {
			if errors.Is(err, kyoto.ErrUnplaceable) {
				// Rejection is the policy speaking (Kyoto admission
				// refusing an oversubscribing permit, or a full fleet):
				// report it alongside the admitted VMs.
				rows[i] = row{err: err}
				continue
			}
			return err
		}
		rows[i] = row{v: p.VM, host: p.HostID}
	}

	warmup, ticks := windows(sc)
	c.RunTicks(warmup)
	before := make([]kyoto.Counters, len(rows))
	for i, r := range rows {
		if r.v != nil {
			before[i] = r.v.Counters()
		}
	}
	c.RunTicks(ticks)

	fmt.Fprintf(out, "fleet: %d hosts, placer %s\nper-host machine:\n%s\n",
		hosts, placerName, c.Host(0).MachineTable())
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "vm\tapp\tIPC\tMPKI\teq1 (misses/ms)\tCPU ms\tpunishments")
	for i, r := range rows {
		if r.err != nil {
			fmt.Fprintf(tw, "%s\t-\tREJECTED\t\t\t\t(%v)\n", sc.VMs[i].Name, r.err)
			continue
		}
		statsRow(tw, fmt.Sprintf("host%d/", r.host), r.v, before[i])
	}
	return tw.Flush()
}
