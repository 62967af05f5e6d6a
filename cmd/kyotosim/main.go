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
// Each flag applies in some modes only, and setting one where it does
// not apply is an error, never a silently ignored value:
//
//   - -example and -apps print and exit, each on its own;
//   - -scenario needs no -trace/-churn, and -placer a fleet scenario
//     (-hosts > 1);
//   - -seed belongs to the -trace/-churn sweeps, and -trace-out,
//     -churn-horizon and -churn-life to -churn (-trace-out outside
//     -shard/-merge; -churn-life positive and finite);
//   - -migrate, -pending and -big-llc need a single-tier sweep;
//     -migrate-every and -migrate-downtime need an arm that migrates
//     (-migrate reactive, topo, signature or all), -pending-deadline
//     needs -pending deadline, and the -detect-* knobs a signature arm;
//   - -seeds, -shard and -merge need a single-tier sweep, and -shard-out
//     needs -shard;
//   - -checkpoint-every and -checkpoint-out (given together) and -resume
//     apply to single-host scenarios and single-tier sweep runs, not to
//     -merge;
//   - -fidelity two-tier needs a -trace/-churn sweep, and -confirm-top
//     needs -fidelity two-tier;
//   - -hosts and -fidelity exact|analytic apply to every scenario and
//     sweep, and -cpuprofile and -memprofile apply everywhere.
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
//	     "vcpus": 1, "memory_mb": 64}
//	  ]
//	}
//
// warmup and ticks count ticks: zero picks the defaults (12 and 60), and
// a negative window is an error. A VM's vcpus may not exceed the
// machine's cores.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"

	"kyoto"
	"kyoto/internal/profiling"
	"kyoto/internal/sweep"
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

// options holds kyotosim's flags, the names of those the command line
// set, and the mode they select.
type options struct {
	scenario, placer string
	example, apps    bool
	hosts            int

	trace, traceOut string
	churn           int
	seed, horizon   uint64
	meanLife        float64

	migrate, pending      string
	migrateEvery, maxWait uint64
	downtime, bigLLC      int
	detector              kyoto.DetectorConfig

	seeds, confirmTop int
	fidelity          string
	fid               kyoto.Fidelity

	shard, shardOut, merge string
	ckEvery                int
	ckOut, resume          string

	cpuProfile, memProfile string

	set  map[string]bool
	mode mode
}

// newFlagSet defines kyotosim's flags, bound to o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("kyotosim", flag.ContinueOnError)
	fs.StringVar(&o.scenario, "scenario", "", "scenario JSON file ('-' for stdin)")
	fs.BoolVar(&o.example, "example", false, "print an example scenario and exit")
	fs.BoolVar(&o.apps, "apps", false, "list built-in application profiles and exit")
	fs.IntVar(&o.hosts, "hosts", 1, "fleet size; > 1 runs the scenario on a cluster")
	fs.StringVar(&o.placer, "placer", "first-fit", "fleet placement policy: first-fit, spread or kyoto")

	fs.StringVar(&o.trace, "trace", "", "arrival/departure trace file (.json or .csv); replays it through all three placers")
	fs.IntVar(&o.churn, "churn", 0, "synthesize a churn trace of this many VMs and replay it through all three placers")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for -trace/-churn fleets and the synthetic generator")
	fs.Uint64Var(&o.horizon, "churn-horizon", 0, "ticks the synthetic arrivals spread over (default 120)")
	fs.Float64Var(&o.meanLife, "churn-life", 0, "mean synthetic VM lifetime in ticks (default 45)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the synthesized -churn trace to this JSON file")

	fs.StringVar(&o.migrate, "migrate", "", "live-migration sweep: compare no-migration against this rebalancer (reactive, topo, signature, or all for every one) across all three placers")
	fs.StringVar(&o.pending, "pending", "", "pending-queue policy for the migration sweep: none, fifo, deadline or sjf (default fifo once -migrate/-pending engage the sweep)")
	fs.Uint64Var(&o.migrateEvery, "migrate-every", 0, "rebalance epoch in ticks (default 12)")
	fs.IntVar(&o.downtime, "migrate-downtime", 0, "per-migration blackout in ticks (default 0)")
	fs.Uint64Var(&o.maxWait, "pending-deadline", 0, "max queue wait in ticks under -pending deadline (default 60)")
	fs.IntVar(&o.bigLLC, "big-llc", -1, "LLC scale factor of the sweep's highest-ID host (power of two; 0 = homogeneous; default: 2 when a topo arm is swept, else 0 so non-topo sweeps stay comparable to plain -trace runs)")

	fs.Float64Var(&o.detector.Alpha, "detect-alpha", 0, "signature arm: EWMA smoothing factor in (0,1] for the change-point detector (default 0.2)")
	fs.Float64Var(&o.detector.Drift, "detect-drift", 0, "signature arm: CUSUM drift (slack) in normalized units, >= 0 (default 0.5)")
	fs.Float64Var(&o.detector.Threshold, "detect-threshold", 0, "signature arm: CUSUM fire threshold in normalized units, > 0 (default 5)")
	fs.IntVar(&o.detector.Warmup, "detect-warmup", 0, "signature arm: samples the detector observes before arming (default 4)")

	fs.IntVar(&o.seeds, "seeds", 0, "statistical mode: replicate the -trace/-churn sweep under this many consecutive seeds (starting at -seed) and report per-metric means, percentiles and 95% confidence intervals")

	fs.StringVar(&o.fidelity, "fidelity", "exact", "cache-model tier: exact (per-access simulation), analytic (fast LLC-occupancy model), or two-tier (-trace/-churn only: broad analytic pass, top arms confirmed exact)")
	fs.IntVar(&o.confirmTop, "confirm-top", 1, "arms the two-tier mode re-runs on the exact tier")

	fs.StringVar(&o.shard, "shard", "", "run one shard (k/n) of the -trace/-churn sweep's job plan and write its envelope instead of the table")
	fs.StringVar(&o.shardOut, "shard-out", "-", "shard envelope output path ('-' = stdout)")
	fs.StringVar(&o.merge, "merge", "", "comma-separated shard envelope files/globs to merge into the sweep's table (repeat the shard runs' flags)")

	fs.IntVar(&o.ckEvery, "checkpoint-every", 0, "write a resumable checkpoint every N ticks (scenario mode) or N completed jobs (-trace/-churn sweeps); requires -checkpoint-out")
	fs.StringVar(&o.ckOut, "checkpoint-out", "", "checkpoint file the run writes (atomically) and a killed run resumes from with -resume")
	fs.StringVar(&o.resume, "resume", "", "resume from this checkpoint file; the run must repeat the checkpointed run's scenario/flags and its output is byte-identical to an uninterrupted run")

	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	return fs
}

// mode is what one invocation does. check works it out once from the
// flags, and flagRules says which modes each flag applies in.
type mode uint8

const (
	modeInfo     mode = 1 << iota // -example / -apps
	modeScenario                  // -scenario on one host
	modeFleet                     // -scenario with -hosts > 1
	modeTrace                     // -trace/-churn through the three placers
	modeMigrate                   // the trace sweep with -migrate/-pending
	modeTwoTier                   // the trace sweep with -fidelity two-tier

	sweepModes = modeTrace | modeMigrate | modeTwoTier
	runModes   = modeScenario | modeFleet | sweepModes
	// ckModes checkpoint: the single-host run and the single-tier sweeps.
	ckModes = modeScenario | modeTrace | modeMigrate
)

// flagRule says when its flags apply: in one of modes, and when holds
// (nil = always). needs completes the error "-flag only applies ...".
type flagRule struct {
	flags []string
	modes mode
	when  func(o *options) bool
	needs string
}

// flagRules covers every flag but -cpuprofile and -memprofile, which
// apply everywhere. A flag set where its rule fails is an error, so no
// run reports a number its flags did not shape.
var flagRules = []flagRule{
	{[]string{"example", "apps"}, modeInfo, func(o *options) bool { return !(o.example && o.apps) },
		"alone: one of -example and -apps, with at most the profile flags"},
	{[]string{"fidelity"}, runModes, func(o *options) bool { return o.fidelity != "two-tier" || o.mode == modeTwoTier },
		"to scenarios and sweeps, and as two-tier only to -trace/-churn sweeps"},
	{[]string{"hosts"}, runModes, nil, "to scenarios and sweeps"},
	{[]string{"scenario"}, modeScenario | modeFleet, nil, "without -trace/-churn"},
	{[]string{"placer"}, modeFleet, nil, "to a fleet scenario (-scenario with -hosts > 1); sweeps run all three placers"},
	{[]string{"trace", "churn"}, sweepModes, func(o *options) bool { return o.trace == "" || o.churn == 0 },
		"one at a time: -trace or -churn"},
	{[]string{"seed"}, sweepModes, nil, "to -trace/-churn sweeps"},
	{[]string{"churn-horizon", "churn-life"}, sweepModes, func(o *options) bool { return o.churn != 0 }, "with -churn"},
	{[]string{"trace-out"}, sweepModes, func(o *options) bool { return o.churn != 0 && o.shard == "" && o.merge == "" },
		"with -churn, outside -shard/-merge (synthesize the trace in its own run)"},
	{[]string{"migrate", "pending"}, modeMigrate, nil, "to -trace/-churn sweeps on one tier (-fidelity exact or analytic)"},
	{[]string{"big-llc"}, modeMigrate, nil, "to migration sweeps (-migrate/-pending)"},
	{[]string{"migrate-every", "migrate-downtime"}, modeMigrate, func(o *options) bool { return o.migrate != "" && o.migrate != "none" },
		"when an arm migrates (-migrate reactive, topo, signature or all)"},
	{[]string{"pending-deadline"}, modeMigrate, func(o *options) bool { return o.pending == "deadline" }, "with -pending deadline"},
	{[]string{"detect-alpha", "detect-drift", "detect-threshold", "detect-warmup"}, modeMigrate,
		func(o *options) bool { return o.migrate == "signature" || o.migrate == "all" }, "with -migrate signature (or -migrate all)"},
	{[]string{"seeds", "shard", "merge"}, modeTrace | modeMigrate, nil, "to -trace/-churn sweeps on one tier (-fidelity exact or analytic)"},
	{[]string{"shard-out"}, modeTrace | modeMigrate, func(o *options) bool { return o.shard != "" }, "with -shard"},
	{[]string{"checkpoint-every", "checkpoint-out", "resume"}, ckModes,
		func(o *options) bool { return o.merge == "" && o.set["checkpoint-every"] == o.set["checkpoint-out"] },
		"to single-host scenarios and single-tier sweep runs (not -merge), with -checkpoint-every and -checkpoint-out given together"},
	{[]string{"confirm-top"}, modeTwoTier, nil, "with -fidelity two-tier on a -trace/-churn sweep"},
}

// flagMins are the integer flags' lower bounds, checked when set.
var flagMins = []struct {
	name string
	min  int
}{{"hosts", 1}, {"churn", 1}, {"seeds", 1}, {"confirm-top", 1}, {"checkpoint-every", 1}, {"big-llc", 0}}

// check works out o.mode and rejects out-of-range values and every flag
// set where it does not apply, before anything runs.
func (o *options) check(fs *flag.FlagSet) (err error) {
	o.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	for _, m := range flagMins {
		if v := fs.Lookup(m.name).Value.(flag.Getter).Get().(int); o.set[m.name] && v < m.min {
			return fmt.Errorf("-%s must be at least %d, got %d", m.name, m.min, v)
		}
	}
	if o.set["churn-life"] && !(o.meanLife > 0 && o.meanLife <= math.MaxFloat64) {
		return fmt.Errorf("-churn-life must be a positive finite number of ticks, got %v", o.meanLife)
	}
	if o.fidelity != "two-tier" {
		if o.fid, err = kyoto.ParseFidelity(o.fidelity); err != nil {
			return err
		}
	}
	switch replay := o.trace != "" || o.churn != 0; {
	case o.example || o.apps:
		o.mode = modeInfo
	case !replay && o.hosts > 1:
		o.mode = modeFleet
	case !replay:
		o.mode = modeScenario
	case o.fidelity == "two-tier":
		o.mode = modeTwoTier
	case o.set["migrate"] || o.set["pending"]:
		o.mode = modeMigrate
	default:
		o.mode = modeTrace
	}
	for _, r := range flagRules {
		for _, name := range r.flags {
			if o.set[name] && (o.mode&r.modes == 0 || r.when != nil && !r.when(o)) {
				return fmt.Errorf("-%s only applies %s", name, r.needs)
			}
		}
	}
	if o.resume != "" {
		if _, err := os.Stat(o.resume); err != nil {
			return fmt.Errorf("cannot resume: %w", err)
		}
	}
	return nil
}

func run(args []string, out io.Writer) (err error) {
	var o options
	fs := newFlagSet(&o)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := o.check(fs); err != nil {
		return err
	}
	stopProf, err := profiling.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		return err
	}
	defer profiling.StopInto(stopProf, &err)
	switch {
	case o.example:
		fmt.Fprintln(out, exampleScenario)
		return nil
	case o.apps:
		for _, n := range kyoto.ProfileNames() {
			fmt.Fprintln(out, n)
		}
		return nil
	case o.mode&sweepModes != 0:
		return runSweep(&o, out)
	}
	sc, cfg, raw, err := loadScenario(o.scenario, o.fid)
	if err != nil {
		return err
	}
	if o.mode == modeFleet {
		return executeFleet(sc, cfg, o.hosts, o.placer, out)
	}
	return executeScenario(sc, cfg, raw, &o, out)
}

// runSweep loads or synthesizes the trace and runs the sweep o.mode
// names.
func runSweep(o *options, out io.Writer) error {
	// A shard run's stdout is just the envelope (or nothing, with
	// -shard-out to a file): the informational preamble would pollute
	// the merged stream sweep_shards.sh pipes around.
	quiet := o.shard != ""
	var tr kyoto.Trace
	if o.trace != "" {
		var err error
		if tr, err = kyoto.LoadTrace(o.trace); err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(out, "trace: %s (%d events)\n", o.trace, len(tr.Events))
		}
	} else {
		tr = kyoto.SynthesizeTrace(kyoto.ChurnConfig{Seed: o.seed, VMs: o.churn, Horizon: o.horizon, MeanLifetime: o.meanLife})
		if !quiet {
			fmt.Fprintf(out, "synthetic churn: %d VMs, seed %d\n", o.churn, o.seed)
		}
		if o.traceOut != "" {
			var buf bytes.Buffer
			if err := tr.WriteJSON(&buf); err != nil {
				return err
			}
			if err := os.WriteFile(o.traceOut, buf.Bytes(), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", o.traceOut)
		}
	}
	if o.mode == modeTwoTier {
		// Broad analytic pass, then the top -confirm-top arms exact.
		res, err := kyoto.SweepTraceTwoTier(tr, kyoto.FleetSweepConfig{Hosts: o.hosts, Seed: o.seed}, o.confirmTop)
		if err != nil {
			return err
		}
		for _, t := range res.Tables() {
			fmt.Fprintln(out, t.String())
		}
		return nil
	}
	// In the sweep modes the checkpoint file both receives progress and
	// seeds a resume, so -resume and -checkpoint-out name the same file
	// and either one engages job-level checkpointing.
	if o.ckOut != "" && o.resume != "" && o.ckOut != o.resume {
		return fmt.Errorf("in sweep modes -resume and -checkpoint-out name the same checkpoint file; got %q and %q", o.resume, o.ckOut)
	}
	d := sweep.Dispatch{Shard: o.shard, ShardOut: o.shardOut, Merge: o.merge, Checkpoint: cmp.Or(o.ckOut, o.resume), Every: o.ckEvery}
	cfg := kyoto.FleetSweepConfig{Hosts: o.hosts, Seed: o.seed, Fidelity: o.fid}
	if o.mode == modeMigrate {
		if err := migrationConfig(&cfg, o); err != nil {
			return err
		}
	}
	return executeSweep(tr, cfg, o.mode == modeMigrate, o.seeds, d, out)
}

// migrationConfig resolves the -migrate/-pending flags into cfg: the
// rebalancing arms (no-migration plus the requested policy), the queue
// policy and the fleet shape the topology-aware arm needs.
func migrationConfig(cfg *kyoto.FleetSweepConfig, o *options) error {
	switch o.migrate {
	case "", "none":
		cfg.Rebalancers = []string{"none"}
	case "all":
		cfg.Rebalancers = kyoto.RebalancerNames()
	default:
		if _, err := kyoto.RebalancerByName(o.migrate); err != nil {
			return err
		}
		cfg.Rebalancers = []string{"none", o.migrate}
	}
	bigLLC := o.bigLLC
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
	// The sweep exists to show the rejection-vs-wait trade-off, so the
	// queue defaults on; pass -pending none for drop-on-reject.
	pp, err := kyoto.PendingPolicyByName(cmp.Or(o.pending, "fifo"))
	if err != nil {
		return err
	}
	cfg.RebalanceEvery, cfg.Downtime, cfg.Pending, cfg.MaxWait = o.migrateEvery, o.downtime, pp, o.maxWait
	cfg.BigLLCFactor, cfg.Detector = bigLLC, o.detector
	return nil
}

// executeSweep runs the trace sweep (or, with migrate, the rebalancer x
// placer migration sweep) over the trace and prints the comparison table
// plus a per-arm digest: rejections for the trace sweep, applied
// migrations for the migration sweep.
func executeSweep(tr kyoto.Trace, cfg kyoto.FleetSweepConfig, migrate bool, seeds int, d sweep.Dispatch, out io.Writer) error {
	build := kyoto.NewTraceSweeper
	if migrate {
		build = kyoto.NewMigrationSweeper
	}
	s, err := build(tr, cfg)
	if err != nil {
		return err
	}
	if seeds > 0 {
		// Statistical mode: the sweep replicated under consecutive seeds
		// from cfg.Seed, sharded or merged like the sweep itself. Only the
		// across-seed statistics print; per-seed digests would be noise.
		ss, err := kyoto.NewSeedSweeper(s, kyoto.SeedSweepConfig{Seeds: seeds, BaseSeed: cfg.Seed})
		if err != nil {
			return err
		}
		if envs, err := d.Run(ss, out); err != nil || envs == nil {
			return err
		}
		tbl, err := kyoto.SeedSweepTable(ss.Result())
		if err != nil {
			return err
		}
		fmt.Fprintln(out, tbl.String())
		return nil
	}
	if envs, err := d.Run(s, out); err != nil || envs == nil {
		return err
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

// loadScenario reads the scenario at path ('-' = stdin) and checks it
// once for both scenario modes: strict decoding, known machine, scheduler
// and monitor names, at least one VM, and non-negative windows, whose
// zero values it fills with the defaults. It returns the scenario, its
// world config and the raw bytes a checkpoint stores.
func loadScenario(path string, fid kyoto.Fidelity) (sc scenario, cfg kyoto.WorldConfig, raw []byte, err error) {
	switch path {
	case "":
		return sc, cfg, nil, fmt.Errorf("missing -scenario (use -example for a template)")
	case "-":
		raw, err = io.ReadAll(os.Stdin)
	default:
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return sc, cfg, nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return sc, cfg, nil, fmt.Errorf("parsing scenario: %w", err)
	}
	if cfg, err = worldConfig(sc, fid); err != nil {
		return sc, cfg, nil, err
	}
	switch {
	case len(sc.VMs) == 0:
		return sc, cfg, nil, fmt.Errorf("scenario has no VMs")
	case sc.Warmup < 0 || sc.Ticks < 0:
		return sc, cfg, nil, fmt.Errorf("scenario windows must be >= 0 ticks, got warmup %d, ticks %d", sc.Warmup, sc.Ticks)
	}
	// A VM books at most one vCPU per core (the fleet's admission rule).
	// A host refuses more too, but fleet mode would only report the VM as
	// rejected and exit 0, so the scenario itself is refused here.
	cores := cfg.Machine.Sockets * cfg.Machine.CoresPerSocket
	for _, v := range sc.VMs {
		if v.VCPUs > cores {
			return sc, cfg, nil, fmt.Errorf("scenario VM %q asks for %d vCPUs, more than the machine's %d cores", v.Name, v.VCPUs, cores)
		}
	}
	if sc.Warmup == 0 {
		sc.Warmup = 12
	}
	if sc.Ticks == 0 {
		sc.Ticks = 60
	}
	return sc, cfg, raw, nil
}

// worldConfig maps the scenario's host settings onto a WorldConfig.
func worldConfig(sc scenario, fid kyoto.Fidelity) (kyoto.WorldConfig, error) {
	cfg := kyoto.WorldConfig{Seed: sc.Seed, EnableKyoto: sc.Kyoto, Fidelity: fid}
	switch sc.Machine {
	case "", "table1":
		cfg.Machine = kyoto.TableOneMachine()
	case "r420":
		cfg.Machine = kyoto.R420Machine()
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
func executeFleet(sc scenario, cfg kyoto.WorldConfig, hosts int, placerName string, out io.Writer) error {
	placer, err := kyoto.PlacerKindByName(placerName)
	if err != nil {
		return err
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

	c.RunTicks(sc.Warmup)
	before := make([]kyoto.Counters, len(rows))
	for i, r := range rows {
		if r.v != nil {
			before[i] = r.v.Counters()
		}
	}
	c.RunTicks(sc.Ticks)

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
