// Command kyotobench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	kyotobench -run all
//	kyotobench -run fig4,fig5 -seed 7
//	kyotobench -list
//
// -list prints the experiment ids and exits; it runs alone, with at
// most -cpuprofile and -memprofile.
//
// Each experiment prints an ASCII table whose rows correspond to the
// paper's bars/series; README's "Reproducing the paper's figures" walks
// through the runs.
//
// Every experiment is a sweep of independent jobs, so any one can be
// fanned out across processes: -shard k/n runs the k-th of n shards of
// one experiment's job plan and writes a JSON shard envelope, and -merge
// folds the envelopes of all n shards back into the experiment's tables,
// bit-identically to the unsharded run. The merge invocation must repeat
// the shard runs' flags (-run, -seed):
//
//	kyotobench -run fig4 -shard 0/2 -shard-out fig4-0.json
//	kyotobench -run fig4 -shard 1/2 -shard-out fig4-1.json
//	kyotobench -run fig4 -merge 'fig4-*.json'
//
// scripts/sweep_shards.sh automates that fan-out over local processes;
// the same envelopes move across machines with any file transport.
//
// -seeds N replicates a seedable experiment (fig4, ablations, detection) under N
// consecutive seeds starting at -seed and prints per-metric means,
// percentiles and confidence intervals instead of single numbers. The
// seed sweep is itself a sweep, so -seeds composes with -shard/-merge:
//
//	kyotobench -run fig4 -seeds 32 -shard 0/2 -shard-out fig4-0.json
//	kyotobench -run fig4 -seeds 32 -shard 1/2 -shard-out fig4-1.json
//	kyotobench -run fig4 -seeds 32 -merge 'fig4-*.json'
//
// -fidelity selects the cache-model tier for the fidelity-capable
// experiments (fig4): exact is the default per-access simulation,
// analytic runs the whole sweep on the fast LLC-occupancy model
// (~10-100x less wall clock), and two-tier runs the broad pass analytic
// then re-measures the -confirm-top most aggressive applications exact.
// exact and analytic compose with -shard/-merge/-seeds — the fidelity
// enters the sweep's config digest, so envelopes from mismatched tiers
// refuse to merge:
//
//	kyotobench -run fig4 -fidelity analytic
//	kyotobench -run fig4 -fidelity analytic -shard 0/2 -shard-out fig4-0.json
//	kyotobench -run fig4 -fidelity two-tier -confirm-top 3
//
// The warmstart experiment runs the contention arms cold (each arm
// re-simulates the shared warm-up) and forked from one checkpoint, and
// verifies per-arm bit-identity; -warmstart-json emits the fork
// accounting with the measured wall-clock speedup as JSON, which
// scripts/bench_json.sh folds into BENCH_kyoto.json:
//
//	kyotobench -run warmstart
//	kyotobench -warmstart-json - -fidelity analytic
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"kyoto/internal/cache"
	"kyoto/internal/experiments"
	"kyoto/internal/profiling"
	"kyoto/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "kyotobench: %v\n", err)
		os.Exit(1)
	}
}

// experiment is one kyotobench id. Exactly one of sweep and tiered is
// set; either builds a fresh sweep from flags alone, so shard and merge
// processes plan identical job lists. It runs in-process through the
// same sweep, -shard/-merge can distribute it, and -seeds can replicate
// it when it reports seed metrics.
type experiment struct {
	// sweep builds an experiment that runs on the exact tier only: it
	// measures cache micro-behaviour the analytic tier deliberately does
	// not simulate (the ablations partition the exact LLC), or is cheap
	// enough that two tiers would be noise.
	sweep func(seed uint64) experiments.Experiment
	// tiered builds an experiment -fidelity analytic can accelerate.
	tiered func(seed uint64, fid cache.Fidelity) experiments.Experiment
	// twoTier runs -fidelity two-tier, for the experiments whose broad
	// pass ranks arms for exact confirmation.
	twoTier func(seed uint64, topK int) ([]experiments.Table, error)
}

// build returns the experiment's sweep on tier fid.
func (e experiment) build(seed uint64, fid cache.Fidelity) experiments.Experiment {
	if e.tiered != nil {
		return e.tiered(seed, fid)
	}
	return e.sweep(seed)
}

// registry maps experiment ids to their entries. README's "Reproducing
// the paper's figures" shows how to run them.
var registry = map[string]experiment{
	"table1":     {sweep: experiments.Table1Sweep},
	"table2":     {sweep: experiments.Table2Sweep},
	"fig1":       {sweep: experiments.Fig1Sweep},
	"fig2":       {sweep: experiments.Fig2Sweep},
	"fig3":       {sweep: experiments.Fig3Sweep},
	"fig5":       {sweep: experiments.Fig5Sweep},
	"fig6":       {sweep: experiments.Fig6Sweep},
	"fig8":       {sweep: experiments.Fig8Sweep},
	"fig9":       {sweep: experiments.Fig9Sweep},
	"fig10":      {sweep: experiments.Fig10Sweep},
	"fig11":      {sweep: experiments.Fig11Sweep},
	"fig12":      {sweep: experiments.Fig12Sweep},
	"ks4linux":   {sweep: experiments.KS4LinuxSweep},
	"crossval":   {sweep: experiments.CrossValSweep},
	"warmstart":  {tiered: experiments.WarmStartExperiment},
	"fig4matrix": {sweep: experiments.Fig4MatrixSweep},
	"ablations":  {sweep: experiments.AblationsSweep},
	"fig4": {
		tiered: experiments.Fig4Sweep,
		twoTier: func(seed uint64, topK int) ([]experiments.Table, error) {
			r, err := experiments.TwoTierFig4(seed, topK)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		},
	},
	"detection": {tiered: func(seed uint64, fid cache.Fidelity) experiments.Experiment {
		return experiments.NewDetectionBenchSweeper(seed, fid)
	}},
}

// warmstartJSON is the -warmstart-json report: the warm-start sweep's
// fork accounting in machine-readable form, for scripts/bench_json.sh
// to fold into BENCH_kyoto.json.
type warmstartJSON struct {
	Seed         uint64  `json:"seed"`
	Fidelity     string  `json:"fidelity"`
	Arms         int     `json:"arms"`
	WarmupTicks  int     `json:"warmup_ticks"`
	MeasureTicks int     `json:"measure_ticks"`
	TicksCold    int     `json:"ticks_cold"`
	TicksWarm    int     `json:"ticks_warm"`
	TickSavings  float64 `json:"tick_savings"`
	ColdMS       float64 `json:"cold_ms"`
	WarmMS       float64 `json:"warm_ms"`
	WallSpeedup  float64 `json:"wall_speedup"`
	BitIdentical bool    `json:"bit_identical"`
}

// runWarmstartJSON runs the warm-start sweep and writes the fork
// accounting as JSON to path ('-' = stdout).
func runWarmstartJSON(seed uint64, fid cache.Fidelity, path string, out io.Writer) error {
	r, err := experiments.WarmStartSweep(experiments.WarmStartConfig{Seed: seed, Fidelity: fid})
	if err != nil {
		return err
	}
	rep := warmstartJSON{
		Seed:         seed,
		Fidelity:     fid.String(),
		Arms:         len(r.Warm),
		WarmupTicks:  r.WarmupTicks,
		MeasureTicks: r.MeasureTicks,
		TicksCold:    r.TicksCold,
		TicksWarm:    r.TicksWarm,
		TickSavings:  float64(r.TicksCold) / float64(r.TicksWarm),
		ColdMS:       float64(r.ColdDuration.Microseconds()) / 1000,
		WarmMS:       float64(r.WarmDuration.Microseconds()) / 1000,
		WallSpeedup:  r.Speedup,
		BitIdentical: r.BitIdentical(),
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := out.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// seedProto returns the experiment's sweep as a sweep.Seedable, or nil
// when -seeds cannot replicate it.
func (e experiment) seedProto(seed uint64, fid cache.Fidelity) sweep.Seedable {
	s, _ := e.build(seed, fid).(sweep.Seedable)
	if s == nil || len(s.MetricNames()) == 0 {
		return nil
	}
	return s
}

// ids lists the registry ids whose entry passes keep, sorted.
func ids(keep func(experiment) bool) []string {
	var out []string
	for id, e := range registry {
		if keep(e) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Filters for ids: every experiment, and the ones -seeds can replicate.
func everyExperiment(experiment) bool { return true }

func seedable(e experiment) bool { return e.seedProto(1, cache.FidelityExact) != nil }

// seedSweep is a seedable experiment wrapped in a seed sweep whose
// table is the statistics table, so seed sweeps flow through the same
// run/shard/merge paths as any other sweep.
type seedSweep struct {
	*sweep.SeedSweeper
	tables []experiments.Table
}

// Merge implements sweep.Sweep: merge the seeds, then render.
func (s *seedSweep) Merge(payloads []json.RawMessage) error {
	if err := s.SeedSweeper.Merge(payloads); err != nil {
		return err
	}
	t, err := experiments.SeedSweepTable(s.Result())
	if err != nil {
		return err
	}
	s.tables = []experiments.Table{t}
	return nil
}

// Tables implements experiments.Experiment.
func (s *seedSweep) Tables() []experiments.Table { return s.tables }

// seedSweepEntry builds the seed sweep of experiment id.
func seedSweepEntry(id string, seed uint64, seeds int, fid cache.Fidelity) (experiments.Experiment, error) {
	proto := registry[id].seedProto(seed, fid)
	if proto == nil {
		return nil, fmt.Errorf("experiment %q does not support -seeds (seedable: %s)", id, strings.Join(ids(seedable), ", "))
	}
	ss, err := sweep.NewSeedSweeper(proto, sweep.SeedSweepConfig{Seeds: seeds, BaseSeed: seed})
	if err != nil {
		return nil, err
	}
	return &seedSweep{SeedSweeper: ss}, nil
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("kyotobench", flag.ContinueOnError)
	var (
		runList    = fs.String("run", "all", "comma-separated experiment ids, or 'all'")
		seed       = fs.Uint64("seed", 1, "simulation seed")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		workers    = fs.Int("workers", 0, "experiment-level parallelism (0 = GOMAXPROCS, 1 = serial); with -shard or -seeds, caps job parallelism within the one sweep")
		shardSpec  = fs.String("shard", "", "run one shard (k/n) of a single experiment's job plan and write its envelope")
		shardOut   = fs.String("shard-out", "-", "shard envelope output path ('-' = stdout)")
		mergeGlobs = fs.String("merge", "", "comma-separated shard envelope files/globs to merge into the experiment's tables")
		seeds      = fs.Int("seeds", 0, "statistical mode: replicate a seedable experiment under this many consecutive seeds (starting at -seed) and report per-metric means, percentiles and 95% confidence intervals")
		fidelity   = fs.String("fidelity", "exact", "cache-model tier for fidelity-capable experiments (fig4, warmstart, detection): exact, analytic, or two-tier (fig4 only: broad analytic pass, top attackers confirmed exact)")
		confirmTop = fs.Int("confirm-top", 1, "attackers the two-tier mode re-runs on the exact tier")
		wsJSON     = fs.String("warmstart-json", "", "run the warm-start forking sweep and write its fork accounting as JSON to this file ('-' = stdout) instead of tables")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *list {
		// Listing prints and exits: any other flag would be ignored.
		var given []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "cpuprofile" && f.Name != "memprofile" {
				given = append(given, "-"+f.Name)
			}
		})
		if len(given) > 1 {
			return fmt.Errorf("-list must run alone, with at most the profile flags; got %s", strings.Join(given, " "))
		}
	}
	if set["seeds"] && *seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1, got %d", *seeds)
	}
	if set["shard-out"] && *shardSpec == "" {
		return fmt.Errorf("-shard-out only applies with -shard")
	}
	twoTier := *fidelity == "two-tier"
	var fid cache.Fidelity
	if !twoTier {
		if fid, err = cache.ParseFidelity(*fidelity); err != nil {
			return err
		}
	}
	if set["confirm-top"] && !twoTier {
		return fmt.Errorf("-confirm-top only applies with -fidelity two-tier")
	}
	if twoTier && *confirmTop < 1 {
		return fmt.Errorf("-confirm-top must be at least 1, got %d", *confirmTop)
	}
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer profiling.StopInto(stopProf, &err)
	if *wsJSON != "" {
		if twoTier {
			return fmt.Errorf("-warmstart-json runs on one tier; use -fidelity exact or analytic")
		}
		if *seeds > 0 || *shardSpec != "" || *mergeGlobs != "" {
			return fmt.Errorf("-warmstart-json does not compose with -seeds/-shard/-merge")
		}
		return runWarmstartJSON(*seed, fid, *wsJSON, os.Stdout)
	}
	if *shardSpec != "" || *mergeGlobs != "" {
		if twoTier {
			// The exact pass depends on the analytic ranking, so the
			// two-tier mode cannot be planned as independent jobs up
			// front; shard each tier separately instead.
			return fmt.Errorf("-fidelity two-tier does not shard (-shard/-merge); shard each tier separately with -fidelity analytic/exact")
		}
		return runSharded(*runList, *seed, *seeds, *workers, fid, *shardSpec, *shardOut, *mergeGlobs, os.Stdout)
	}
	all := ids(everyExperiment)
	if *list {
		for _, id := range all {
			fmt.Println(id)
		}
		return nil
	}

	selected := all
	if *runList != "all" {
		selected = strings.Split(*runList, ",")
	}
	for i, id := range selected {
		selected[i] = strings.TrimSpace(id)
		e, ok := registry[selected[i]]
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", selected[i])
		}
		if twoTier && e.twoTier == nil {
			return fmt.Errorf("experiment %q does not support -fidelity two-tier (two-tier applies to: fig4)", selected[i])
		}
		if err := checkTier(selected[i], fid); err != nil {
			return err
		}
	}

	// Plain experiments are independent: fan them out across workers
	// (each one also fans its own jobs out). The two-tier and -seeds
	// modes run one experiment at a time, whose jobs fan out.
	exec := func(i int) ([]experiments.Table, error) {
		return runIn(registry[selected[i]].build(*seed, fid), 0)
	}
	parallel := *workers
	switch {
	case twoTier && *seeds > 0:
		return fmt.Errorf("-fidelity two-tier does not compose with -seeds; replicate each tier separately with -fidelity analytic/exact")
	case twoTier:
		exec = func(i int) ([]experiments.Table, error) {
			return registry[selected[i]].twoTier(*seed, *confirmTop)
		}
		parallel = 1
	case *seeds > 0:
		entries := make([]experiments.Experiment, len(selected))
		for i, id := range selected {
			if entries[i], err = seedSweepEntry(id, *seed, *seeds, fid); err != nil {
				return err
			}
		}
		exec = func(i int) ([]experiments.Table, error) { return runIn(entries[i], *workers) }
		parallel = 1
	}
	return runEach(selected, parallel, os.Stdout, exec)
}

// checkTier rejects a non-exact tier for an experiment that runs on the
// exact tier only.
func checkTier(id string, fid cache.Fidelity) error {
	if fid != cache.FidelityExact && registry[id].tiered == nil {
		return fmt.Errorf("experiment %q runs on the exact tier only (-fidelity applies to: %s)", id, strings.Join(ids(func(e experiment) bool { return e.tiered != nil }), ", "))
	}
	return nil
}

// runIn runs the experiment's sweep in-process with the given job
// parallelism and renders its merged result.
func runIn(e experiments.Experiment, workers int) ([]experiments.Table, error) {
	if err := (sweep.Engine{Workers: workers}).Run(e); err != nil {
		return nil, err
	}
	return e.Tables(), nil
}

// runEach runs the selected experiments across workers (1 = one after
// another), exec(i) running ids[i], and prints each one's tables and
// completion line in selection order.
func runEach(ids []string, workers int, out io.Writer, exec func(i int) ([]experiments.Table, error)) error {
	type outcome struct {
		tables  []experiments.Table
		elapsed time.Duration
	}
	outcomes := make([]outcome, len(ids))
	err := sweep.ForEach(len(ids), workers, func(i int) error {
		start := time.Now()
		tables, err := exec(i)
		if err != nil {
			return fmt.Errorf("%s: %w", ids[i], err)
		}
		outcomes[i] = outcome{tables: tables, elapsed: time.Since(start)}
		return nil
	})
	if err != nil {
		return err
	}
	for i, id := range ids {
		for _, t := range outcomes[i].tables {
			fmt.Fprintln(out, t.String())
		}
		fmt.Fprintf(out, "[%s completed in %v]\n\n", id, outcomes[i].elapsed.Round(time.Millisecond))
	}
	return nil
}

// runSharded handles the -shard / -merge modes: exactly one experiment,
// either executing one shard of its job plan or folding the shard
// envelopes into its tables. With seeds > 0 the experiment is wrapped in
// a seed sweep first, so the shards partition the seed-replicated job
// plan.
func runSharded(runList string, seed uint64, seeds, workers int, fid cache.Fidelity, shardSpec, shardOut, mergeGlobs string, out io.Writer) error {
	if strings.Contains(runList, ",") || runList == "all" {
		return fmt.Errorf("-shard/-merge need exactly one experiment in -run")
	}
	id := strings.TrimSpace(runList)
	e, ok := registry[id]
	if !ok {
		return fmt.Errorf("unknown experiment %q (use -list)", id)
	}
	if err := checkTier(id, fid); err != nil {
		return err
	}
	entry := e.build(seed, fid)
	if seeds > 0 {
		var err error
		if entry, err = seedSweepEntry(id, seed, seeds, fid); err != nil {
			return err
		}
	}
	envs, err := sweep.Dispatch{Shard: shardSpec, ShardOut: shardOut, Merge: mergeGlobs, Workers: workers}.Run(entry, out)
	if err != nil || envs == nil {
		return err
	}
	for _, t := range entry.Tables() {
		fmt.Fprintln(out, t.String())
	}
	fp, err := sweep.MergedFingerprint(envs)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "[%s merged from %d shard envelopes, fingerprint %s]\n\n", id, len(envs), fp)
	return nil
}
