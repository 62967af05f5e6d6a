// Command kyotobench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	kyotobench -run all
//	kyotobench -run fig4,fig5 -seed 7
//	kyotobench -list
//
// -list and -list-shardable print experiment ids and exit; each runs
// alone, with at most -cpuprofile and -memprofile.
//
// Each experiment prints an ASCII table whose rows correspond to the
// paper's bars/series; README's "Reproducing the paper's figures" walks
// through the runs.
//
// The sweep-shaped experiments (fig4, fig4matrix, ablations, detection — see
// -list-shardable) can be fanned out across processes: -shard k/n runs
// the k-th of n shards of one experiment's job plan and writes a JSON
// shard envelope, and -merge folds the envelopes of all n shards back
// into the experiment's tables, bit-identically to the unsharded run.
// The merge invocation must repeat the shard runs' flags (-run, -seed):
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
// re-simulates the shared warm-up) and forked from one checkpoint,
// verifies per-arm bit-identity, and reports the measured wall-clock
// speedup; -warmstart-json emits the fork accounting as JSON, which
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

// runFunc renders one plain experiment's tables.
type runFunc func(seed uint64, fid cache.Fidelity) ([]experiments.Table, error)

// experiment is one kyotobench id. Exactly one of run and sweep is set.
type experiment struct {
	// run renders a plain experiment.
	run runFunc
	// sweep builds a fresh sweep-shaped experiment with its renderer, so
	// shard and merge processes plan identical job lists from flags
	// alone. It runs in-process through the same sweep, and -shard/-merge
	// can distribute it; -seeds can replicate it when it is a
	// sweep.Seedable.
	sweep func(seed uint64, fid cache.Fidelity) shardableSweep
	// fidelity marks the experiments -fidelity analytic can accelerate.
	// The rest either measure cache micro-behaviour the analytic tier
	// deliberately does not simulate (ablations partition the exact LLC)
	// or are cheap enough that two tiers would be noise.
	fidelity bool
	// twoTier runs -fidelity two-tier, for the experiments whose broad
	// pass ranks arms for exact confirmation.
	twoTier func(seed uint64, topK int) ([]experiments.Table, error)
}

// table adapts an experiment that renders one table.
func table[R interface{ Table() experiments.Table }](f func(uint64) (R, error)) runFunc {
	return func(seed uint64, _ cache.Fidelity) ([]experiments.Table, error) {
		r, err := f(seed)
		if err != nil {
			return nil, err
		}
		return []experiments.Table{r.Table()}, nil
	}
}

// tables adapts an experiment that renders several tables.
func tables[R interface{ Tables() []experiments.Table }](f func(uint64) (R, error)) runFunc {
	return func(seed uint64, _ cache.Fidelity) ([]experiments.Table, error) {
		r, err := f(seed)
		if err != nil {
			return nil, err
		}
		return r.Tables(), nil
	}
}

// registry maps experiment ids to their entries. README's "Reproducing
// the paper's figures" shows how to run them.
var registry = map[string]experiment{
	"table1": {run: func(uint64, cache.Fidelity) ([]experiments.Table, error) {
		return []experiments.Table{experiments.Table1()}, nil
	}},
	"table2": {run: func(uint64, cache.Fidelity) ([]experiments.Table, error) {
		return []experiments.Table{experiments.Table2()}, nil
	}},
	"fig1":     {run: tables(experiments.Fig1)},
	"fig2":     {run: table(experiments.Fig2)},
	"fig3":     {run: table(experiments.Fig3)},
	"fig5":     {run: tables(experiments.Fig5)},
	"fig6":     {run: table(experiments.Fig6)},
	"fig8":     {run: table(experiments.Fig8)},
	"fig9":     {run: table(experiments.Fig9)},
	"fig10":    {run: table(experiments.Fig10)},
	"fig11":    {run: table(experiments.Fig11)},
	"fig12":    {run: table(experiments.Fig12)},
	"ks4linux": {run: table(experiments.KS4Linux)},
	"crossval": {run: table(func(seed uint64) (*experiments.CrossValResult, error) {
		return experiments.CrossValidate(seed)
	})},
	"warmstart": {fidelity: true, run: func(seed uint64, fid cache.Fidelity) ([]experiments.Table, error) {
		r, err := experiments.WarmStartSweep(experiments.WarmStartConfig{Seed: seed, Fidelity: fid})
		if err != nil {
			return nil, err
		}
		return []experiments.Table{r.Table()}, nil
	}},
	"fig4": {
		fidelity: true,
		sweep: func(seed uint64, fid cache.Fidelity) shardableSweep {
			s := experiments.NewFig4SweeperFidelity(seed, fid)
			return shardableSweep{s, func() (experiments.Table, error) { return s.Result().Table(), nil }}
		},
		twoTier: func(seed uint64, topK int) ([]experiments.Table, error) {
			r, err := experiments.TwoTierFig4(seed, topK)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		},
	},
	"fig4matrix": {sweep: func(seed uint64, _ cache.Fidelity) shardableSweep {
		s := experiments.NewFig4MatrixSweeper(seed)
		return shardableSweep{s, func() (experiments.Table, error) { return *s.Result(), nil }}
	}},
	"ablations": {sweep: func(seed uint64, _ cache.Fidelity) shardableSweep {
		s := experiments.NewAblationSweeper(seed)
		return shardableSweep{s, func() (experiments.Table, error) { return *s.Result(), nil }}
	}},
	"detection": {fidelity: true, sweep: func(seed uint64, fid cache.Fidelity) shardableSweep {
		s := experiments.NewDetectionBenchSweeper(seed, fid)
		return shardableSweep{s, func() (experiments.Table, error) { return s.Result().Table(), nil }}
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

// shardableSweep pairs a sweep with the renderer of its merged result.
type shardableSweep struct {
	s     sweep.Sweep
	table func() (experiments.Table, error)
}

// runIn runs the sweep in-process with the given job parallelism and
// renders its merged result.
func (ss shardableSweep) runIn(workers int) ([]experiments.Table, error) {
	if err := (sweep.Engine{Workers: workers}).Run(ss.s); err != nil {
		return nil, err
	}
	t, err := ss.table()
	if err != nil {
		return nil, err
	}
	return []experiments.Table{t}, nil
}

// execute runs the experiment in-process and renders its tables.
func (e experiment) execute(seed uint64, fid cache.Fidelity) ([]experiments.Table, error) {
	if e.run != nil {
		return e.run(seed, fid)
	}
	return e.sweep(seed, fid).runIn(0)
}

// seedProto returns the experiment's sweep as a sweep.Seedable, or nil
// when -seeds cannot replicate it.
func (e experiment) seedProto(seed uint64, fid cache.Fidelity) sweep.Seedable {
	if e.sweep == nil {
		return nil
	}
	s, _ := e.sweep(seed, fid).s.(sweep.Seedable)
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

// Filters for ids: every experiment, the ones -shard/-merge can
// distribute, and the ones -seeds can replicate.
func everyExperiment(experiment) bool { return true }

func shardable(e experiment) bool { return e.sweep != nil }

func seedable(e experiment) bool { return e.seedProto(1, cache.FidelityExact) != nil }

// seedSweepEntry wraps a seedable experiment in a seed sweep paired
// with the statistics-table renderer, so seed sweeps flow through the
// same run/shard/merge paths as any other sweep.
func seedSweepEntry(id string, seed uint64, seeds int, fid cache.Fidelity) (shardableSweep, error) {
	proto := registry[id].seedProto(seed, fid)
	if proto == nil {
		return shardableSweep{}, fmt.Errorf("experiment %q does not support -seeds (seedable: %s)", id, strings.Join(ids(seedable), ", "))
	}
	ss, err := sweep.NewSeedSweeper(proto, sweep.SeedSweepConfig{Seeds: seeds, BaseSeed: seed})
	if err != nil {
		return shardableSweep{}, err
	}
	return shardableSweep{ss, func() (experiments.Table, error) { return experiments.SeedSweepTable(ss.Result()) }}, nil
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("kyotobench", flag.ContinueOnError)
	var (
		runList    = fs.String("run", "all", "comma-separated experiment ids, or 'all'")
		seed       = fs.Uint64("seed", 1, "simulation seed")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		workers    = fs.Int("workers", 0, "experiment-level parallelism (0 = GOMAXPROCS, 1 = serial); with -shard, caps job parallelism within the shard")
		shardSpec  = fs.String("shard", "", "run one shard (k/n) of a single shardable experiment's job plan and write its envelope")
		shardOut   = fs.String("shard-out", "-", "shard envelope output path ('-' = stdout)")
		mergeGlobs = fs.String("merge", "", "comma-separated shard envelope files/globs to merge into the experiment's tables")
		listShard  = fs.Bool("list-shardable", false, "list experiment ids that support -shard/-merge and exit")
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
	if *list || *listShard {
		// Listing prints and exits: any other flag would be ignored.
		var given []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "cpuprofile" && f.Name != "memprofile" {
				given = append(given, "-"+f.Name)
			}
		})
		if len(given) > 1 {
			return fmt.Errorf("-list and -list-shardable each run alone, with at most the profile flags; got %s", strings.Join(given, " "))
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
	if *listShard {
		for _, id := range ids(shardable) {
			fmt.Println(id)
		}
		return nil
	}
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
		if !twoTier && fid != cache.FidelityExact && !e.fidelity {
			return fmt.Errorf("experiment %q runs on the exact tier only (-fidelity applies to: fig4, warmstart, detection)", selected[i])
		}
	}

	if twoTier {
		if *seeds > 0 {
			return fmt.Errorf("-fidelity two-tier does not compose with -seeds; replicate each tier separately with -fidelity analytic/exact")
		}
		return runEach(selected, os.Stdout, func(i int) ([]experiments.Table, error) {
			return registry[selected[i]].twoTier(*seed, *confirmTop)
		})
	}
	if *seeds > 0 {
		entries := make([]shardableSweep, len(selected))
		for i, id := range selected {
			if entries[i], err = seedSweepEntry(id, *seed, *seeds, fid); err != nil {
				return err
			}
		}
		return runEach(selected, os.Stdout, func(i int) ([]experiments.Table, error) {
			return entries[i].runIn(*workers)
		})
	}

	// Experiments are independent: fan them out across workers (each one
	// also fans its own scenarios out) and print in selection order.
	type outcome struct {
		tables  []experiments.Table
		elapsed time.Duration
	}
	outcomes := make([]outcome, len(selected))
	err = experiments.ForEach(len(selected), *workers, func(i int) error {
		start := time.Now()
		tables, err := registry[selected[i]].execute(*seed, fid)
		if err != nil {
			return fmt.Errorf("%s: %w", selected[i], err)
		}
		outcomes[i] = outcome{tables: tables, elapsed: time.Since(start)}
		return nil
	})
	if err != nil {
		return err
	}
	for i, id := range selected {
		printTables(os.Stdout, id, outcomes[i].tables, outcomes[i].elapsed)
	}
	return nil
}

// printTables prints one experiment's tables and its completion line.
func printTables(out io.Writer, id string, tables []experiments.Table, elapsed time.Duration) {
	for _, t := range tables {
		fmt.Fprintln(out, t.String())
	}
	fmt.Fprintf(out, "[%s completed in %v]\n\n", id, elapsed.Round(time.Millisecond))
}

// runEach runs the selected experiments one after another, exec(i)
// running ids[i] (the -seeds and two-tier modes, whose experiments fan
// their own jobs out), and prints each one's tables.
func runEach(ids []string, out io.Writer, exec func(i int) ([]experiments.Table, error)) error {
	for i, id := range ids {
		start := time.Now()
		tables, err := exec(i)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		printTables(out, id, tables, time.Since(start))
	}
	return nil
}

// runSharded handles the -shard / -merge modes: exactly one shardable
// experiment, either executing one shard of its job plan or folding the
// shard envelopes into its tables. With seeds > 0 the experiment is
// wrapped in a seed sweep first, so the shards partition the
// seed-replicated job plan.
func runSharded(runList string, seed uint64, seeds, workers int, fid cache.Fidelity, shardSpec, shardOut, mergeGlobs string, out io.Writer) error {
	if strings.Contains(runList, ",") || runList == "all" {
		return fmt.Errorf("-shard/-merge need exactly one experiment in -run (shardable: %s)", strings.Join(ids(shardable), ", "))
	}
	id := strings.TrimSpace(runList)
	if fid != cache.FidelityExact && !registry[id].fidelity {
		return fmt.Errorf("experiment %q runs on the exact tier only (-fidelity applies to: fig4, warmstart, detection)", id)
	}
	var entry shardableSweep
	if seeds > 0 {
		var err error
		if entry, err = seedSweepEntry(id, seed, seeds, fid); err != nil {
			return err
		}
	} else if e := registry[id]; e.sweep != nil {
		entry = e.sweep(seed, fid)
	} else {
		return fmt.Errorf("experiment %q is not shardable (shardable: %s)", id, strings.Join(ids(shardable), ", "))
	}
	envs, err := sweep.Dispatch{Shard: shardSpec, ShardOut: shardOut, Merge: mergeGlobs, Workers: workers}.Run(entry.s, out)
	if err != nil || envs == nil {
		return err
	}
	t, err := entry.table()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, t.String())
	fp, err := sweep.MergedFingerprint(envs)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "[%s merged from %d shard envelopes, fingerprint %s]\n\n", id, len(envs), fp)
	return nil
}
