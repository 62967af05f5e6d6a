// Command kyotobench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	kyotobench -run all
//	kyotobench -run fig4,fig5 -seed 7
//	kyotobench -list
//
// Each experiment prints an ASCII table whose rows correspond to the
// paper's bars/series; EXPERIMENTS.md records the paper-vs-measured
// comparison.
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

// experimentFunc runs one experiment and returns its rendered tables.
type experimentFunc func(seed uint64) ([]experiments.Table, error)

// fidelityCapable lists the experiments -fidelity analytic can
// accelerate. The rest either measure cache micro-behaviour the
// analytic tier deliberately does not simulate (ablations partition the
// exact LLC) or are cheap enough that two tiers would be noise.
var fidelityCapable = map[string]bool{"fig4": true, "warmstart": true, "detection": true}

// twoTierCapable lists the experiments -fidelity two-tier applies to —
// the ones whose broad pass ranks arms for exact confirmation.
var twoTierCapable = map[string]bool{"fig4": true}

// registry maps experiment ids to runners. Keep ids in sync with
// DESIGN.md's per-experiment index.
func registry(fid cache.Fidelity) map[string]experimentFunc {
	return map[string]experimentFunc{
		"table1": func(seed uint64) ([]experiments.Table, error) {
			return []experiments.Table{experiments.Table1()}, nil
		},
		"table2": func(seed uint64) ([]experiments.Table, error) {
			return []experiments.Table{experiments.Table2()}, nil
		},
		"fig4": func(seed uint64) ([]experiments.Table, error) {
			s := experiments.NewFig4SweeperFidelity(seed, fid)
			if err := (sweep.Engine{}).Run(s); err != nil {
				return nil, err
			}
			return []experiments.Table{s.Result().Table()}, nil
		},
		"fig4matrix": func(seed uint64) ([]experiments.Table, error) {
			t, err := experiments.Fig4Matrix(seed)
			if err != nil {
				return nil, err
			}
			return []experiments.Table{t}, nil
		},
		"fig1": func(seed uint64) ([]experiments.Table, error) {
			r, err := experiments.Fig1(seed)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		},
		"fig2": func(seed uint64) ([]experiments.Table, error) {
			r, err := experiments.Fig2(seed)
			if err != nil {
				return nil, err
			}
			return []experiments.Table{r.Table()}, nil
		},
		"fig3": func(seed uint64) ([]experiments.Table, error) {
			r, err := experiments.Fig3(seed)
			if err != nil {
				return nil, err
			}
			return []experiments.Table{r.Table()}, nil
		},
		"fig5": func(seed uint64) ([]experiments.Table, error) {
			r, err := experiments.Fig5(seed)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		},
		"fig6": func(seed uint64) ([]experiments.Table, error) {
			r, err := experiments.Fig6(seed)
			if err != nil {
				return nil, err
			}
			return []experiments.Table{r.Table()}, nil
		},
		"fig8": func(seed uint64) ([]experiments.Table, error) {
			r, err := experiments.Fig8(seed)
			if err != nil {
				return nil, err
			}
			return []experiments.Table{r.Table()}, nil
		},
		"fig9": func(seed uint64) ([]experiments.Table, error) {
			r, err := experiments.Fig9(seed)
			if err != nil {
				return nil, err
			}
			return []experiments.Table{r.Table()}, nil
		},
		"fig10": func(seed uint64) ([]experiments.Table, error) {
			r, err := experiments.Fig10(seed)
			if err != nil {
				return nil, err
			}
			return []experiments.Table{r.Table()}, nil
		},
		"fig11": func(seed uint64) ([]experiments.Table, error) {
			r, err := experiments.Fig11(seed)
			if err != nil {
				return nil, err
			}
			return []experiments.Table{r.Table()}, nil
		},
		"fig12": func(seed uint64) ([]experiments.Table, error) {
			r, err := experiments.Fig12(seed)
			if err != nil {
				return nil, err
			}
			return []experiments.Table{r.Table()}, nil
		},
		"ablations": func(seed uint64) ([]experiments.Table, error) {
			t, err := experiments.AblationTable(seed)
			if err != nil {
				return nil, err
			}
			return []experiments.Table{t}, nil
		},
		"ks4linux": func(seed uint64) ([]experiments.Table, error) {
			r, err := experiments.KS4Linux(seed)
			if err != nil {
				return nil, err
			}
			return []experiments.Table{r.Table()}, nil
		},
		"crossval": func(seed uint64) ([]experiments.Table, error) {
			r, err := experiments.CrossValidate(seed)
			if err != nil {
				return nil, err
			}
			return []experiments.Table{r.Table()}, nil
		},
		"warmstart": func(seed uint64) ([]experiments.Table, error) {
			r, err := experiments.WarmStartSweep(experiments.WarmStartConfig{Seed: seed, Fidelity: fid})
			if err != nil {
				return nil, err
			}
			return []experiments.Table{r.Table()}, nil
		},
		"detection": func(seed uint64) ([]experiments.Table, error) {
			s := experiments.NewDetectionBenchSweeper(seed, fid)
			if err := (sweep.Engine{}).Run(s); err != nil {
				return nil, err
			}
			return []experiments.Table{s.Result().Table()}, nil
		},
	}
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
	s      sweep.Sweep
	tables func() ([]experiments.Table, error)
}

// shardableSweeps builds the sweep-shaped experiments by id — the ones
// -shard/-merge can distribute. Each call returns fresh sweeps, so shard
// and merge processes plan identical job lists from flags alone.
func shardableSweeps(seed uint64, fid cache.Fidelity) map[string]shardableSweep {
	fig4 := experiments.NewFig4SweeperFidelity(seed, fid)
	matrix := experiments.NewFig4MatrixSweeper(seed)
	abl := experiments.NewAblationSweeper(seed)
	det := experiments.NewDetectionBenchSweeper(seed, fid)
	return map[string]shardableSweep{
		"fig4": {fig4, func() ([]experiments.Table, error) {
			return []experiments.Table{fig4.Result().Table()}, nil
		}},
		"fig4matrix": {matrix, func() ([]experiments.Table, error) {
			return []experiments.Table{*matrix.Result()}, nil
		}},
		"ablations": {abl, func() ([]experiments.Table, error) {
			return []experiments.Table{*abl.Result()}, nil
		}},
		"detection": {det, func() ([]experiments.Table, error) {
			return []experiments.Table{det.Result().Table()}, nil
		}},
	}
}

// shardableIDs lists the -shard/-merge capable experiment ids, sorted.
func shardableIDs() []string {
	ids := make([]string, 0, 4)
	for id := range shardableSweeps(1, cache.FidelityExact) {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// seedableSweeps builds the experiments -seeds can replicate across
// consecutive seeds — the sweeps with sweep.Seedable adapters.
func seedableSweeps(seed uint64, fid cache.Fidelity) map[string]sweep.Seedable {
	return map[string]sweep.Seedable{
		"fig4":      experiments.NewFig4SweeperFidelity(seed, fid),
		"ablations": experiments.NewAblationSweeper(seed),
		"detection": experiments.NewDetectionBenchSweeper(seed, fid),
	}
}

// seedableIDs lists the -seeds capable experiment ids, sorted.
func seedableIDs() []string {
	ids := make([]string, 0, 2)
	for id := range seedableSweeps(1, cache.FidelityExact) {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// seedSweepEntry wraps a seedable experiment in a seed sweep paired
// with the statistics-table renderer, so seed sweeps flow through the
// same run/shard/merge paths as any other sweep.
func seedSweepEntry(id string, seed uint64, seeds int, fid cache.Fidelity) (shardableSweep, error) {
	proto, ok := seedableSweeps(seed, fid)[id]
	if !ok {
		return shardableSweep{}, fmt.Errorf("experiment %q does not support -seeds (seedable: %s)", id, strings.Join(seedableIDs(), ", "))
	}
	ss, err := sweep.NewSeedSweeper(proto, sweep.SeedSweepConfig{Seeds: seeds, BaseSeed: seed})
	if err != nil {
		return shardableSweep{}, err
	}
	return shardableSweep{ss, func() ([]experiments.Table, error) {
		t, err := experiments.SeedSweepTable(ss.Result())
		if err != nil {
			return nil, err
		}
		return []experiments.Table{t}, nil
	}}, nil
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
	if set["seeds"] && *seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1, got %d", *seeds)
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
	if *listShard {
		for _, id := range shardableIDs() {
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
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer profiling.StopInto(stopProf, &err)
	if *shardSpec != "" || *mergeGlobs != "" {
		if twoTier {
			// The exact pass depends on the analytic ranking, so the
			// two-tier mode cannot be planned as independent jobs up
			// front; shard each tier separately instead.
			return fmt.Errorf("-fidelity two-tier does not shard (-shard/-merge); shard each tier separately with -fidelity analytic/exact")
		}
		return runSharded(*runList, *seed, *seeds, *workers, fid, *shardSpec, *shardOut, *mergeGlobs, os.Stdout)
	}
	reg := registry(fid)
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return nil
	}

	selected := ids
	if *runList != "all" {
		selected = strings.Split(*runList, ",")
	}
	for i, id := range selected {
		selected[i] = strings.TrimSpace(id)
		if _, ok := reg[selected[i]]; !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", selected[i])
		}
		if twoTier && !twoTierCapable[selected[i]] {
			return fmt.Errorf("experiment %q does not support -fidelity two-tier (two-tier applies to: fig4)", selected[i])
		}
		if !twoTier && fid != cache.FidelityExact && !fidelityCapable[selected[i]] {
			return fmt.Errorf("experiment %q runs on the exact tier only (-fidelity applies to: fig4, warmstart, detection)", selected[i])
		}
	}

	if twoTier {
		if *seeds > 0 {
			return fmt.Errorf("-fidelity two-tier does not compose with -seeds; replicate each tier separately with -fidelity analytic/exact")
		}
		return runTwoTier(selected, *seed, *confirmTop, os.Stdout)
	}
	if *seeds > 0 {
		return runSeedSweeps(selected, *seed, *seeds, *workers, fid, os.Stdout)
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
		tables, err := reg[selected[i]](*seed)
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
		for _, t := range outcomes[i].tables {
			fmt.Println(t.String())
		}
		fmt.Printf("[%s completed in %v]\n\n", id, outcomes[i].elapsed.Round(time.Millisecond))
	}
	return nil
}

// runSeedSweeps handles plain -seeds mode: each selected experiment must
// be seedable; its seed sweep runs in-process and prints the statistics
// table.
func runSeedSweeps(ids []string, seed uint64, seeds, workers int, fid cache.Fidelity, out io.Writer) error {
	for _, id := range ids {
		entry, err := seedSweepEntry(id, seed, seeds, fid)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := (sweep.Engine{Workers: workers}).Run(entry.s); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		tables, err := entry.tables()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		for _, t := range tables {
			fmt.Fprintln(out, t.String())
		}
		fmt.Fprintf(out, "[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runTwoTier handles -fidelity two-tier: each selected experiment runs
// its broad pass on the analytic tier and re-runs the top-k leaders on
// the exact tier.
func runTwoTier(ids []string, seed uint64, topK int, out io.Writer) error {
	for _, id := range ids {
		start := time.Now()
		r, err := experiments.TwoTierFig4(seed, topK)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		for _, t := range r.Tables() {
			fmt.Fprintln(out, t.String())
		}
		fmt.Fprintf(out, "[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runSharded handles the -shard / -merge modes: exactly one shardable
// experiment, either executing one shard of its job plan or folding the
// shard envelopes into its tables. With seeds > 0 the experiment is
// wrapped in a seed sweep first, so the shards partition the
// seed-replicated job plan.
func runSharded(runList string, seed uint64, seeds, workers int, fid cache.Fidelity, shardSpec, shardOut, mergeGlobs string, out io.Writer) error {
	if shardSpec != "" && mergeGlobs != "" {
		return fmt.Errorf("-shard and -merge are mutually exclusive (run shards first, merge after)")
	}
	ids := strings.Split(runList, ",")
	if len(ids) != 1 || runList == "all" {
		return fmt.Errorf("-shard/-merge need exactly one experiment in -run (shardable: %s)", strings.Join(shardableIDs(), ", "))
	}
	id := strings.TrimSpace(ids[0])
	var entry shardableSweep
	if fid != cache.FidelityExact && !fidelityCapable[id] {
		return fmt.Errorf("experiment %q runs on the exact tier only (-fidelity applies to: fig4, warmstart, detection)", id)
	}
	if seeds > 0 {
		var err error
		if entry, err = seedSweepEntry(id, seed, seeds, fid); err != nil {
			return err
		}
	} else {
		var ok bool
		if entry, ok = shardableSweeps(seed, fid)[id]; !ok {
			return fmt.Errorf("experiment %q is not shardable (shardable: %s)", id, strings.Join(shardableIDs(), ", "))
		}
	}
	if shardSpec != "" {
		k, n, err := sweep.ParseShardSpec(shardSpec)
		if err != nil {
			return err
		}
		env, err := sweep.Engine{Workers: workers}.RunShard(entry.s, k, n)
		if err != nil {
			return err
		}
		return env.WriteFile(shardOut, out)
	}
	envs, err := sweep.ReadEnvelopes(strings.Split(mergeGlobs, ","))
	if err != nil {
		return err
	}
	if err := sweep.Merge(entry.s, envs); err != nil {
		return err
	}
	tables, err := entry.tables()
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Fprintln(out, t.String())
	}
	fp, err := sweep.MergedFingerprint(envs)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "[%s merged from %d shard envelopes, fingerprint %s]\n\n", id, len(envs), fp)
	return nil
}
