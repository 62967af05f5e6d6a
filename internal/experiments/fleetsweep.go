package experiments

// Fleet sweep: the cluster-scoped controlled experiment. One
// arrival/departure trace is replayed through a list of arms — each a
// {placer, Kyoto enforcement, rebalancer} combination — on identically
// seeded fleets. Per-VM lifetime IPC is normalized against a solo run of
// its app class, and every arm is scored on placement, the
// normalized-performance tail, pending-queue waits, live migrations and
// trigger quality against the trace's aggressive-app ground truth.
//
// The paper's contrast lives in the choice of arms, so the three
// experiments built on the engine are presets of it:
//
//	trace      first-fit and spread run unprotected, the kyoto placer
//	           books llc_cap permits at admission and enforces them
//	migration  {rebalancers} x those three placers, with live migration
//	           and a Borg-style pending queue: does reacting after the
//	           fact buy back the tail admission protects by construction?
//	detection  admission vs threshold- and signature-reactive migration
//	           on first-fit, scored on false triggers and time-to-detect
//
// A preset is plain data (fleetPreset): sweep name, arms, job-key
// format, payload tags, config digest, table columns and seed metrics.
// Its payload and digest bytes are those its experiment has always
// produced, so committed shard envelopes and goldens keep merging.
//
// A FleetSweeper is the preset built as a figSweep: solo-baseline jobs
// (one per distinct app class) plus one replay job per arm, shardable
// across processes and merged bit-identically to the in-process run, and
// seed-replicable through the preset's metric list.

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sort"

	"kyoto/internal/arrivals"
	"kyoto/internal/cache"
	"kyoto/internal/cluster"
	"kyoto/internal/detect"
	"kyoto/internal/machine"
	"kyoto/internal/stats"
	"kyoto/internal/sweep"
)

// DefaultDetectionRebalanceEvery is the detection sweep's rebalance
// epoch in ticks. The sweeps that only migrate use the replay engine's
// default of 12; change detection also has to *observe* each VM enough
// times to learn a baseline and confirm a shift within the VM
// lifetimes the committed traces actually have (median a few tens of
// ticks), so the detection sweep samples three times as often.
const DefaultDetectionRebalanceEvery = 4

// DefaultAggressiveApps are the app classes treated as ground-truth
// regime shifts when they arrive: the paper's Figure-4 polluters, the
// same set arrivals.DefaultMix injects as the aggressive share.
func DefaultAggressiveApps() []string { return []string{"blockie", "lbm", "mcf"} }

// FleetSweepConfig parameterizes a fleet sweep. Hosts, Seed, Workers,
// DrainTicks and Fidelity apply to every preset; each remaining field
// names the presets that take it, and the others reject it when set.
type FleetSweepConfig struct {
	// Hosts is the fleet size each arm gets (default 4).
	Hosts int
	// Seed seeds every fleet and the solo baselines (default 1).
	Seed uint64
	// Workers caps the job fan-out and each fleet's advancement
	// concurrency (0 = GOMAXPROCS). It changes scheduling only, never
	// results, so it stays out of the config digest.
	Workers int
	// DrainTicks extends the replay past the last event so VMs that
	// never depart accumulate a window (default DefaultMeasureTicks).
	DrainTicks int
	// Overrides optionally makes the fleets heterogeneous; the same
	// overrides apply under every arm. Trace and migration.
	Overrides map[int]cluster.HostOverride
	// BigLLCFactor, when non-zero (a power of two), gives the highest-ID
	// host an LLC and permit budget scaled by this factor — the
	// heterogeneous fleet the topology-aware rebalancer steers polluters
	// to. An explicit Overrides entry for that host wins. Migration.
	BigLLCFactor int
	// Rebalancers names the rebalancing arms, each crossed with the
	// three placers (default none, reactive, topo — pinned explicitly,
	// not cluster.RebalancerNames, so the committed sweep fingerprints
	// survive new policies being registered; ask for "signature" by
	// name). Migration.
	Rebalancers []string
	// RebalanceEvery is the rebalance epoch in ticks (default
	// arrivals.DefaultRebalanceEvery for migration,
	// DefaultDetectionRebalanceEvery for detection). Migration and
	// detection.
	RebalanceEvery uint64
	// Downtime is the per-migration blackout in ticks (default 0; a
	// negative value is an error). Migration and detection.
	Downtime int
	// Pending is the queue policy applied to rejected arrivals in every
	// arm (default PendingNone: reject outright). Migration.
	Pending arrivals.PendingPolicy
	// MaxWait bounds queue waits under PendingDeadline (default
	// arrivals.DefaultMaxWait). Migration.
	MaxWait uint64
	// Threshold is the Equation-1 rate floor the reactive arms act at
	// (default cluster.DefaultRebalanceThreshold). Detection.
	Threshold float64
	// Detector configures the change-point detectors of any signature
	// arm (zero value = detect defaults). Migration and detection.
	Detector detect.Config
	// AggressiveApps are the ground-truth app classes triggers are
	// scored against (default DefaultAggressiveApps). Detection.
	AggressiveApps []string
	// Fidelity selects the cache-model tier for every fleet and the solo
	// baselines (default cache.FidelityExact). It enters the config
	// digest, so shards run at different fidelities refuse to merge.
	Fidelity cache.Fidelity
}

// FleetSweepRow is one arm's outcome, with every scorer's columns.
type FleetSweepRow struct {
	// Arm names the arm where the preset names its arms (detection:
	// admission, reactive, signature). Placer and Rebalancer identify
	// the configuration (Rebalancer is empty where the preset does not
	// record it); Enforced reports whether per-host Kyoto permit
	// enforcement was active (the kyoto placer's contract).
	Arm        string
	Placer     string
	Rebalancer string
	Enforced   bool
	// Submitted/Placed/Rejected count VMs; RejectionRate is
	// Rejected/Submitted.
	Submitted     int
	Placed        int
	Rejected      int
	RejectionRate float64
	// CPUUtilization is the time-weighted mean booked vCPU share.
	CPUUtilization float64
	// P50, P95, P99 are tail-oriented percentiles of per-VM normalized
	// performance (lifetime IPC over the app's solo IPC, 1.0 = as if
	// alone): PXX is the normalized performance that XX% of placed VMs
	// meet or exceed, so P99 is the floor the slowest 1% boundary
	// provides — where churn-driven unpredictability lives.
	P50, P95, P99 float64
	// WaitP50/P95/P99 are percentiles of the placed VMs' pending-queue
	// wait in ticks (all zero when the queue is disabled or never used);
	// WaitP99Small/Large split the tail by VM size class
	// (arrivals.SmallVMMaxCPUs), making SJF starvation of large VMs
	// visible.
	WaitP50, WaitP95, WaitP99  float64
	WaitP99Small, WaitP99Large float64
	// MigrationCount is the number of live migrations applied.
	MigrationCount int
	// Triggers counts the arm's actionable detection events — the
	// applied migrations, each an explicit "this VM is the problem"
	// claim. ChangePointCount additionally reports a recorded signature
	// arm's raw confirmed change points (its victim-side evidence; a
	// change point names the VM whose series shifted, the eviction it
	// triggers names the polluter).
	Triggers         int
	ChangePointCount int
	// FalseTriggers are triggers on VMs outside the aggressive ground
	// truth; FalseTriggerRate is FalseTriggers/Triggers (0 when the arm
	// never triggered).
	FalseTriggers    int
	FalseTriggerRate float64
	// AggressiveVMs counts placed ground-truth VMs; Detected counts how
	// many of them the arm triggered on at least once.
	AggressiveVMs int
	Detected      int
	// MeanTimeToDetect is the mean of (first trigger tick - placed
	// tick) over detected VMs, in ticks (0 when nothing was detected).
	MeanTimeToDetect float64
	// Replay and ChangePoints carry the full per-VM outcome and the
	// change-point log for deeper analysis.
	Replay       arrivals.Result
	ChangePoints []cluster.ChangePoint
}

// FleetSweepResult is the whole sweep.
type FleetSweepResult struct {
	Hosts int
	// Pending is the queue policy every arm ran under.
	Pending arrivals.PendingPolicy
	Rows    []FleetSweepRow
	preset  *fleetPreset
}

// fleetArm is one arm of a plan. name is set only where the preset
// names its arms; rebalancer is a cluster.RebalancerByName name ("" and
// "none" never migrate).
type fleetArm struct {
	name       string
	placer     cluster.Placer
	enforced   bool
	rebalancer string
}

// placerArms are the paper's three placement policies: the two
// unprotected families it contrasts, then Kyoto admission with on-host
// enforcement.
var placerArms = []fleetArm{
	{placer: cluster.FirstFit{}},
	{placer: cluster.Spread{}},
	{placer: cluster.Admission{}, enforced: true},
}

// fleetArmPayload is the canonical JSON result of one arm job. Field
// order and omitempty are load-bearing: each preset fills only the
// fields its committed envelopes carry.
type fleetArmPayload struct {
	Arm          string                `json:"arm,omitempty"`
	Placer       string                `json:"placer"`
	Rebalancer   string                `json:"rebalancer,omitempty"`
	Enforced     bool                  `json:"enforced"`
	Replay       arrivals.Result       `json:"replay"`
	ChangePoints []cluster.ChangePoint `json:"change_points,omitempty"`
}

// soloPayload is the canonical JSON result of one solo-baseline job.
type soloPayload struct {
	App string  `json:"app"`
	IPC float64 `json:"ipc"`
}

// fleetPreset is one experiment on the fleet-sweep engine, as data.
type fleetPreset struct {
	// name is the sweep name envelopes carry.
	name string
	// arms is the fixed arm list; nil crosses cfg.Rebalancers with
	// placerArms, rebalancer-major.
	arms []fleetArm
	// rebalanceEvery is the RebalanceEvery default (0 leaves it to the
	// replay engine).
	rebalanceEvery uint64
	// key and label format an arm's job key and its seed-sweep arm name
	// from (placer, rebalancer, arm name).
	key, label string
	// recordRebalancer and recordChangePoints select the optional
	// payload fields the preset writes.
	recordRebalancer, recordChangePoints bool
	// digest returns the config struct the envelope digest covers; its
	// field names are the FleetSweepConfig fields the preset takes
	// (besides Workers), and any other field set non-zero is an error.
	digest func(cfg FleetSweepConfig) interface{}
	// title formats the table title from (hosts, pending policy).
	title, note string
	// columns and metrics name entries of fleetColumns and fleetMetrics.
	columns, metrics []string
}

// tracePreset replays the trace through the three placement policies.
var tracePreset = fleetPreset{
	name:  "trace-sweep",
	arms:  placerArms,
	key:   "arm/%[1]s",
	label: "%[1]s",
	digest: func(cfg FleetSweepConfig) interface{} {
		return struct {
			Hosts      int
			Seed       uint64
			DrainTicks int
			Overrides  map[int]cluster.HostOverride
			Fidelity   string `json:",omitempty"`
		}{cfg.Hosts, cfg.Seed, cfg.DrainTicks, cfg.Overrides, fidelityTag(cfg.Fidelity)}
	},
	title: "Trace sweep: 3 placers, %[1]d hosts",
	note: "normalized perf = per-VM lifetime IPC / solo IPC (1.0 = as if alone); pXX = floor XX% of VMs meet; " +
		"first-fit and spread run unprotected, kyoto books and enforces llc_cap permits",
	columns: []string{"placer", "enforced", "placed", "rejected", "rej rate", "cpu util", "p50 norm", "p95 norm", "p99 norm"},
	metrics: []string{"rej_rate", "cpu_util", "p50_norm", "p95_norm", "p99_norm"},
}

// migrationPreset crosses the rebalancers with the placement policies.
var migrationPreset = fleetPreset{
	name:             "migration-sweep",
	key:              "arm/%[2]s/%[1]s",
	label:            "%[1]s/%[2]s",
	recordRebalancer: true,
	digest: func(cfg FleetSweepConfig) interface{} {
		return struct {
			Hosts          int
			Seed           uint64
			DrainTicks     int
			Overrides      map[int]cluster.HostOverride
			BigLLCFactor   int
			Rebalancers    []string
			RebalanceEvery uint64
			Downtime       int
			Pending        arrivals.PendingPolicy
			MaxWait        uint64
			Detector       *detect.Config `json:",omitempty"`
			Fidelity       string         `json:",omitempty"`
		}{cfg.Hosts, cfg.Seed, cfg.DrainTicks, cfg.Overrides, cfg.BigLLCFactor,
			cfg.Rebalancers, cfg.RebalanceEvery, cfg.Downtime, cfg.Pending, cfg.MaxWait,
			detectorTag(cfg.Detector), fidelityTag(cfg.Fidelity)}
	},
	title: "Migration sweep: %[1]d hosts, pending=%[2]s",
	note: "normalized perf = per-VM lifetime IPC / solo IPC (1.0 = as if alone); p99 norm = floor 99% of VMs meet; " +
		"wait pXX = pending-queue wait (ticks) XX% of placed VMs stayed under; " +
		"first-fit and spread run unprotected, kyoto books and enforces llc_cap permits",
	columns: []string{"placer", "migrate", "placed", "rejected", "rej rate", "wait p50", "wait p95", "wait p99", "migs", "p99 norm"},
	metrics: []string{
		"rej_rate", "cpu_util",
		"wait_p50", "wait_p95", "wait_p99", "wait_p99_small", "wait_p99_large",
		"migrations", "p50_norm", "p99_norm",
	},
}

// detectionPreset runs the paper's proactive admission answer, then the
// two reactive policies on unprotected first-fit fleets (reaction is
// what operators do *instead* of admission control, so the reactive
// arms run without Kyoto enforcement).
var detectionPreset = fleetPreset{
	name: "detection-sweep",
	arms: []fleetArm{
		{name: "admission", placer: cluster.Admission{}, enforced: true},
		{name: "reactive", placer: cluster.FirstFit{}, rebalancer: "reactive"},
		{name: "signature", placer: cluster.FirstFit{}, rebalancer: "signature"},
	},
	rebalanceEvery:     DefaultDetectionRebalanceEvery,
	key:                "arm/%[3]s",
	label:              "%[3]s",
	recordChangePoints: true,
	digest: func(cfg FleetSweepConfig) interface{} {
		return struct {
			Hosts          int
			Seed           uint64
			DrainTicks     int
			RebalanceEvery uint64
			Downtime       int
			Threshold      float64
			Detector       detect.Config
			AggressiveApps []string
			Fidelity       string `json:",omitempty"`
		}{cfg.Hosts, cfg.Seed, cfg.DrainTicks, cfg.RebalanceEvery, cfg.Downtime,
			cfg.Threshold, cfg.Detector, cfg.AggressiveApps, fidelityTag(cfg.Fidelity)}
	},
	title: "Detection sweep: 3 arms, %[1]d hosts",
	note: "triggers = applied migrations (each claims its VM was the problem); chgpts = confirmed change points (signature only); " +
		"false rate = triggers on non-aggressive VMs / triggers; ttd = mean ticks from aggressive-VM arrival to first trigger; " +
		"p99 norm = per-VM lifetime IPC over solo IPC floor 99% of VMs meet",
	columns: []string{"arm", "placer", "placed", "chgpts", "triggers", "false rate", "detected", "mean ttd", "p99 norm"},
	metrics: []string{"placed", "triggers", "chgpts", "false_rate", "detected", "mean_ttd", "p99_norm"},
}

// fleetColumns renders each table column's cell from a row.
var fleetColumns = map[string]func(r FleetSweepRow) interface{}{
	"arm":      func(r FleetSweepRow) interface{} { return r.Arm },
	"placer":   func(r FleetSweepRow) interface{} { return r.Placer },
	"migrate":  func(r FleetSweepRow) interface{} { return r.Rebalancer },
	"enforced": func(r FleetSweepRow) interface{} { return r.Enforced },
	"placed":   func(r FleetSweepRow) interface{} { return r.Placed },
	"rejected": func(r FleetSweepRow) interface{} { return r.Rejected },
	"rej rate": func(r FleetSweepRow) interface{} { return fmt.Sprintf("%.1f%%", 100*r.RejectionRate) },
	"cpu util": func(r FleetSweepRow) interface{} { return fmt.Sprintf("%.1f%%", 100*r.CPUUtilization) },
	"p50 norm": func(r FleetSweepRow) interface{} { return r.P50 },
	"p95 norm": func(r FleetSweepRow) interface{} { return r.P95 },
	"p99 norm": func(r FleetSweepRow) interface{} { return r.P99 },
	"wait p50": func(r FleetSweepRow) interface{} { return r.WaitP50 },
	"wait p95": func(r FleetSweepRow) interface{} { return r.WaitP95 },
	"wait p99": func(r FleetSweepRow) interface{} { return r.WaitP99 },
	"migs":     func(r FleetSweepRow) interface{} { return r.MigrationCount },
	"chgpts":   func(r FleetSweepRow) interface{} { return r.ChangePointCount },
	"triggers": func(r FleetSweepRow) interface{} { return r.Triggers },
	"false rate": func(r FleetSweepRow) interface{} {
		if r.Triggers == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*r.FalseTriggerRate)
	},
	"detected": func(r FleetSweepRow) interface{} { return fmt.Sprintf("%d/%d", r.Detected, r.AggressiveVMs) },
	"mean ttd": func(r FleetSweepRow) interface{} { return fmt.Sprintf("%.1f", r.MeanTimeToDetect) },
}

// fleetMetrics reads each seed-sweep metric off a row.
var fleetMetrics = map[string]func(r FleetSweepRow) float64{
	"rej_rate":       func(r FleetSweepRow) float64 { return r.RejectionRate },
	"cpu_util":       func(r FleetSweepRow) float64 { return r.CPUUtilization },
	"p50_norm":       func(r FleetSweepRow) float64 { return r.P50 },
	"p95_norm":       func(r FleetSweepRow) float64 { return r.P95 },
	"p99_norm":       func(r FleetSweepRow) float64 { return r.P99 },
	"wait_p50":       func(r FleetSweepRow) float64 { return r.WaitP50 },
	"wait_p95":       func(r FleetSweepRow) float64 { return r.WaitP95 },
	"wait_p99":       func(r FleetSweepRow) float64 { return r.WaitP99 },
	"wait_p99_small": func(r FleetSweepRow) float64 { return r.WaitP99Small },
	"wait_p99_large": func(r FleetSweepRow) float64 { return r.WaitP99Large },
	"migrations":     func(r FleetSweepRow) float64 { return float64(r.MigrationCount) },
	"placed":         func(r FleetSweepRow) float64 { return float64(r.Placed) },
	"triggers":       func(r FleetSweepRow) float64 { return float64(r.Triggers) },
	"chgpts":         func(r FleetSweepRow) float64 { return float64(r.ChangePointCount) },
	"false_rate":     func(r FleetSweepRow) float64 { return r.FalseTriggerRate },
	"detected":       func(r FleetSweepRow) float64 { return float64(r.Detected) },
	"mean_ttd":       func(r FleetSweepRow) float64 { return r.MeanTimeToDetect },
}

// FleetSweeper is the shardable fleet sweep: a figSweep whose jobs are
// one solo baseline per distinct app class of the trace, then one replay
// per arm, and whose fold scores each arm against the baselines. Build
// one with NewTraceSweeper, NewMigrationSweeper or NewDetectionSweeper,
// then either sweep.Engine.Run for a single process or RunShard/Merge
// for a distributed one; Result returns the merged outcome, nil until
// Merge ran.
type FleetSweeper = figSweep[json.RawMessage, *FleetSweepResult]

// NewTraceSweeper returns the three-placer trace sweep.
func NewTraceSweeper(tr arrivals.Trace, cfg FleetSweepConfig) (*FleetSweeper, error) {
	return newFleetSweeper(&tracePreset, tr, cfg)
}

// NewMigrationSweeper returns the rebalancer x placer migration sweep.
// Rows are ordered rebalancer-major in the order requested, placers
// within in first-fit/spread/kyoto order.
func NewMigrationSweeper(tr arrivals.Trace, cfg FleetSweepConfig) (*FleetSweeper, error) {
	return newFleetSweeper(&migrationPreset, tr, cfg)
}

// NewDetectionSweeper returns the three-arm detection sweep, whose rows
// score each arm's triggers against the aggressive-app ground truth.
func NewDetectionSweeper(tr arrivals.Trace, cfg FleetSweepConfig) (*FleetSweeper, error) {
	return newFleetSweeper(&detectionPreset, tr, cfg)
}

// NewDetectionBenchSweeper is the kyotobench "detection" entry: the
// three-arm detection sweep over a seeded synthetic churn trace (the
// DefaultMix quiet-to-aggressive ratio, 48 VMs) with the default
// detector tuning. It cannot fail: the synthetic trace and the zero
// detector config always validate, so construction errors are
// programming errors and panic like any other broken invariant.
func NewDetectionBenchSweeper(seed uint64, fid cache.Fidelity) *FleetSweeper {
	tr := arrivals.Synthesize(arrivals.SynthConfig{Seed: seed, VMs: 48})
	s, err := NewDetectionSweeper(tr, FleetSweepConfig{Seed: seed, Fidelity: fid})
	if err != nil {
		panic(err)
	}
	return s
}

// traceConfig is a fleet sweep's config digest: the trace plus the
// preset's digest struct.
type traceConfig struct {
	Trace arrivals.Trace `json:"trace"`
	Cfg   any            `json:"cfg"`
}

// takes reports whether the preset takes the named FleetSweepConfig
// field: every field of its digest struct, plus Workers, which never
// changes results.
func (p *fleetPreset) takes(field string) bool {
	_, ok := reflect.TypeOf(p.digest(FleetSweepConfig{})).FieldByName(field)
	return ok || field == "Workers"
}

// newFleetSweeper checks cfg against the preset, applies the defaults,
// validates the trace, resolves the arms and builds the sweep.
func newFleetSweeper(p *fleetPreset, tr arrivals.Trace, cfg FleetSweepConfig) (*FleetSweeper, error) {
	v := reflect.ValueOf(cfg)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; !v.Field(i).IsZero() && !p.takes(name) {
			return nil, fmt.Errorf("experiments: %s does not take %s", p.name, name)
		}
	}
	if cfg.Hosts == 0 {
		cfg.Hosts = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.DrainTicks == 0 {
		cfg.DrainTicks = DefaultMeasureTicks
	}
	if cfg.RebalanceEvery == 0 {
		cfg.RebalanceEvery = p.rebalanceEvery
	}
	// Defaults fill only fields the preset takes, so a reseeded copy of
	// the config passes the check above again.
	if len(cfg.Rebalancers) == 0 && p.takes("Rebalancers") {
		cfg.Rebalancers = []string{"none", "reactive", "topo"}
	}
	if len(cfg.AggressiveApps) == 0 && p.takes("AggressiveApps") {
		cfg.AggressiveApps = DefaultAggressiveApps()
	}
	if cfg.Downtime < 0 {
		return nil, fmt.Errorf("experiments: Downtime must be >= 0 ticks, got %d", cfg.Downtime)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if err := (&cluster.Signature{Detector: cfg.Detector}).Validate(); err != nil {
		return nil, err
	}
	arms := p.arms
	if arms == nil {
		for _, rb := range cfg.Rebalancers {
			for _, a := range placerArms {
				a.rebalancer = rb
				arms = append(arms, a)
			}
		}
	}
	for _, a := range arms {
		// Resolve now so a bogus name fails at plan time; each job builds
		// its own instance (rebalancers carry per-run cooldown state).
		if _, err := cluster.RebalancerByName(a.rebalancer); err != nil {
			return nil, err
		}
	}
	overrides, err := bigLLCOverrides(cfg)
	if err != nil {
		return nil, err
	}
	apps := traceApps(tr)
	s := &FleetSweeper{
		name:       p.name,
		config:     traceConfig{tr, p.digest(cfg)},
		workers:    cfg.Workers,
		metrics:    p.metrics,
		metricRows: p.metricRows,
		reseed: func(seed uint64) *FleetSweeper {
			c := cfg
			c.Seed = seed
			re, err := newFleetSweeper(p, tr, c)
			if err != nil {
				panic(err) // cfg passed every check above; only the seed changed
			}
			return re
		},
		fold: func(payloads []json.RawMessage) (*FleetSweepResult, []Table, error) {
			solo, err := soloBaselines(payloads[:len(apps)])
			if err != nil {
				return nil, nil, err
			}
			res := &FleetSweepResult{Hosts: cfg.Hosts, Pending: cfg.Pending, preset: p}
			for i, raw := range payloads[len(apps):] {
				var pl fleetArmPayload
				if err := json.Unmarshal(raw, &pl); err != nil {
					return nil, nil, fmt.Errorf("arm payload %d: %w", i, err)
				}
				res.Rows = append(res.Rows, fleetRow(pl, solo, cfg.AggressiveApps))
			}
			return res, []Table{res.Table()}, nil
		},
	}
	for _, app := range apps {
		s.arms = append(s.arms, figArm[json.RawMessage]{"solo/" + app, func() (json.RawMessage, error) {
			ipc, err := soloIPC(app, cfg.Seed, cfg.Fidelity)
			if err != nil {
				return nil, err
			}
			return json.Marshal(soloPayload{App: app, IPC: ipc})
		}})
	}
	for _, a := range arms {
		key := fmt.Sprintf(p.key, a.placer.Name(), a.rebalancer, a.name)
		s.arms = append(s.arms, figArm[json.RawMessage]{key, func() (json.RawMessage, error) {
			pl, err := p.replay(tr, cfg, overrides, a)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", key, err)
			}
			return json.Marshal(pl)
		}})
	}
	return s, nil
}

// replay runs one arm: the trace replayed through a fresh fleet under
// the arm's placer, enforcement and rebalancer.
func (p *fleetPreset) replay(tr arrivals.Trace, cfg FleetSweepConfig, overrides map[int]cluster.HostOverride, a fleetArm) (fleetArmPayload, error) {
	// A fresh rebalancer per job: the built-ins carry per-VM cooldown
	// state, which must not leak between arms (or between the shards of
	// a distributed run, which could never share it anyway).
	rb, err := cluster.RebalancerByName(a.rebalancer)
	if err != nil {
		return fleetArmPayload{}, err
	}
	switch r := rb.(type) {
	case *cluster.Reactive:
		r.Threshold = cfg.Threshold
	case *cluster.Signature:
		r.Threshold = cfg.Threshold
		r.Detector = cfg.Detector
	}
	armRebalancer(rb, tr, cfg.RebalanceEvery)
	f, err := cluster.New(cluster.Config{
		Hosts:     cfg.Hosts,
		Template:  cluster.HostTemplate{Seed: cfg.Seed, EnableKyoto: a.enforced, Fidelity: cfg.Fidelity},
		Overrides: overrides,
		Placer:    a.placer,
		Workers:   cfg.Workers,
	})
	if err != nil {
		return fleetArmPayload{}, err
	}
	replay, err := arrivals.Replay(f, tr, arrivals.Options{
		DrainTicks:        cfg.DrainTicks,
		Pending:           cfg.Pending,
		MaxWait:           cfg.MaxWait,
		Rebalancer:        rb,
		RebalanceEvery:    cfg.RebalanceEvery,
		MigrationDowntime: cfg.Downtime,
	})
	if err != nil {
		return fleetArmPayload{}, err
	}
	pl := fleetArmPayload{Arm: a.name, Placer: a.placer.Name(), Enforced: a.enforced, Replay: replay}
	if p.recordRebalancer {
		pl.Rebalancer = a.rebalancer
	}
	if sig, ok := rb.(*cluster.Signature); ok && p.recordChangePoints {
		pl.ChangePoints = sig.ChangePoints()
	}
	return pl, nil
}

// soloBaselines decodes the solo-baseline payloads into per-app IPCs.
func soloBaselines(payloads []json.RawMessage) (map[string]float64, error) {
	solo := make(map[string]float64, len(payloads))
	for i, raw := range payloads {
		var p soloPayload
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, fmt.Errorf("solo payload %d: %w", i, err)
		}
		solo[p.App] = p.IPC
	}
	return solo, nil
}

// fleetRow folds one arm payload into its result row: placement outcome,
// normalized-performance and wait percentiles, and the arm's triggers
// scored against the aggressive-app ground truth.
func fleetRow(p fleetArmPayload, solo map[string]float64, aggressive []string) FleetSweepRow {
	rp := p.Replay
	row := FleetSweepRow{
		Arm:              p.Arm,
		Placer:           p.Placer,
		Rebalancer:       p.Rebalancer,
		Enforced:         p.Enforced,
		Submitted:        len(rp.Records),
		Placed:           rp.Placed,
		Rejected:         rp.Rejected,
		RejectionRate:    rp.RejectionRate(),
		CPUUtilization:   rp.CPUUtilization,
		MigrationCount:   len(rp.Migrations),
		ChangePointCount: len(p.ChangePoints),
		Replay:           rp,
		ChangePoints:     p.ChangePoints,
	}
	// stats.Percentile errors are impossible here (non-empty sample,
	// valid p). Normalized performance is higher-is-better, so PXX is
	// the (100-XX)th percentile; waits are lower-is-better, so wait pXX
	// is the plain XXth: the wait the luckiest XX% stayed under.
	if norm := normalizedPerf(rp, solo); len(norm) > 0 {
		row.P50, _ = stats.Percentile(norm, 50)
		row.P95, _ = stats.Percentile(norm, 5)
		row.P99, _ = stats.Percentile(norm, 1)
	}
	if waits := rp.PlacedWaits(); len(waits) > 0 {
		row.WaitP50, _ = stats.Percentile(waits, 50)
		row.WaitP95, _ = stats.Percentile(waits, 95)
		row.WaitP99, _ = stats.Percentile(waits, 99)
	}
	small, large := rp.PlacedWaitsByClass()
	row.WaitP99Small, row.WaitP99Large = percentileOrZero(small, 99), percentileOrZero(large, 99)

	if len(aggressive) == 0 {
		aggressive = DefaultAggressiveApps()
	}
	// Ground truth: every placed aggressive VM is one regime shift, at
	// its placement tick.
	onset := make(map[string]uint64)
	for _, rec := range rp.Records {
		if !rec.Rejected && slices.Contains(aggressive, rec.App) {
			onset[rec.Name] = rec.PlacedTick
			row.AggressiveVMs++
		}
	}
	// Triggers are the applied migrations, each an explicit claim that
	// the migrated VM was the problem. Threshold reaction and signature
	// confirmation differ in *when and whom* they move, which is exactly
	// what the ground-truth match measures.
	firstHit := make(map[string]uint64)
	for _, m := range rp.Migrations {
		row.Triggers++
		if _, isTruth := onset[m.Name]; !isTruth {
			row.FalseTriggers++
			continue
		}
		if prev, seen := firstHit[m.Name]; !seen || m.Tick < prev {
			firstHit[m.Name] = m.Tick
		}
	}
	if row.Triggers > 0 {
		row.FalseTriggerRate = float64(row.FalseTriggers) / float64(row.Triggers)
	}
	// Fold in record order, not map order: float sums must accumulate
	// deterministically for sharded and serial merges to stay bitwise
	// identical.
	var lagSum float64
	for _, rec := range rp.Records {
		tick, ok := firstHit[rec.Name]
		if !ok {
			continue
		}
		row.Detected++
		if tick > onset[rec.Name] {
			lagSum += float64(tick - onset[rec.Name])
		}
	}
	if row.Detected > 0 {
		row.MeanTimeToDetect = lagSum / float64(row.Detected)
	}
	return row
}

// metricRows reads the preset's seed metrics off a merged result: one
// row per arm.
func (p *fleetPreset) metricRows(res *FleetSweepResult) []sweep.MetricRow {
	rows := make([]sweep.MetricRow, len(res.Rows))
	for i, row := range res.Rows {
		values := make([]float64, len(p.metrics))
		for j, m := range p.metrics {
			values[j] = fleetMetrics[m](row)
		}
		rows[i] = sweep.MetricRow{Arm: fmt.Sprintf(p.label, row.Placer, row.Rebalancer, row.Arm), Values: values}
	}
	return rows
}

// Table renders the sweep as its preset's comparison table. A result
// built by hand has no preset and renders with the trace preset, whose
// columns every row has.
func (r FleetSweepResult) Table() Table {
	p := r.preset
	if p == nil {
		p = &tracePreset
	}
	t := Table{Title: fmt.Sprintf(p.title, r.Hosts, r.Pending), Note: p.note, Columns: p.columns}
	for _, row := range r.Rows {
		cells := make([]interface{}, len(p.columns))
		for i, c := range p.columns {
			cells[i] = fleetColumns[c](row)
		}
		t.AddRow(cells...)
	}
	return t
}

// TraceSweep replays the trace through all three placement policies and
// reports per-policy rejection, utilization and normalized-performance
// percentiles. Fleets are seeded identically, so rows differ only by
// policy; the whole sweep is deterministic for a given trace and config.
func TraceSweep(tr arrivals.Trace, cfg FleetSweepConfig) (*FleetSweepResult, error) {
	s, err := NewTraceSweeper(tr, cfg)
	if err != nil {
		return nil, err
	}
	return s.runInProcess()
}

// MigrationSweep replays the trace through every requested rebalancer x
// placer combination on identically seeded fleets.
func MigrationSweep(tr arrivals.Trace, cfg FleetSweepConfig) (*FleetSweepResult, error) {
	s, err := NewMigrationSweeper(tr, cfg)
	if err != nil {
		return nil, err
	}
	return s.runInProcess()
}

// DetectionSweep replays the trace through the three detection arms and
// scores their triggers against the aggressive-app ground truth.
func DetectionSweep(tr arrivals.Trace, cfg FleetSweepConfig) (*FleetSweepResult, error) {
	s, err := NewDetectionSweeper(tr, cfg)
	if err != nil {
		return nil, err
	}
	return s.runInProcess()
}

// traceApps returns the distinct app classes of the trace, sorted — the
// solo-baseline jobs of a sweep plan.
func traceApps(tr arrivals.Trace) []string {
	seen := make(map[string]bool)
	apps := make([]string, 0, 8)
	for _, e := range tr.Events {
		if !seen[e.App] {
			seen[e.App] = true
			apps = append(apps, e.App)
		}
	}
	sort.Strings(apps)
	return apps
}

// soloIPC runs one app class alone on a template host and returns its
// IPC — the denominator of normalized performance. The baseline runs on
// the same fidelity tier as the fleets it normalizes, so a tier's
// systematic bias cancels out of the ratio.
func soloIPC(app string, seed uint64, fid cache.Fidelity) (float64, error) {
	sc := soloScenario(app, seed)
	sc.Fidelity = fid
	r, err := Run(sc)
	if err != nil {
		return 0, fmt.Errorf("solo baseline %s: %w", app, err)
	}
	return r.IPC("solo"), nil
}

// normalizedPerf computes per-VM lifetime IPC over the app's solo IPC for
// every placed VM with a measurable window, in record order.
func normalizedPerf(replay arrivals.Result, solo map[string]float64) []float64 {
	var norm []float64
	for _, rec := range replay.Records {
		base := solo[rec.App]
		if rec.Rejected || base == 0 || rec.Counters.UnhaltedCycles == 0 {
			continue
		}
		norm = append(norm, rec.Counters.IPC()/base)
	}
	return norm
}

// percentileOrZero is stats.Percentile with empty samples reading as 0
// — "no VMs of this class waited" rather than an error.
func percentileOrZero(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// bigLLCOverrides merges cfg.Overrides with the BigLLCFactor host.
func bigLLCOverrides(cfg FleetSweepConfig) (map[int]cluster.HostOverride, error) {
	if cfg.BigLLCFactor == 0 {
		return cfg.Overrides, nil
	}
	if cfg.BigLLCFactor < 0 || cfg.BigLLCFactor&(cfg.BigLLCFactor-1) != 0 {
		return nil, fmt.Errorf("experiments: BigLLCFactor %d is not a power of two (cache sets must stay a power of two)", cfg.BigLLCFactor)
	}
	overrides := make(map[int]cluster.HostOverride, len(cfg.Overrides)+1)
	for id, o := range cfg.Overrides {
		overrides[id] = o
	}
	big := cfg.Hosts - 1
	if _, ok := overrides[big]; !ok {
		m := machine.TableOne()
		m.LLC.SizeBytes *= cfg.BigLLCFactor
		cores := m.Sockets * m.CoresPerSocket
		overrides[big] = cluster.HostOverride{
			Machine:   m,
			LLCBudget: float64(cores*cluster.DefaultLLCCapPerCore) * float64(cfg.BigLLCFactor),
		}
	}
	return overrides, nil
}

// detectorTag returns the config-digest form of a detector config: nil
// for the zero value, so sweeps that never touch the detector knobs
// keep their committed fingerprints (the fidelityTag pattern).
func detectorTag(cfg detect.Config) *detect.Config {
	if cfg == (detect.Config{}) {
		return nil
	}
	return &cfg
}

// armRebalancer attaches trace-derived context to policies that want
// it: a Signature rebalancer gets the trace's empirical lifetime
// statistics and the replay's rebalance cadence, so its amortization
// check reasons in the trace's own tick scale. Other policies are
// returned untouched.
func armRebalancer(rb cluster.Rebalancer, tr arrivals.Trace, every uint64) {
	sig, ok := rb.(*cluster.Signature)
	if !ok {
		return
	}
	if every == 0 {
		every = arrivals.DefaultRebalanceEvery
	}
	sig.EpochTicks = every
	sig.Lifetimes = arrivals.NewLifetimeStats(tr)
}
