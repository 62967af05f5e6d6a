package experiments

// Warm-start sweep forking: the Figure-1-style contention arms all share
// the same warm-up prefix (the victim running solo until caches and
// scheduler reach steady state), so instead of re-simulating that prefix
// per arm, the prefix runs once, is checkpointed through
// internal/snapshot, and every arm forks from the checkpoint — restore,
// add its disruptor, measure. Because restore is bit-identical, the
// forked arms produce exactly the counters the cold arms do; the sweep
// verifies that per arm and measures the wall-clock speedup, which
// BENCH_kyoto.json tracks commit over commit.

import (
	"fmt"
	"time"

	"kyoto/internal/cache"
	"kyoto/internal/cluster"
	"kyoto/internal/hv"
	"kyoto/internal/machine"
	"kyoto/internal/pmc"
	"kyoto/internal/snapshot"
	"kyoto/internal/vm"
)

// WarmStartConfig shapes the forked contention sweep.
type WarmStartConfig struct {
	// Seed drives all randomness (default 1).
	Seed uint64
	// Fidelity selects the cache-model tier (default cache.FidelityExact).
	Fidelity cache.Fidelity
	// WarmupTicks is the shared solo prefix length (default 30).
	WarmupTicks int
	// MeasureTicks is the per-arm measurement window (default 30).
	MeasureTicks int
	// Victim is the sensitive app warmed up solo on core 0 (default gcc).
	Victim string
	// Disruptors are the per-arm co-runners on core 1 (default the
	// built-in SPEC-style mix).
	Disruptors []string
}

// withDefaults fills the zero fields.
func (c WarmStartConfig) withDefaults() WarmStartConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.WarmupTicks == 0 {
		c.WarmupTicks = 30
	}
	if c.MeasureTicks == 0 {
		c.MeasureTicks = 30
	}
	if c.Victim == "" {
		c.Victim = "gcc"
	}
	if len(c.Disruptors) == 0 {
		c.Disruptors = []string{"lbm", "omnetpp", "blockie", "povray", "micro-c2-dis", "micro-c3-dis"}
	}
	return c
}

// WarmStartArm is one disruptor's measured outcome.
type WarmStartArm struct {
	// Disruptor is the co-runner app.
	Disruptor string
	// VictimIPC is the victim's IPC over the measurement window.
	VictimIPC float64
	// Fingerprint folds every VM's end-of-run counters and punishments —
	// the identity the warm and cold paths are compared on.
	Fingerprint string
}

// WarmStartResult holds both paths' arms and the fork accounting.
type WarmStartResult struct {
	// Warm and Cold are the per-arm outcomes of the forked and the
	// straight-through path, in disruptor order.
	Warm, Cold []WarmStartArm
	// WarmupTicks and MeasureTicks echo the config.
	WarmupTicks, MeasureTicks int
	// TicksCold and TicksWarm count simulated ticks per path: cold pays
	// the warm-up once per arm, warm pays it once in total.
	TicksCold, TicksWarm int
	// ColdDuration and WarmDuration are the measured wall clocks, and
	// Speedup is ColdDuration / WarmDuration. They differ run to run, so
	// they stay out of the JSON payload and the table, which must be
	// byte-identical for every run of the same config.
	ColdDuration, WarmDuration time.Duration `json:"-"`
	Speedup                    float64       `json:"-"`
}

// BitIdentical reports whether every forked arm reproduced its cold
// arm's fingerprint exactly.
func (r *WarmStartResult) BitIdentical() bool {
	if len(r.Warm) != len(r.Cold) {
		return false
	}
	for i := range r.Warm {
		if r.Warm[i] != r.Cold[i] {
			return false
		}
	}
	return true
}

// warmStartWorld builds the sweep's empty host: plain credit scheduling.
func warmStartWorld(cfg WarmStartConfig) (*cluster.Node, error) {
	return cluster.NewNode(cluster.NodeConfig{Machine: machine.TableOne(), Seed: cfg.Seed, Fidelity: cfg.Fidelity})
}

// warmStartFingerprint folds the world's outcome.
func warmStartFingerprint(w *hv.World) string {
	h := pmc.FoldSeed
	for _, v := range w.VCPUs() {
		h = v.Counters.Fold(h)
	}
	for _, m := range w.VMs() {
		h = pmc.FoldUint64(h, m.Punishments)
	}
	return fmt.Sprintf("%016x", h)
}

// warmStartMeasure adds the arm's disruptor to a warmed-up world and
// runs the measurement window, returning the arm outcome.
func warmStartMeasure(w *hv.World, cfg WarmStartConfig, disruptor string) (WarmStartArm, error) {
	victim := w.FindVM("victim")
	if victim == nil {
		return WarmStartArm{}, fmt.Errorf("warmstart: warmed-up world has no victim VM")
	}
	before := victim.Counters()
	if _, err := w.AddVM(vm.Spec{Name: "dis", App: disruptor, Pins: []int{1}}); err != nil {
		return WarmStartArm{}, err
	}
	w.RunTicks(cfg.MeasureTicks)
	delta := victim.Counters().Delta(before)
	return WarmStartArm{
		Disruptor:   disruptor,
		VictimIPC:   delta.IPC(),
		Fingerprint: warmStartFingerprint(w),
	}, nil
}

// WarmStartSweep runs the contention arms twice — cold (every arm
// re-simulates the warm-up) and warm (all arms fork from one checkpoint)
// — verifies per-arm bit-identity, and reports the measured speedup.
// Arms run serially in both paths so the wall-clock ratio measures the
// fork itself, not scheduling noise.
func WarmStartSweep(cfg WarmStartConfig) (*WarmStartResult, error) {
	cfg = cfg.withDefaults()
	digest, err := snapshot.ConfigDigest(cfg)
	if err != nil {
		return nil, err
	}
	res := &WarmStartResult{
		WarmupTicks:  cfg.WarmupTicks,
		MeasureTicks: cfg.MeasureTicks,
		TicksCold:    len(cfg.Disruptors) * (cfg.WarmupTicks + cfg.MeasureTicks),
		TicksWarm:    cfg.WarmupTicks + len(cfg.Disruptors)*cfg.MeasureTicks,
	}

	// Cold path: each arm re-simulates the shared prefix.
	start := time.Now()
	for _, dis := range cfg.Disruptors {
		n, err := warmStartWorld(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := n.World.AddVM(vm.Spec{Name: "victim", App: cfg.Victim, Pins: []int{0}}); err != nil {
			return nil, err
		}
		n.World.RunTicks(cfg.WarmupTicks)
		arm, err := warmStartMeasure(n.World, cfg, dis)
		if err != nil {
			return nil, err
		}
		res.Cold = append(res.Cold, arm)
	}
	res.ColdDuration = time.Since(start)

	// Warm path: one prefix, one checkpoint, one fork per arm.
	start = time.Now()
	prefix, err := warmStartWorld(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := prefix.World.AddVM(vm.Spec{Name: "victim", App: cfg.Victim, Pins: []int{0}}); err != nil {
		return nil, err
	}
	prefix.World.RunTicks(cfg.WarmupTicks)
	ckpt, err := snapshot.CaptureWorld(prefix, digest)
	if err != nil {
		return nil, err
	}
	for _, dis := range cfg.Disruptors {
		n, err := warmStartWorld(cfg)
		if err != nil {
			return nil, err
		}
		if err := snapshot.RestoreWorld(n, digest, ckpt); err != nil {
			return nil, err
		}
		arm, err := warmStartMeasure(n.World, cfg, dis)
		if err != nil {
			return nil, err
		}
		res.Warm = append(res.Warm, arm)
	}
	res.WarmDuration = time.Since(start)

	if res.WarmDuration > 0 {
		res.Speedup = float64(res.ColdDuration) / float64(res.WarmDuration)
	}
	if !res.BitIdentical() {
		return res, fmt.Errorf("warmstart: forked arms diverged from cold arms — snapshot restore is not bit-identical")
	}
	return res, nil
}

// WarmStartExperiment is the warm-start sweep as a one-job sweep whose
// payload is the WarmStartResult without its wall clocks.
func WarmStartExperiment(seed uint64, fid cache.Fidelity) Experiment {
	return &figSweep[*WarmStartResult, *WarmStartResult]{
		name: "warmstart", config: seedConfig{seed, fidelityTag(fid)},
		arms: []figArm[*WarmStartResult]{{"warmstart", func() (*WarmStartResult, error) {
			return WarmStartSweep(WarmStartConfig{Seed: seed, Fidelity: fid})
		}}},
		fold: func(rs []*WarmStartResult) (*WarmStartResult, []Table, error) {
			if rs[0] == nil {
				return nil, nil, fmt.Errorf("warmstart: empty payload")
			}
			return rs[0], []Table{rs[0].Table()}, nil
		},
	}
}

// Table renders the sweep: per-arm victim IPC with the warm/cold
// fingerprints, and a note with the simulated-tick accounting.
func (r *WarmStartResult) Table() Table {
	t := Table{
		Title:   "Warm-start forking: contention arms forked from one checkpointed warm-up",
		Note:    fmt.Sprintf("warmup %d ticks shared across %d arms; cold %d simulated ticks vs warm %d", r.WarmupTicks, len(r.Warm), r.TicksCold, r.TicksWarm),
		Columns: []string{"disruptor", "victim IPC", "fingerprint", "forked == cold"},
	}
	for i, arm := range r.Warm {
		t.AddRow(arm.Disruptor, arm.VictimIPC, arm.Fingerprint, arm == r.Cold[i])
	}
	return t
}
