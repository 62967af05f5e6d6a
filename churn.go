package kyoto

// The fleet lifecycle facade: replayable arrival/departure traces,
// synthetic churn, the pending queue for rejected arrivals, live
// migration (rebalancers), and the sweeps that contrast placement and
// rebalancing policies over one trace. See internal/arrivals for the
// engine and its README for the on-disk trace format and queue
// semantics; internal/cluster/README.md documents the migration layer.

import (
	"kyoto/internal/arrivals"
	"kyoto/internal/cluster"
	"kyoto/internal/detect"
	"kyoto/internal/experiments"
)

// Re-exported lifecycle types.
type (
	// TraceEvent is one trace record: submit tick, lifetime, sizing and
	// cache-aggressiveness class of one VM.
	TraceEvent = arrivals.Event
	// Trace is an ordered set of lifecycle events.
	Trace = arrivals.Trace
	// ChurnConfig parameterizes the seeded synthetic churn generator
	// (Poisson-style arrivals, heavy-tailed lifetimes).
	ChurnConfig = arrivals.SynthConfig
	// ClassShare weights one application class in a synthetic mix.
	ClassShare = arrivals.ClassShare
	// ReplayOptions tunes a trace replay.
	ReplayOptions = arrivals.Options
	// ReplayRecord is one VM's outcome: placement (or rejection),
	// residency bounds, and lifetime counters.
	ReplayRecord = arrivals.Record
	// ReplayResult is a whole replay's outcome, with a deterministic
	// Fingerprint.
	ReplayResult = arrivals.Result
	// HostOverride customizes one host of an otherwise uniform fleet
	// (heterogeneous machines, memory or permit budgets).
	HostOverride = cluster.HostOverride
	// FleetSweepConfig parameterizes a fleet sweep (SweepTrace,
	// SweepMigrations, SweepDetection); each sweep takes Workers plus
	// the fields its config digest covers, and refuses the rest.
	FleetSweepConfig = experiments.FleetSweepConfig
	// FleetSweepResult compares the arms of a sweep over one trace; its
	// Table renders the sweep's report.
	FleetSweepResult = experiments.FleetSweepResult
	// FleetSweepRow is one arm's outcome: placement, normalized-performance
	// and queue-wait percentiles, migrations and detection scores.
	FleetSweepRow = experiments.FleetSweepRow
	// Rebalancer plans live migrations from per-epoch pollution views;
	// use NewReactiveRebalancer / NewTopologyRebalancer or implement your
	// own against the cluster view types.
	Rebalancer = cluster.Rebalancer
	// RebalanceView is the fleet snapshot a Rebalancer plans from.
	RebalanceView = cluster.RebalanceView
	// VMLoad is one VM's pollution observation within a RebalanceView.
	VMLoad = cluster.VMLoad
	// Migration is one planned VM move.
	Migration = cluster.Migration
	// MigrationEvent is one applied live migration in a ReplayResult.
	MigrationEvent = arrivals.MigrationEvent
	// PendingPolicy selects what a replay does with arrivals no host can
	// take (reject, queue FIFO, queue with deadline).
	PendingPolicy = arrivals.PendingPolicy
	// DetectorConfig tunes the streaming change-point detector behind
	// the signature rebalancer (EWMA smoothing, CUSUM drift/threshold,
	// warm-up); the zero value selects the detect package defaults.
	DetectorConfig = detect.Config
	// ChangePoint is one confirmed regime shift in a VM's pollution-rate
	// series, as logged by the signature rebalancer.
	ChangePoint = cluster.ChangePoint
	// LifetimeEstimator predicts a VM's expected remaining lifetime from
	// its age; the signature rebalancer uses it to skip migrations that
	// would not amortize their cache-rewarm cost.
	LifetimeEstimator = cluster.LifetimeEstimator
	// TwoTierTraceResult pairs a broad analytic trace sweep with the
	// exact re-runs of its leading arms (SweepTraceTwoTier).
	TwoTierTraceResult = experiments.TwoTierTraceResult
)

// Pending-queue policies (see arrivals.PendingPolicy).
const (
	// PendingNone rejects unplaceable arrivals outright.
	PendingNone = arrivals.PendingNone
	// PendingFIFO queues them and retries in submit order as capacity
	// frees.
	PendingFIFO = arrivals.PendingFIFO
	// PendingDeadline is PendingFIFO with a bounded wait: VMs queued
	// longer than ReplayOptions.MaxWait are dropped.
	PendingDeadline = arrivals.PendingDeadline
)

// NewReactiveRebalancer returns the hotspot-chasing rebalancer: each
// epoch, the worst polluter (by Equation 1) of the most-polluted host is
// live-migrated to the least-polluted host with capacity headroom, if it
// exceeds threshold (0 selects the default, one Figure-5 permit). A
// per-VM migration cooldown (hysteresis) keeps the policy from bouncing
// the same VM on consecutive epochs; the returned instance carries that
// state, so use a fresh one per replay.
func NewReactiveRebalancer(threshold float64) Rebalancer {
	return &cluster.Reactive{Threshold: threshold}
}

// NewTopologyRebalancer returns the heterogeneity-aware rebalancer: like
// NewReactiveRebalancer (including the per-VM migration cooldown), but
// polluters are steered onto hosts with a larger LLC (HostOverride
// machines) when one fits, where the same miss stream pollutes a smaller
// cache fraction.
func NewTopologyRebalancer(threshold float64) Rebalancer {
	return &cluster.TopologyAware{Threshold: threshold}
}

// NewSignatureRebalancer returns the change-detection rebalancer: every
// VM's Equation-1 rate series runs through a streaming CUSUM
// change-point detector (DetectorConfig; zero value = defaults), and
// migrations are planned only on confirmed upward shifts — the
// victim-side signal that a polluter landed on the host. Confirmed
// shifts evict the shifted host's worst polluter above threshold (0
// selects the default) toward the coolest feasible host, batched up to
// a per-epoch cap. Attach a LifetimeEstimator (TraceLifetimes) to skip
// migrations whose expected remaining VM lifetime would not amortize
// the evicted cache footprint. The returned instance carries per-replay
// state (detectors, cooldowns, the change-point log), so use a fresh
// one per replay.
func NewSignatureRebalancer(threshold float64, det DetectorConfig, lifetimes LifetimeEstimator) Rebalancer {
	return &cluster.Signature{Threshold: threshold, Detector: det, Lifetimes: lifetimes}
}

// TraceLifetimes builds the empirical mean-residual-life estimator from
// a trace's lifetime distribution, the LifetimeEstimator the signature
// rebalancer's amortization check wants.
func TraceLifetimes(tr Trace) LifetimeEstimator { return arrivals.NewLifetimeStats(tr) }

// RebalancerByName returns the built-in rebalancer with the given CLI
// name ("reactive", "topo", "signature"); "none" and "" return nil (no
// rebalancing).
func RebalancerByName(name string) (Rebalancer, error) {
	return cluster.RebalancerByName(name)
}

// RebalancerNames lists the built-in rebalancer names.
func RebalancerNames() []string { return cluster.RebalancerNames() }

// PendingPolicyByName returns the pending-queue policy with the given CLI
// name ("none", "fifo", "deadline").
func PendingPolicyByName(name string) (PendingPolicy, error) {
	return arrivals.PendingPolicyByName(name)
}

// PendingPolicyNames lists the pending-queue policy names.
func PendingPolicyNames() []string { return arrivals.PendingPolicyNames() }

// LoadTrace reads a JSON or CSV trace file (format by extension; see
// internal/arrivals/README.md for the schema).
func LoadTrace(path string) (Trace, error) { return arrivals.Load(path) }

// SynthesizeTrace generates a seeded synthetic churn trace; identical
// configs yield identical traces.
func SynthesizeTrace(cfg ChurnConfig) Trace { return arrivals.Synthesize(cfg) }

// ReplayTrace builds a fleet from cfg and feeds the trace through it:
// arrivals are placed by cfg.Placer, departures free their bookings and
// cache footprint. Rejections are recorded in the result, not returned
// as errors. The replay is deterministic for a given trace and config,
// serial or parallel (Result.Fingerprint).
func ReplayTrace(cfg ClusterConfig, tr Trace, opts ReplayOptions) (ReplayResult, error) {
	c, err := NewCluster(cfg)
	if err != nil {
		return ReplayResult{}, err
	}
	return arrivals.Replay(c.fleet, tr, opts)
}

// SweepTrace replays the trace through all three placement policies on
// identically seeded fleets and reports per-policy rejection rate,
// utilization and fleet-wide p50/p95/p99 normalized performance — the
// paper's contrast under churn.
func SweepTrace(tr Trace, cfg FleetSweepConfig) (*FleetSweepResult, error) {
	return experiments.TraceSweep(tr, cfg)
}

// SweepTraceTwoTier runs the trace sweep two-tier: the whole sweep on
// the analytic fast tier, then the topK arms with the best analytic p99
// floor re-run on the exact tier (with exact solo baselines). topK <= 0
// confirms one arm. The broad pass ranks, the exact pass decides.
func SweepTraceTwoTier(tr Trace, cfg FleetSweepConfig, topK int) (*TwoTierTraceResult, error) {
	return experiments.TwoTierTraceSweep(tr, cfg, topK)
}

// SweepMigrations replays the trace through every requested rebalancer x
// placer combination on identically seeded fleets — reactive operation
// (live migration, pending queue) side by side with Kyoto's proactive
// admission. The result's Table reports rejection rate, queue-wait
// percentiles, migration counts and the p99 normalized-performance floor
// per combination.
func SweepMigrations(tr Trace, cfg FleetSweepConfig) (*FleetSweepResult, error) {
	return experiments.MigrationSweep(tr, cfg)
}

// SweepDetection replays the trace through three arms on identically
// seeded fleets — proactive Kyoto admission, threshold-reactive
// migration and signature-reactive migration (change-point detection) —
// and scores each arm's triggers against the trace's aggressive-app
// arrivals: false-trigger rate, detection coverage and mean
// time-to-detect, alongside the usual p99 normalized-performance floor.
func SweepDetection(tr Trace, cfg FleetSweepConfig) (*FleetSweepResult, error) {
	return experiments.DetectionSweep(tr, cfg)
}
