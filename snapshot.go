package kyoto

// Checkpointable worlds: Snapshot serializes a World's (or a Cluster's)
// complete simulation state into a versioned, fingerprinted envelope, and
// Resume rebuilds a world from it that continues bit-identically — the
// restored run's counters, fingerprints and punishments match a
// straight-through run of the original, tick for tick. The envelope pins
// the construction configuration with a digest, so resuming under a
// different seed, scheduler, machine or fidelity tier fails with a clear
// error instead of silently diverging. See internal/snapshot.

import (
	"fmt"

	"kyoto/internal/snapshot"
)

// Snapshot serializes the world's complete simulation state — caches (or
// the analytic occupancy model), scheduler accounts, Kyoto ledgers,
// monitor samplers, workload PRNG cursors, id allocators — into a
// self-validating envelope. Call it between RunTicks calls; the world is
// left untouched and keeps running. Worlds using MonitorShadowSim cannot
// be checkpointed (the trace-replay monitor's buffers are not
// serializable), and a Cluster's host checkpoints only with its fleet,
// through SnapshotCluster.
func Snapshot(w *World) ([]byte, error) {
	if w.inCluster {
		return nil, fmt.Errorf("kyoto: a cluster host is checkpointed only with its fleet — use SnapshotCluster")
	}
	digest, err := snapshot.ConfigDigest(w.cfg)
	if err != nil {
		return nil, err
	}
	return snapshot.CaptureWorld(w.node, digest)
}

// Resume rebuilds a world from a Snapshot. The config must be exactly
// the one the snapshotted world was built from (same machine, scheduler,
// Kyoto enforcement, seed and fidelity) — the envelope carries a config
// digest and a mismatch is an error. The resumed world's future is
// bit-identical to the original's: running both N ticks produces
// identical counters everywhere.
func Resume(cfg WorldConfig, data []byte) (*World, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	digest, err := snapshot.ConfigDigest(w.cfg)
	if err != nil {
		return nil, err
	}
	if err := snapshot.RestoreWorld(w.node, digest, data); err != nil {
		return nil, err
	}
	return w, nil
}

// clusterDigest is what SnapshotCluster digests: the construction config
// minus Workers, which changes only how many goroutines drive the hosts,
// never any result.
type clusterDigest struct {
	Hosts         int
	World         WorldConfig
	Placer        PlacerKind
	HostMemoryMB  int
	HostLLCBudget float64
	HostOverrides map[int]HostOverride
}

// clusterConfigDigest normalizes the same defaults the fleet constructor
// applies, so two configs that build identical fleets digest identically.
func clusterConfigDigest(cfg ClusterConfig) (string, error) {
	wc := cfg.World
	if wc.Seed == 0 {
		wc.Seed = 1
	}
	if wc.Scheduler == 0 {
		wc.Scheduler = CreditScheduler
	}
	return snapshot.ConfigDigest(clusterDigest{
		Hosts:         cfg.Hosts,
		World:         wc,
		Placer:        cfg.Placer,
		HostMemoryMB:  cfg.HostMemoryMB,
		HostLLCBudget: cfg.HostLLCBudget,
		HostOverrides: cfg.HostOverrides,
	})
}

// SnapshotCluster serializes a whole fleet — every host's world and
// monitor plus the placement bookkeeping — into one envelope. Call it
// between RunTicks calls.
func SnapshotCluster(c *Cluster) ([]byte, error) {
	digest, err := clusterConfigDigest(c.cfg)
	if err != nil {
		return nil, err
	}
	return snapshot.CaptureFleet(c.fleet, digest)
}

// ResumeCluster rebuilds a fleet from a SnapshotCluster. The config must
// be exactly the one the snapshotted cluster was built from (Workers may
// differ — concurrency never changes results); the resumed fleet
// continues bit-identically.
func ResumeCluster(cfg ClusterConfig, data []byte) (*Cluster, error) {
	c, err := NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	digest, err := clusterConfigDigest(c.cfg)
	if err != nil {
		return nil, err
	}
	if err := snapshot.RestoreFleet(c.fleet, digest, data); err != nil {
		return nil, err
	}
	return c, nil
}
