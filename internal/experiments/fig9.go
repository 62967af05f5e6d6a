package experiments

import (
	"kyoto/internal/cluster"
	"kyoto/internal/hv"
	"kyoto/internal/machine"
	"kyoto/internal/vm"
	"kyoto/internal/xrand"
)

// Fig9Apps are the eight SPEC applications of the §4.5 migration study.
var Fig9Apps = []string{"mcf", "soplex", "milc", "omnetpp", "xalan", "astar", "bzip", "lbm"}

// MigrationHook models KS4Xen's socket-dedication sampling from the
// migrated vCPU's point of view (§4.5, Figure 9): every Period ticks the
// victim vCPU is exiled to the other socket for a pseudo-random 1..MaxAway
// ticks ("the return migration is performed after a random period in order
// to mimic the time taken to compute all vCPUs' llc_capact"), then brought
// home. While away it pays remote-memory latency and loses cache affinity.
type MigrationHook struct {
	// Target is the vCPU being bounced between sockets.
	Target *vm.VCPU
	// HomeCore and AwayCore are the two pinning targets.
	HomeCore int
	AwayCore int
	// Period is the tick interval between exiles.
	Period int
	// MaxAway bounds the random away duration in ticks.
	MaxAway int

	rng   *xrand.Rand
	away  bool
	timer int
	// Migrations counts one-way moves.
	Migrations int
}

var _ hv.TickHook = (*MigrationHook)(nil)

// NewMigrationHook builds the hook with the given seed.
func NewMigrationHook(target *vm.VCPU, homeCore, awayCore, period, maxAway int, seed uint64) *MigrationHook {
	return &MigrationHook{
		Target:   target,
		HomeCore: homeCore,
		AwayCore: awayCore,
		Period:   period,
		MaxAway:  maxAway,
		rng:      xrand.New(seed ^ 0xfeed),
		timer:    period,
	}
}

// OnTick implements hv.TickHook.
func (m *MigrationHook) OnTick(w *hv.World) {
	m.timer--
	if m.timer > 0 {
		return
	}
	if m.away {
		m.Target.Pin = m.HomeCore
		m.away = false
		m.timer = m.Period
	} else {
		m.Target.Pin = m.AwayCore
		m.away = true
		m.timer = 1 + m.rng.Intn(m.MaxAway)
	}
	m.Migrations++
}

// Fig9Result is the migration-overhead study on the NUMA R420.
type Fig9Result struct {
	Apps []string
	// Degradation aligns with Apps: percent IPC loss with periodic
	// cross-socket migration vs undisturbed execution.
	Degradation []float64
}

// Fig9 runs each app solo on the R420, with and without migrations.
func Fig9(seed uint64) (Fig9Result, error) { return newFig9(seed).runInProcess() }

// Fig9Sweep is Figure 9 as a sweep.
func Fig9Sweep(seed uint64) Experiment { return newFig9(seed) }

// newFig9 plans, per app, an undisturbed and a migrated job; each
// payload is the app's IPC.
func newFig9(seed uint64) *figSweep[float64, Fig9Result] {
	s := &figSweep[float64, Fig9Result]{name: "fig9", config: seedConfig{Seed: seed}}
	for _, app := range Fig9Apps {
		sc := Scenario{
			NodeConfig: cluster.NodeConfig{Machine: machine.R420(seed), Seed: seed},
			VMs:        []vm.Spec{pinned("solo", app, 0)},
			Measure:    60,
		}
		s.arms = append(s.arms, ipcArm("base/"+app, sc, "solo"), figArm[float64]{"migrated/" + app, func() (float64, error) {
			// The same world, with the hook wired to the vCPU.
			w, err := sc.build()
			if err != nil {
				return 0, err
			}
			awayCore := w.Machine().Socket(1).Cores[0].ID
			w.AddHook(NewMigrationHook(w.FindVM("solo").VCPUs[0], 0, awayCore, 6, 3, seed))
			return sc.measure(w).IPC("solo"), nil
		}})
	}
	s.fold = func(ipc []float64) (Fig9Result, []Table, error) {
		res := Fig9Result{Apps: Fig9Apps, Degradation: make([]float64, len(Fig9Apps))}
		for i := range Fig9Apps {
			res.Degradation[i] = degradation(ipc[2*i], ipc[2*i+1])
		}
		return res, []Table{res.Table()}, nil
	}
	return s
}

// Table renders the per-app overhead bars.
func (r Fig9Result) Table() Table {
	t := Table{
		Title:   "Figure 9: vCPU migration (socket dedication) overhead per application",
		Note:    "periodic exile to the remote socket; memory-bound applications suffer most",
		Columns: []string{"app", "perf degradation %"},
	}
	for i, app := range r.Apps {
		t.AddRow(app, r.Degradation[i])
	}
	return t
}
