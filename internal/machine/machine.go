// Package machine assembles the simulated physical machines the evaluation
// runs on: sockets, cores, the private/shared cache hierarchy, NUMA memory
// nodes, and the model clock.
//
// Two configurations mirror the paper's testbeds:
//
//   - TableOne: the Dell with one Xeon E5-1603 v3 socket (4 cores, 10 MB
//     20-way LLC) used by every experiment except Fig 9,
//   - R420: the two-socket PowerEdge R420 used for the NUMA migration
//     overhead study (Fig 9).
//
// Both are scaled replicas: capacities 1:16 and clock 1:28 relative to the
// real machines (see the Scale* constants). Scaling preserves the
// contention geometry — sets x ways, working-set-to-cache ratios, and the
// reload-time-to-tick ratio that gives Figure 2 its shape — while keeping
// simulation cost tractable.
package machine

import (
	"fmt"
	"strings"

	"kyoto/internal/cache"
)

// Scaling of the simulated machines relative to the paper's hardware.
const (
	// CapacityScale divides all cache and working-set capacities.
	CapacityScale = 16
	// ClockScale divides the paper's 2.8 GHz clock (100 MHz model clock).
	ClockScale = 28
)

// Model-time constants (the paper's Xen defaults, §2.2.5: a 30 ms time
// slice of three 10 ms ticks).
const (
	// CPUFreqKHz is the model clock: 100 MHz.
	CPUFreqKHz = 100_000
	// TickMillis is the scheduler tick length.
	TickMillis = 10
	// CyclesPerTick = CPUFreqKHz * TickMillis.
	CyclesPerTick = CPUFreqKHz * TickMillis
	// TicksPerSlice is the credit-scheduler accounting period.
	TicksPerSlice = 3
)

// Config describes a machine to build. Its caches are LRU and draw no
// random numbers, so one Config always builds the same machine; the
// simulation's randomness is seeded by the world that runs on it.
type Config struct {
	// Name labels the machine in reports.
	Name string
	// Sockets and CoresPerSocket give the topology.
	Sockets        int
	CoresPerSocket int
	// MainMemoryMB is reported in Table 1 renderings (the simulator does
	// not model capacity misses in main memory).
	MainMemoryMB int
	// L1, L2 are per-core cache templates; LLC is the per-socket shared
	// cache template; each instance is named after its socket or core.
	L1  cache.Config
	L2  cache.Config
	LLC cache.Config
	// MemLatencyCycles and RemotePenaltyCycles parameterize main memory.
	MemLatencyCycles    uint32
	RemotePenaltyCycles uint32
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Sockets <= 0 || c.CoresPerSocket <= 0 {
		return fmt.Errorf("machine %q: need positive sockets/cores, got %d/%d", c.Name, c.Sockets, c.CoresPerSocket)
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("machine %q: %w", c.Name, err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("machine %q: %w", c.Name, err)
	}
	if err := c.LLC.Validate(); err != nil {
		return fmt.Errorf("machine %q: %w", c.Name, err)
	}
	if c.MemLatencyCycles == 0 {
		return fmt.Errorf("machine %q: memory latency must be positive", c.Name)
	}
	return nil
}

// Core is one physical core with its private caches and its socket's
// shared LLC reachable through Path.
type Core struct {
	// ID is the global core id (socket-major order).
	ID int
	// SocketID is the owning socket.
	SocketID int
	// Path is the memory path used by the execution engine.
	Path cache.Path
}

// Socket groups cores sharing one LLC and one local memory node.
type Socket struct {
	// ID is the socket (and NUMA node) id.
	ID int
	// LLC is the shared last-level cache.
	LLC *cache.Cache
	// Cores are the socket's cores.
	Cores []*Core
}

// Machine is a built simulated machine.
type Machine struct {
	cfg     Config
	sockets []*Socket
	cores   []*Core // flat, by global id
}

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg}
	coreID := 0
	for s := 0; s < cfg.Sockets; s++ {
		llcCfg := cfg.LLC
		llcCfg.Name = fmt.Sprintf("LLC%d", s)
		llc, err := cache.New(llcCfg)
		if err != nil {
			return nil, err
		}
		sock := &Socket{ID: s, LLC: llc}
		for c := 0; c < cfg.CoresPerSocket; c++ {
			l1Cfg := cfg.L1
			l1Cfg.Name = fmt.Sprintf("L1D.%d", coreID)
			l2Cfg := cfg.L2
			l2Cfg.Name = fmt.Sprintf("L2.%d", coreID)
			l1, err := cache.New(l1Cfg)
			if err != nil {
				return nil, err
			}
			l2, err := cache.New(l2Cfg)
			if err != nil {
				return nil, err
			}
			core := &Core{
				ID:       coreID,
				SocketID: s,
				Path: cache.Path{
					L1D: l1, L2: l2, LLC: llc,
					MemLatencyCycles:    cfg.MemLatencyCycles,
					RemotePenaltyCycles: cfg.RemotePenaltyCycles,
				},
			}
			sock.Cores = append(sock.Cores, core)
			m.cores = append(m.cores, core)
			coreID++
		}
		m.sockets = append(m.sockets, sock)
	}
	return m, nil
}

// MustNew is New but panics on error, for the built-in configs.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// NumCores returns the total core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// NumSockets returns the socket count.
func (m *Machine) NumSockets() int { return len(m.sockets) }

// Core returns the core with global id.
func (m *Machine) Core(id int) *Core { return m.cores[id] }

// Socket returns the socket with the given id.
func (m *Machine) Socket(id int) *Socket { return m.sockets[id] }

// Sockets returns all sockets.
func (m *Machine) Sockets() []*Socket { return m.sockets }

// Cores returns all cores in global-id order.
func (m *Machine) Cores() []*Core { return m.cores }

// TableOne returns the scaled replica of the paper's Table 1 machine:
// Xeon E5-1603 v3, one socket, four cores; L1D 32 KB 8-way, L2 256 KB
// 8-way, LLC 10 MB 20-way; main memory 8096 MB. All capacities divided by
// CapacityScale. Like every Config it takes no seed.
func TableOne() Config {
	return Config{
		Name:           "Dell / Xeon E5-1603 v3 (1:16 capacity, 1:28 clock)",
		Sockets:        1,
		CoresPerSocket: 4,
		MainMemoryMB:   8096 / CapacityScale,
		L1: cache.Config{
			Name: "L1D", SizeBytes: 32 * 1024 / CapacityScale, Ways: 8,
			LineBytes: 64, HitLatencyCycles: 4,
		},
		L2: cache.Config{
			Name: "L2", SizeBytes: 256 * 1024 / CapacityScale, Ways: 8,
			LineBytes: 64, HitLatencyCycles: 12,
		},
		LLC: cache.Config{
			Name: "LLC", SizeBytes: 10 * 1024 * 1024 / CapacityScale, Ways: 20,
			LineBytes: 64, HitLatencyCycles: 45,
		},
		MemLatencyCycles:    180,
		RemotePenaltyCycles: 120,
	}
}

// R420 returns the scaled replica of the paper's PowerEdge R420 (§4.5):
// two sockets, four cores each, with per-socket memory nodes. Remote
// accesses pay RemotePenaltyCycles, which is what Figure 9 measures.
// Like every Config it takes no seed.
func R420() Config {
	cfg := TableOne()
	cfg.Name = "PowerEdge R420, 2 sockets (1:16 capacity, 1:28 clock)"
	cfg.Sockets = 2
	cfg.MainMemoryMB *= 2
	return cfg
}

// TableString renders the configuration as the paper's Table 1.
func (c Config) TableString() string {
	var b strings.Builder
	row := func(k, v string) { fmt.Fprintf(&b, "%-14s %s\n", k, v) }
	row("Main memory", fmt.Sprintf("%d MB", c.MainMemoryMB))
	row("L1 cache", fmt.Sprintf("L1 D %d KB, %d-way", c.L1.SizeBytes/1024, c.L1.Ways))
	row("L2 cache", fmt.Sprintf("L2 U %d KB, %d-way", c.L2.SizeBytes/1024, c.L2.Ways))
	row("LLC", fmt.Sprintf("%d KB, %d-way", c.LLC.SizeBytes/1024, c.LLC.Ways))
	row("Processor", fmt.Sprintf("%d Socket(s), %d Cores/socket @ %d kHz (model)", c.Sockets, c.CoresPerSocket, CPUFreqKHz))
	return b.String()
}
