package machine

import (
	"strings"
	"testing"

	"kyoto/internal/cache"
)

func TestTableOneGeometry(t *testing.T) {
	cfg := TableOne()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Sockets != 1 || cfg.CoresPerSocket != 4 {
		t.Fatalf("topology = %d x %d", cfg.Sockets, cfg.CoresPerSocket)
	}
	// Scaled capacities: 2 KB / 16 KB / 640 KB.
	if cfg.L1.SizeBytes != 2048 || cfg.L2.SizeBytes != 16*1024 || cfg.LLC.SizeBytes != 640*1024 {
		t.Fatalf("capacities = %d/%d/%d", cfg.L1.SizeBytes, cfg.L2.SizeBytes, cfg.LLC.SizeBytes)
	}
	// Paper associativities survive scaling.
	if cfg.L1.Ways != 8 || cfg.L2.Ways != 8 || cfg.LLC.Ways != 20 {
		t.Fatalf("ways = %d/%d/%d", cfg.L1.Ways, cfg.L2.Ways, cfg.LLC.Ways)
	}
	// Paper latencies (lmbench §2.2.4).
	if cfg.L1.HitLatencyCycles != 4 || cfg.L2.HitLatencyCycles != 12 ||
		cfg.LLC.HitLatencyCycles != 45 || cfg.MemLatencyCycles != 180 {
		t.Fatal("latencies do not match the paper")
	}
}

func TestR420Topology(t *testing.T) {
	cfg := R420()
	if cfg.Sockets != 2 {
		t.Fatalf("R420 sockets = %d", cfg.Sockets)
	}
	m := MustNew(cfg)
	if m.NumCores() != 8 || m.NumSockets() != 2 {
		t.Fatalf("cores/sockets = %d/%d", m.NumCores(), m.NumSockets())
	}
	// Cores 4..7 are on socket 1.
	if m.Core(5).SocketID != 1 || m.Core(2).SocketID != 0 {
		t.Fatal("socket assignment wrong")
	}
}

func TestLLCSharedWithinSocketOnly(t *testing.T) {
	m := MustNew(R420())
	s0 := m.Socket(0)
	if s0.Cores[0].Path.LLC != s0.Cores[3].Path.LLC {
		t.Fatal("cores of one socket must share the LLC")
	}
	if m.Socket(0).LLC == m.Socket(1).LLC {
		t.Fatal("sockets must not share an LLC")
	}
	if m.Core(0).Path.LLC != m.Socket(0).LLC {
		t.Fatal("core path must reference its socket's LLC")
	}
}

func TestPrivateCachesArePrivate(t *testing.T) {
	m := MustNew(TableOne())
	if m.Core(0).Path.L1D == m.Core(1).Path.L1D {
		t.Fatal("L1 must be per core")
	}
	if m.Core(0).Path.L2 == m.Core(1).Path.L2 {
		t.Fatal("L2 must be per core")
	}
}

func TestContentionThroughSharedLLC(t *testing.T) {
	m := MustNew(TableOne())
	llc := m.Socket(0).LLC
	// Owner 1 via core 0 fills a line; owner 2 via core 3 sees it in LLC.
	m.Core(0).Path.Access(0x1234, cache.Owner(1), false)
	lvl, _ := m.Core(3).Path.Access(0x1234, cache.Owner(2), false)
	if lvl != cache.HitLLC {
		t.Fatalf("cross-core access level = %v, want LLC hit", lvl)
	}
	if llc.Stats(cache.Owner(1)).Fills != 1 {
		t.Fatal("attribution lost")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := TableOne()
	cfg.Sockets = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero sockets must fail")
	}
	cfg = TableOne()
	cfg.MemLatencyCycles = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero memory latency must fail")
	}
	cfg = TableOne()
	cfg.LLC.Ways = 7 // 10240 lines not divisible -> invalid
	if _, err := New(cfg); err == nil {
		t.Fatal("bad LLC geometry must fail")
	}
}

func TestTableString(t *testing.T) {
	s := TableOne().TableString()
	for _, want := range []string{"LLC", "640 KB", "20-way", "L1 D", "Cores/socket"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
}

func TestModelClockConstants(t *testing.T) {
	if CyclesPerTick != CPUFreqKHz*TickMillis {
		t.Fatal("cycle/tick arithmetic inconsistent")
	}
	if TicksPerSlice != 3 || TickMillis != 10 {
		t.Fatal("paper's Xen defaults: 30ms slice of 3 ticks")
	}
}
