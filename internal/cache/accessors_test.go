package cache

import (
	"strings"
	"testing"
)

func TestPolicyAndLevelStrings(t *testing.T) {
	for l, want := range map[Level]string{HitL1: "L1", HitL2: "L2", HitLLC: "LLC"} {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(l), got, want)
		}
	}
	if s := Level(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown Level String() = %q", s)
	}
}

func TestCacheAccessorsAndRelease(t *testing.T) {
	cfg := testAnalyticConfig()
	c := MustNew(cfg)
	if got := c.Config(); got != cfg {
		t.Errorf("Config() = %+v", got)
	}
	if got, want := c.Sets(), 128; got != want {
		t.Errorf("Sets() = %d, want %d", got, want)
	}
	c.Access(0, 1)
	if c.Stats(1).Accesses == 0 {
		t.Fatal("access not recorded")
	}
	c.ReleaseOwner(1)
	if c.Stats(1) != (OwnerStats{}) {
		t.Errorf("ReleaseOwner left stats: %+v", c.Stats(1))
	}
	if c.OwnersTracked() == 0 {
		t.Error("OwnersTracked() = 0 after use")
	}
}

func TestMustNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with invalid config must panic")
		}
	}()
	MustNew(Config{Name: "broken"})
}
