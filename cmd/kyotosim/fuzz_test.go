package main

import (
	"os"
	"path/filepath"
	"testing"

	"kyoto"
)

// FuzzLoadScenario feeds arbitrary bytes through the scenario loader and,
// when it accepts them, builds the single host and a two-host fleet the
// scenario describes and adds every VM to both. No tick runs. Whatever
// the bytes, this must end in a result or an error, never a panic. The
// seeds are the -example scenario and the committed corpus under
// testdata/fuzz: an unknown scheduler, a negative warmup, out-of-range
// pins, a 4096-vCPU VM and the shadow monitor on the analytic tier.
func FuzzLoadScenario(f *testing.F) {
	f.Add([]byte(exampleScenario), false)
	f.Fuzz(func(t *testing.T, data []byte, analytic bool) {
		path := filepath.Join(t.TempDir(), "s.json")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		fid := kyoto.FidelityExact
		if analytic {
			fid = kyoto.FidelityAnalytic
		}
		sc, cfg, _, err := loadScenario(path, fid)
		if err != nil {
			return
		}
		if w, err := kyoto.NewWorld(cfg); err == nil {
			for _, s := range sc.VMs {
				w.AddVM(s.toSpec())
			}
		}
		if c, err := kyoto.NewCluster(kyoto.ClusterConfig{Hosts: 2, World: cfg}); err == nil {
			for _, s := range sc.VMs {
				c.Place(kyoto.ClusterVMSpec{VMSpec: s.toSpec(), MemoryMB: s.MemoryMB})
			}
		}
	})
}
