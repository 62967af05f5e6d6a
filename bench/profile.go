package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
)

// cpuLayers are the packages whose share of flat CPU samples is reported
// as cpu_share.<layer>; everything else is cpu_share.other. detect is
// counted under cluster: only the cluster's Signature rebalancer drives
// it.
var cpuLayers = []string{"arrivals", "cache", "cluster", "core", "cpu", "hv", "json", "monitor", "pmc", "runtime", "sched", "sweep", "vm", "workload", "xrand"}

// startProfile starts a CPU profile into path at the pprof default of
// 100 Hz (higher rates are not delivered reliably on every kernel).
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// cpuByLayer aggregates a CPU profile's flat samples by layer with `go
// tool pprof`, in seconds; the values sum to the profile's total.
func cpuByLayer(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-unit=ms", profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(profile))
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", profile, err)
	}
	return parseTop(string(out))
}

// parseTop reads `pprof -top -unit=ms` text: after the column header,
// each line is flat, flat%, sum%, cum, cum% and the function name.
func parseTop(text string) (map[string]float64, error) {
	byLayer := map[string]float64{}
	rows := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", line, err)
		}
		byLayer[layerOf(strings.Join(f[5:], " "))] += ms / 1e3
	}
	if !rows {
		return nil, fmt.Errorf("pprof output has no sample table")
	}
	return byLayer, nil
}

// layerOf maps a pprof function name to its layer.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	fn = strings.TrimSuffix(fn, " (inline)")
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "encoding/json":
		return "json"
	case pkg == "kyoto/internal/detect":
		return "cluster"
	}
	if name, ok := strings.CutPrefix(pkg, "kyoto/internal/"); ok && slices.Contains(cpuLayers, name) {
		return name
	}
	return "other"
}
