package main

// Scenario-mode checkpointing: -checkpoint-every N -checkpoint-out f
// periodically serializes the running world — plus the report
// bookkeeping that lives outside it: the scenario itself, the current
// tick and the measurement-window baseline counters — into a small JSON
// wrapper around the snapshot world envelope, and -resume f reloads the
// wrapper and continues, producing output byte-identical to the
// uninterrupted run. Mismatched machine/scheduler/kyoto/monitor/seed/
// fidelity settings surface through the envelope's config digest;
// everything the digest cannot see (the VM list, the warmup/ticks
// windows) is caught by comparing the stored scenario bytes. Writes are
// atomic (temp file + rename), so a kill mid-write leaves the previous
// checkpoint intact.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"kyoto"
	"kyoto/internal/sweep"
)

// cliCheckpointSchema versions the wrapper; bump on incompatible change.
const cliCheckpointSchema = "kyotosim-checkpoint-v1"

// cliCheckpoint is the scenario-mode checkpoint file.
type cliCheckpoint struct {
	Schema string `json:"schema"`
	// Scenario is the canonical (canonicalJSON) scenario the run was
	// started with; a resume must present the same scenario.
	Scenario json.RawMessage `json:"scenario"`
	// Tick is the world clock at capture time.
	Tick uint64 `json:"tick"`
	// Before holds the per-VM counters at the end of warmup (the
	// measurement-window baseline), once the run is past warmup.
	Before []kyoto.Counters `json:"before,omitempty"`
	// Snapshot is the internal/snapshot world envelope.
	Snapshot json.RawMessage `json:"snapshot"`
}

// checkpointOpts carries the -checkpoint-every/-checkpoint-out/-resume
// flags into the scenario runner. The zero value means neither.
type checkpointOpts struct {
	resume string // checkpoint file to resume from ("" = fresh run)
	path   string // periodic checkpoint output file ("" = no checkpoints)
	every  int    // ticks between checkpoints when path is set
}

// canonicalJSON compacts data and HTML-escapes it: the form json.Marshal
// gives the scenario it embeds as a json.RawMessage. Stored and presented
// scenario bytes then compare independently of formatting and of how a
// string spells <, >, &, U+2028 or U+2029.
func canonicalJSON(data []byte) ([]byte, error) {
	var compact, escaped bytes.Buffer
	if err := json.Compact(&compact, data); err != nil {
		return nil, err
	}
	json.HTMLEscape(&escaped, compact.Bytes())
	return escaped.Bytes(), nil
}

// resumeScenario loads a checkpoint written by a run of the same
// scenario and rebuilds its world. The snapshot envelope's config digest
// rejects mismatched machine/scheduler/kyoto/monitor/seed/fidelity
// settings; the stored scenario bytes reject everything else that would
// diverge the report (VM list, warmup/ticks windows).
func resumeScenario(cfg kyoto.WorldConfig, raw []byte, path string, warmup, total uint64) (*kyoto.World, []kyoto.Counters, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var c cliCheckpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, nil, fmt.Errorf("checkpoint %s is not a kyotosim checkpoint (truncated or corrupted): %w", path, err)
	}
	if c.Schema != cliCheckpointSchema {
		return nil, nil, fmt.Errorf("checkpoint %s has schema %q, this build reads %q", path, c.Schema, cliCheckpointSchema)
	}
	// The digest check first: a wrong seed, fidelity or host setup is a
	// configuration error and should say so, whatever else differs.
	w, err := kyoto.Resume(cfg, c.Snapshot)
	if err != nil {
		return nil, nil, fmt.Errorf("resuming %s: %w", path, err)
	}
	want, err := canonicalJSON(raw)
	if err != nil {
		return nil, nil, err
	}
	got, err := canonicalJSON(c.Scenario)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint %s carries an invalid scenario: %w", path, err)
	}
	if !bytes.Equal(want, got) {
		return nil, nil, fmt.Errorf("checkpoint %s was taken under a different scenario — resume with the exact scenario file of the checkpointed run", path)
	}
	if c.Tick != w.Now() {
		return nil, nil, fmt.Errorf("checkpoint %s records tick %d but its world clock is %d — file corrupted", path, c.Tick, w.Now())
	}
	if c.Tick > total {
		return nil, nil, fmt.Errorf("checkpoint %s is at tick %d, beyond the scenario's %d-tick horizon", path, c.Tick, total)
	}
	if c.Tick >= warmup && c.Before == nil {
		return nil, nil, fmt.Errorf("checkpoint %s is past warmup but carries no baseline counters — file corrupted", path)
	}
	return w, c.Before, nil
}

// executeScenario runs the single-host scenario, optionally resuming
// from and/or writing checkpoints, and prints the per-VM report. With
// zero checkpointOpts this is the plain straight-through run; a resumed
// run produces byte-identical report output.
func executeScenario(sc scenario, raw []byte, fid kyoto.Fidelity, ck checkpointOpts, out io.Writer) error {
	cfg, err := worldConfig(sc, fid)
	if err != nil {
		return err
	}
	if len(sc.VMs) == 0 {
		return fmt.Errorf("scenario has no VMs")
	}
	warmup, ticks := windows(sc)
	total := uint64(warmup + ticks)

	var w *kyoto.World
	var before []kyoto.Counters
	if ck.resume != "" {
		w, before, err = resumeScenario(cfg, raw, ck.resume, uint64(warmup), total)
		if err != nil {
			return err
		}
	} else {
		w, err = kyoto.NewWorld(cfg)
		if err != nil {
			return err
		}
		for _, s := range sc.VMs {
			if _, err := w.AddVM(s.toSpec()); err != nil {
				return err
			}
		}
	}
	// The snapshot preserves AddVM order, so the world's VM list lines up
	// with the scenario's rows on fresh and resumed runs alike.
	vms := w.VMs()
	if len(vms) != len(sc.VMs) {
		return fmt.Errorf("checkpoint world has %d VMs, scenario declares %d", len(vms), len(sc.VMs))
	}

	writeCk := func(tick uint64) error {
		snap, err := kyoto.Snapshot(w)
		if err != nil {
			return err
		}
		scn, err := canonicalJSON(raw)
		if err != nil {
			return err
		}
		data, err := json.Marshal(cliCheckpoint{
			Schema: cliCheckpointSchema, Scenario: scn,
			Tick: tick, Before: before, Snapshot: snap,
		})
		if err != nil {
			return err
		}
		return sweep.WriteFileAtomic(ck.path, append(data, '\n'))
	}

	// Chunked run loop: boundaries at the warmup end (to capture the
	// measurement baseline) and at every checkpoint multiple. Boundaries
	// only split RunTicks calls, so the simulation is tick-for-tick the
	// plain two-call run.
	lastWritten := uint64(1<<64 - 1)
	for t := w.Now(); t < total; t = w.Now() {
		next := total
		if t < uint64(warmup) {
			next = uint64(warmup)
		}
		if ck.path != "" {
			if c := (t/uint64(ck.every) + 1) * uint64(ck.every); c < next {
				next = c
			}
		}
		w.RunTicks(int(next - t))
		if next >= uint64(warmup) && before == nil {
			before = make([]kyoto.Counters, len(vms))
			for i, v := range vms {
				before[i] = v.Counters()
			}
		}
		if ck.path != "" && next%uint64(ck.every) == 0 {
			if err := writeCk(next); err != nil {
				return err
			}
			lastWritten = next
		}
	}
	if ck.path != "" && lastWritten != total {
		// The final checkpoint is always the completed run, whatever the
		// cadence, so a resume from it replays only the report.
		if err := writeCk(total); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "machine:\n%s\n", w.MachineTable())
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "vm\tapp\tIPC\tMPKI\teq1 (misses/ms)\tCPU ms\tpunishments")
	for i, v := range vms {
		statsRow(tw, "", v, before[i])
	}
	return tw.Flush()
}
