package hv

// World checkpoint support: capture the complete mutable simulation state
// at a tick boundary and restore it into a freshly built World with the
// identical Config, such that the restored world's future is bit-identical
// to the original's — the contract the snapshot differential goldens pin.
//
// What is deliberately NOT captured, and why that is safe at a tick
// boundary:
//
//   - per-tick scratch (core budgets, cap budgets): rebuilt at the top of
//     every tick;
//   - the schedulers' assignment trackers: consulted only to prevent
//     double-assignment within one tick, and entries from earlier ticks
//     are dead by construction (taken tests t == now+1);
//   - Kyoto's pending measurement buffer: drained by EndTick, so it is
//     empty whenever now is between ticks;
//   - the analytic executors' per-epoch mix caches: re-derived on the
//     next Run from the restored occupancy model;
//   - tick hooks: behaviourally relevant monitor state (the Oracle's
//     sampler snapshots) is captured by the owner of the hook through
//     monitor.Oracle.CaptureState, because hv does not know what hooks
//     are attached.
//
// Scheduler-internal runqueues are rebuilt by re-registering the vCPUs in
// their original creation order (ascending Seq — the world's vcpus order),
// then overlaying the per-vCPU scheduler fields the Register defaults
// clobbered; decorators with accounts of their own (core.Kyoto) implement
// StatefulScheduler and get their blob back after registration.

import (
	"encoding/json"
	"fmt"

	"kyoto/internal/cache"
	"kyoto/internal/cpu"
	"kyoto/internal/pmc"
	"kyoto/internal/vm"
	"kyoto/internal/workload"
)

// StatefulScheduler is optionally implemented by schedulers whose
// accounting cannot be rebuilt from vCPU fields alone (core.Kyoto's
// pollution ledgers). The blob is opaque to hv; capture runs after the
// world state is read, restore runs after every vCPU is re-registered.
type StatefulScheduler interface {
	CaptureSchedState() (json.RawMessage, error)
	RestoreSchedState(data json.RawMessage) error
}

// VCPUState is one vCPU's serialized state.
type VCPUState struct {
	ID       int `json:"id"`
	Seq      int `json:"seq"`
	Index    int `json:"index"`
	Pin      int `json:"pin"`
	LastCore int `json:"last_core"`

	Counters pmc.Counters      `json:"counters"`
	Gen      workload.GenState `json:"gen"`
	Ctx      cpu.ContextState  `json:"ctx"`
	// ACtx is present exactly when the world runs the analytic tier.
	ACtx *cpu.AnalyticContextState `json:"actx,omitempty"`

	RemainCredit int64  `json:"remain_credit"`
	OverPriority bool   `json:"over_priority"`
	WindowBurn   uint64 `json:"window_burn"`
	CapBlocked   bool   `json:"cap_blocked"`
	LastRunTick  uint64 `json:"last_run_tick"`
	VRuntime     uint64 `json:"vruntime"`
}

// VMState is one VM's serialized state.
type VMState struct {
	ID               int          `json:"id"`
	Spec             vm.Spec      `json:"spec"`
	PollutionBlocked bool         `json:"pollution_blocked"`
	Down             bool         `json:"down"`
	Punishments      uint64       `json:"punishments"`
	Carried          pmc.Counters `json:"carried"`
	VCPUs            []VCPUState  `json:"vcpus"`
}

// WakeState is one pending migration-blackout wake-up.
type WakeState struct {
	VMID int    `json:"vm_id"`
	At   uint64 `json:"at"`
}

// WorldState is the complete serialized state of a World at a tick
// boundary, sufficient — together with the Config the world was built
// from, which the caller re-supplies — to continue bit-identically.
type WorldState struct {
	Now        uint64 `json:"now"`
	VMSeq      int    `json:"vm_seq"`
	VCPUSeq    int    `json:"vcpu_seq"`
	VCPUTotal  int    `json:"vcpu_total"`
	FreeOwners []int  `json:"free_owners,omitempty"` // LIFO order preserved

	VMs []VMState `json:"vms"`
	// Current is the per-core assignment as vCPU Seq, -1 for idle cores.
	Current    []int       `json:"current"`
	IdleCycles []uint64    `json:"idle_cycles"`
	Wakes      []WakeState `json:"wakes,omitempty"`

	// Sched is the StatefulScheduler blob, when the policy has one.
	Sched json.RawMessage `json:"sched,omitempty"`

	// Exact-tier cache state: private levels per core (global core
	// order), shared LLC per socket. Empty on the analytic tier, whose
	// SoA structures are never touched.
	L1  []cache.State `json:"l1,omitempty"`
	L2  []cache.State `json:"l2,omitempty"`
	LLC []cache.State `json:"llc,omitempty"`
	// Analytic-tier occupancy models per socket; empty on the exact tier.
	AnalyticLLC []cache.AnalyticState `json:"analytic_llc,omitempty"`
}

// CaptureState serializes the world's complete mutable state. Call it
// only between ticks (never from a TickHook).
func (w *World) CaptureState() (*WorldState, error) {
	st := &WorldState{
		Now:        w.now,
		VMSeq:      w.vmSeq,
		VCPUSeq:    w.vcpuSeq,
		VCPUTotal:  w.vcpuTotal,
		FreeOwners: append([]int(nil), w.freeOwners...),
		Current:    make([]int, len(w.current)),
		IdleCycles: append([]uint64(nil), w.IdleCycles...),
	}
	for _, m := range w.vms {
		vs := VMState{
			ID:               m.ID,
			Spec:             m.Spec,
			PollutionBlocked: m.PollutionBlocked,
			Down:             m.Down,
			Punishments:      m.Punishments,
			Carried:          m.Carried,
		}
		for _, v := range m.VCPUs {
			gst, err := workload.CaptureGenState(v.Gen)
			if err != nil {
				return nil, fmt.Errorf("hv: VM %q vCPU %d: %w", m.Name, v.Index, err)
			}
			cs := VCPUState{
				ID: v.ID, Seq: v.Seq, Index: v.Index, Pin: v.Pin, LastCore: v.LastCore,
				Counters: v.Counters, Gen: gst, Ctx: v.Ctx.CaptureState(),
				RemainCredit: v.RemainCredit, OverPriority: v.OverPriority,
				WindowBurn: v.WindowBurn, CapBlocked: v.CapBlocked,
				LastRunTick: v.LastRunTick, VRuntime: v.VRuntime,
			}
			if v.ACtx != nil {
				ast := v.ACtx.CaptureState()
				cs.ACtx = &ast
			}
			vs.VCPUs = append(vs.VCPUs, cs)
		}
		st.VMs = append(st.VMs, vs)
	}
	for i, v := range w.current {
		st.Current[i] = -1
		if v != nil {
			st.Current[i] = v.Seq
		}
	}
	for _, wk := range w.wakes {
		st.Wakes = append(st.Wakes, WakeState{VMID: wk.domain.ID, At: wk.at})
	}
	if ss, ok := w.sch.(StatefulScheduler); ok {
		blob, err := ss.CaptureSchedState()
		if err != nil {
			return nil, fmt.Errorf("hv: scheduler %s: %w", w.sch.Name(), err)
		}
		st.Sched = blob
	}
	if w.analytic != nil {
		for _, llc := range w.analytic {
			st.AnalyticLLC = append(st.AnalyticLLC, llc.CaptureState())
		}
	} else {
		for _, core := range w.m.Cores() {
			st.L1 = append(st.L1, core.Path.L1D.CaptureState())
			st.L2 = append(st.L2, core.Path.L2.CaptureState())
		}
		for _, sock := range w.m.Sockets() {
			st.LLC = append(st.LLC, sock.LLC.CaptureState())
		}
	}
	return st, nil
}

// RestoreState overlays a captured state onto a freshly built, still-empty
// world whose Config is identical to the captured world's. The caller is
// responsible for that identity (the snapshot envelope enforces it with a
// config digest); this method validates what it can — geometry, fidelity,
// population shape — and fails cleanly on mismatches.
func (w *World) RestoreState(st *WorldState) error {
	if w.now != 0 || len(w.vms) != 0 || w.vcpuTotal != 0 {
		return fmt.Errorf("hv: restore target must be a freshly built world (now=%d, %d VMs)", w.now, len(w.vms))
	}
	cores := w.m.NumCores()
	if len(st.Current) != cores || len(st.IdleCycles) != cores {
		return fmt.Errorf("hv: state is for %d cores, machine has %d", len(st.Current), cores)
	}
	if w.analytic != nil {
		if len(st.AnalyticLLC) != len(w.analytic) {
			return fmt.Errorf("hv: state carries %d analytic LLC models, world needs %d (fidelity or topology mismatch)",
				len(st.AnalyticLLC), len(w.analytic))
		}
	} else if len(st.LLC) != w.m.NumSockets() || len(st.L1) != cores || len(st.L2) != cores {
		return fmt.Errorf("hv: state carries %d/%d/%d L1/L2/LLC caches, machine has %d/%d/%d (fidelity or topology mismatch)",
			len(st.L1), len(st.L2), len(st.LLC), cores, cores, w.m.NumSockets())
	}

	for i := range st.VMs {
		if err := w.restoreVM(&st.VMs[i]); err != nil {
			return err
		}
	}
	w.vmSeq = st.VMSeq
	w.vcpuSeq = st.VCPUSeq
	w.vcpuTotal = st.VCPUTotal
	w.freeOwners = append(w.freeOwners[:0], st.FreeOwners...)

	if len(st.Sched) > 0 {
		ss, ok := w.sch.(StatefulScheduler)
		if !ok {
			return fmt.Errorf("hv: state carries scheduler accounts but policy %s cannot restore them (scheduler mismatch)", w.sch.Name())
		}
		if err := ss.RestoreSchedState(st.Sched); err != nil {
			return err
		}
	} else if _, ok := w.sch.(StatefulScheduler); ok {
		return fmt.Errorf("hv: policy %s needs scheduler accounts but the state has none (scheduler mismatch)", w.sch.Name())
	}

	if w.analytic != nil {
		for i, llc := range w.analytic {
			if err := llc.RestoreState(st.AnalyticLLC[i]); err != nil {
				return err
			}
		}
	} else {
		for i, core := range w.m.Cores() {
			if err := core.Path.L1D.RestoreState(st.L1[i]); err != nil {
				return err
			}
			if err := core.Path.L2.RestoreState(st.L2[i]); err != nil {
				return err
			}
		}
		for i, sock := range w.m.Sockets() {
			if err := sock.LLC.RestoreState(st.LLC[i]); err != nil {
				return err
			}
		}
	}

	for _, wk := range st.Wakes {
		domain := w.findVMByID(wk.VMID)
		if domain == nil {
			return fmt.Errorf("hv: wake entry references unknown VM id %d", wk.VMID)
		}
		w.wakes = append(w.wakes, wake{domain: domain, at: wk.At})
	}
	for coreID, seq := range st.Current {
		if seq < 0 {
			continue
		}
		v := w.findVCPUBySeq(seq)
		if v == nil {
			return fmt.Errorf("hv: core %d assignment references unknown vCPU seq %d", coreID, seq)
		}
		w.current[coreID] = v
		w.bind(v, w.m.Core(coreID))
	}
	copy(w.IdleCycles, st.IdleCycles)
	w.now = st.Now
	return nil
}

// restoreVM rebuilds one VM from its state: NewVM's construction recipe
// with the captured identities, followed by the state overlay.
// Registration happens VM by VM in state order, which reproduces the
// original registration order (ascending Seq) and with it every runqueue.
func (w *World) restoreVM(vs *VMState) error {
	spec := vs.Spec
	if nv := max(spec.VCPUs, 1); len(vs.VCPUs) != nv {
		return fmt.Errorf("hv: restore VM %q: state has %d vCPUs, spec declares %d", spec.Name, len(vs.VCPUs), nv)
	}
	domain, err := w.newVM(spec, vs.ID)
	if err != nil {
		return fmt.Errorf("hv: restore VM %q: %w", spec.Name, err)
	}
	domain.PollutionBlocked = vs.PollutionBlocked
	domain.Down = vs.Down
	domain.Punishments = vs.Punishments
	domain.Carried = vs.Carried
	for i, v := range domain.VCPUs {
		cs := &vs.VCPUs[i]
		if cs.Index != i {
			return fmt.Errorf("hv: restore VM %q: vCPU %d has index %d", spec.Name, i, cs.Index)
		}
		identify(v, cs.ID, cs.Seq)
		v.Pin, v.LastCore, v.Counters = cs.Pin, cs.LastCore, cs.Counters
		if err := workload.RestoreGenState(v.Gen, cs.Gen); err != nil {
			return fmt.Errorf("hv: restore VM %q vCPU %d: %w", spec.Name, i, err)
		}
		if err := v.Ctx.RestoreState(cs.Ctx); err != nil {
			return fmt.Errorf("hv: restore VM %q vCPU %d: %w", spec.Name, i, err)
		}
		if v.ACtx != nil {
			if cs.ACtx == nil {
				return fmt.Errorf("hv: restore VM %q vCPU %d: state has no analytic context but the world runs the analytic tier", spec.Name, i)
			}
			if err := v.ACtx.RestoreState(*cs.ACtx); err != nil {
				return fmt.Errorf("hv: restore VM %q vCPU %d: %w", spec.Name, i, err)
			}
		}
	}
	for _, v := range domain.VCPUs {
		w.vcpus = append(w.vcpus, v)
		w.sch.Register(v)
	}
	// Overlay the scheduler-owned fields Register just defaulted.
	for i, v := range domain.VCPUs {
		cs := &vs.VCPUs[i]
		v.RemainCredit = cs.RemainCredit
		v.OverPriority = cs.OverPriority
		v.WindowBurn = cs.WindowBurn
		v.CapBlocked = cs.CapBlocked
		v.LastRunTick = cs.LastRunTick
		v.VRuntime = cs.VRuntime
	}
	w.vms = append(w.vms, domain)
	return nil
}

// findVMByID returns the VM with the given domain id, or nil.
func (w *World) findVMByID(id int) *vm.VM {
	for _, m := range w.vms {
		if m.ID == id {
			return m
		}
	}
	return nil
}

// findVCPUBySeq returns the vCPU with the given creation sequence number,
// or nil.
func (w *World) findVCPUBySeq(seq int) *vm.VCPU {
	for _, v := range w.vcpus {
		if v.Seq == seq {
			return v
		}
	}
	return nil
}
