package vm

import (
	"math"
	"testing"

	"kyoto/internal/pmc"
)

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"ok", Spec{Name: "v", App: "gcc"}, true},
		{"no name", Spec{App: "gcc"}, false},
		{"no app or profile", Spec{Name: "v"}, false},
		{"negative vcpus", Spec{Name: "v", App: "gcc", VCPUs: -1}, false},
		{"cap too big", Spec{Name: "v", App: "gcc", CapPercent: 150}, false},
		{"negative cap", Spec{Name: "v", App: "gcc", CapPercent: -1}, false},
		{"negative llccap", Spec{Name: "v", App: "gcc", LLCCap: -5}, false},
		{"NaN llccap", Spec{Name: "v", App: "gcc", LLCCap: math.NaN()}, false},
		{"+Inf llccap", Spec{Name: "v", App: "gcc", LLCCap: math.Inf(1)}, false},
		{"-Inf llccap", Spec{Name: "v", App: "gcc", LLCCap: math.Inf(-1)}, false},
		{"negative weight", Spec{Name: "v", App: "gcc", Weight: -1}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.ok && err != nil {
				t.Fatalf("want ok, got %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestVMCountersAggregate(t *testing.T) {
	m := &VM{Name: "v"}
	v1 := &VCPU{VM: m, Counters: pmc.Counters{Instructions: 10, LLCMisses: 1}}
	v2 := &VCPU{VM: m, Counters: pmc.Counters{Instructions: 20, LLCMisses: 2}}
	m.VCPUs = []*VCPU{v1, v2}
	agg := m.Counters()
	if agg.Instructions != 30 || agg.LLCMisses != 3 {
		t.Fatalf("aggregate = %+v", agg)
	}
}

func TestSchedulable(t *testing.T) {
	m := &VM{}
	v := &VCPU{VM: m}
	if !v.Schedulable() {
		t.Fatal("fresh vCPU must be schedulable")
	}
	m.PollutionBlocked = true
	if v.Schedulable() {
		t.Fatal("pollution block must stop scheduling")
	}
	m.PollutionBlocked = false
	v.CapBlocked = true
	if v.Schedulable() {
		t.Fatal("cap block must stop scheduling")
	}
}

func TestAllowedOn(t *testing.T) {
	v := &VCPU{Pin: NoPin}
	if !v.AllowedOn(0) || !v.AllowedOn(3) {
		t.Fatal("unpinned vCPU runs anywhere")
	}
	v.Pin = 2
	if v.AllowedOn(0) || !v.AllowedOn(2) {
		t.Fatal("pinned vCPU restricted to its core")
	}
}

func TestOwnerTag(t *testing.T) {
	v := &VCPU{ID: 7}
	if int(v.Owner()) != 7 {
		t.Fatal("owner tag must be the vCPU id")
	}
}
