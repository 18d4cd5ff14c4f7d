package campaign

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/machine"
)

// TestGoldenTraceRetracedAfterReseal: a patch that changes the golden run,
// re-sealed into a live system, makes the next plan trace again and see the
// new run's length; plans after that share the new trace.
func TestGoldenTraceRetracedAfterReseal(t *testing.T) {
	sys, golden, prof := freshSystem(t, isa.CISC)
	spec := Spec{Campaign: inject.CampCode, N: 20, Seed: 3}
	plan := func() *Plan {
		t.Helper()
		p, err := NewPlan(sys, golden, prof, spec, nil, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	measured, err := sys.GoldenTrace()
	if err != nil {
		t.Fatal(err)
	}
	before := plan()
	if before.golden != measured {
		t.Fatal("first plan traced the golden run again instead of reading the system's")
	}

	// Shorten the first timeslice of one process after another until the
	// golden run moves: preempting a process earlier shifts when the
	// others run.
	m := sys.Machine
	moved := false
	var want machine.RunResult
	for slot := 1; slot < len(sys.Procs) && !moved; slot++ {
		m.Mem.Reboot()
		m.Mem.RawWrite(sys.ProcAddr(slot)+sys.FieldOffset("ticks"), 1, 1)
		m.Seal()
		want = sys.Run()
		moved = want.Cycles != before.golden.Cycles() || want.Checksum != before.golden.Checksum()
	}
	if !moved {
		t.Fatal("no timeslice patch changed the golden run's cycles or checksum")
	}

	after := plan()
	if after.golden == before.golden {
		t.Fatal("plan after re-seal reused the old trace, want a new one")
	}
	if got := after.golden.Cycles(); got != want.Cycles {
		t.Errorf("re-traced golden run: %d cycles, the patched system runs %d", got, want.Cycles)
	}
	if got := after.golden.Checksum(); got != want.Checksum {
		t.Errorf("re-traced golden run: checksum %08x, the patched system's is %08x", got, want.Checksum)
	}
	if again := plan(); again.golden != after.golden {
		t.Error("second plan after re-seal traced again, want the shared trace")
	}
}

// TestGoldenTraceSharedAcrossCampaigns: all four campaigns run on one guest
// with Sense and a section cache journal the same canonical rows as each
// campaign run on a system of its own, which traces for itself, and none of
// them replaces the trace NewGuest took.
func TestGoldenTraceSharedAcrossCampaigns(t *testing.T) {
	g, err := NewGuest(isa.CISC, 1, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	measured, err := g.Sys.GoldenTrace()
	if err != nil {
		t.Fatal(err)
	}
	camps := []inject.Campaign{inject.CampStack, inject.CampSysReg, inject.CampData, inject.CampCode}
	canonical := func(sys *kernel.System, camp inject.Campaign) []byte {
		t.Helper()
		spec := Spec{Campaign: camp, N: 10, Seed: 41}
		dir := t.TempDir()
		jpath := filepath.Join(dir, "campaign.kjournal")
		runCached(t, sys, g.Golden, g.Profile, spec, filepath.Join(dir, "cache"), jpath)
		return canonicalBytes(t, jpath)
	}
	for _, camp := range camps {
		got := canonical(g.Sys, camp)
		fresh, err := g.Build()
		if err != nil {
			t.Fatal(err)
		}
		if want := canonical(fresh, camp); !bytes.Equal(got, want) {
			t.Errorf("%v: canonical journal on the shared system differs from a fresh system's", camp)
		}
	}
	if tr, err := g.Sys.GoldenTrace(); err != nil || tr != measured {
		t.Errorf("after four campaigns: err=%v same trace=%v, want the trace NewGuest took", err, tr == measured)
	}
}

// TestGoldenTraceSharedReadOnly: plans built in sequence on one system share
// the system's trace object, and after every plan that trace still equals
// the trace of an identical system that no plan has read.
func TestGoldenTraceSharedReadOnly(t *testing.T) {
	sys, golden, prof := freshSystem(t, isa.RISC)
	sibling, _, _ := freshSystem(t, isa.RISC)
	ref, err := sibling.GoldenTrace()
	if err != nil {
		t.Fatal(err)
	}
	shared, err := sys.GoldenTrace()
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		camp inject.Campaign
		opts ExecOptions
	}{
		{inject.CampCode, ExecOptions{}},
		{inject.CampData, ExecOptions{}},
		{inject.CampStack, ExecOptions{}},
		{inject.CampCode, ExecOptions{Sense: true, SectionCache: t.TempDir()}},
		{inject.CampSysReg, ExecOptions{SectionCache: t.TempDir()}},
	}
	for i, s := range steps {
		plan, err := NewPlan(sys, golden, prof, Spec{Campaign: s.camp, N: 40, Seed: int64(i)}, nil, s.opts)
		if err != nil {
			t.Fatal(err)
		}
		if plan.golden != shared {
			t.Errorf("step %d (%v): plan holds its own trace, not the system's", i, s.camp)
		}
		// Both fingerprints are memoized once read, so compare the traces
		// in the same state.
		shared.HitFingerprint()
		ref.HitFingerprint()
		if !reflect.DeepEqual(shared, ref) {
			t.Fatalf("step %d (%v): building the plan changed the shared trace", i, s.camp)
		}
	}
}
