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
	before := plan()
	if before.goldenTraces != 1 {
		t.Fatalf("first plan on a fresh system traced %d golden runs, want 1", before.goldenTraces)
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
	if after.goldenTraces != 1 || after.golden == before.golden {
		t.Fatalf("plan after re-seal traced %d golden runs (same trace: %v), want a new trace",
			after.goldenTraces, after.golden == before.golden)
	}
	if got := after.golden.Cycles(); got != want.Cycles {
		t.Errorf("re-traced golden run: %d cycles, the patched system runs %d", got, want.Cycles)
	}
	if got := after.golden.Checksum(); got != want.Checksum {
		t.Errorf("re-traced golden run: checksum %08x, the patched system's is %08x", got, want.Checksum)
	}
	if again := plan(); again.goldenTraces != 0 || again.golden != after.golden {
		t.Errorf("second plan after re-seal traced %d golden runs, want 0 and the shared trace",
			again.goldenTraces)
	}
}

// TestGoldenTraceSharedAcrossCampaigns: all four campaigns run on one system
// with Sense and a section cache trace the golden run once between them,
// and journal the same canonical rows as each campaign run on a system of
// its own, which traces it for itself.
func TestGoldenTraceSharedAcrossCampaigns(t *testing.T) {
	g, err := NewGuest(isa.CISC, 1, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	camps := []inject.Campaign{inject.CampStack, inject.CampSysReg, inject.CampData, inject.CampCode}
	canonical := func(sys *kernel.System, camp inject.Campaign) ([]byte, int) {
		t.Helper()
		spec := Spec{Campaign: camp, N: 10, Seed: 41}
		dir := t.TempDir()
		jpath := filepath.Join(dir, "campaign.kjournal")
		res, _ := runCached(t, sys, g.Golden, g.Profile, spec, filepath.Join(dir, "cache"), jpath)
		return canonicalBytes(t, jpath), res.GoldenTraces
	}
	for i, camp := range camps {
		got, traces := canonical(g.Sys, camp)
		if want := firstOnly(i); traces != want {
			t.Errorf("%v on the shared system traced %d golden runs, want %d", camp, traces, want)
		}
		fresh, err := g.Build()
		if err != nil {
			t.Fatal(err)
		}
		want, traces := canonical(fresh, camp)
		if traces != 1 {
			t.Errorf("%v on a fresh system traced %d golden runs, want 1", camp, traces)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v: canonical journal on the shared system differs from a fresh system's", camp)
		}
	}
}

// TestGoldenTraceSharedReadOnly: plans built in sequence on one system share
// one trace object, and after every plan that trace still equals the trace
// of an identical system that no plan has read.
func TestGoldenTraceSharedReadOnly(t *testing.T) {
	sys, golden, prof := freshSystem(t, isa.RISC)
	sibling, _, _ := freshSystem(t, isa.RISC)
	ref, traced, err := sibling.GoldenTrace()
	if err != nil || !traced {
		t.Fatalf("sibling trace: traced=%v err=%v", traced, err)
	}
	var shared *kernel.GoldenTrace
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
		if plan.golden == nil {
			if s.camp != inject.CampStack {
				t.Fatalf("step %d (%v): plan holds no golden trace", i, s.camp)
			}
			continue
		}
		if shared == nil {
			shared = plan.golden
		}
		if want := firstOnly(i); plan.goldenTraces != want {
			t.Errorf("step %d (%v): plan traced %d golden runs, want %d", i, s.camp, plan.goldenTraces, want)
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

// firstOnly is the golden traces the i-th campaign or plan on one system
// should count: the first traces, the rest reuse its trace.
func firstOnly(i int) int {
	if i == 0 {
		return 1
	}
	return 0
}
