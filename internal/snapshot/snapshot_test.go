package snapshot_test

import (
	"reflect"
	"testing"

	"kfi/internal/cc"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/machine"
	"kfi/internal/snapshot"
	"kfi/internal/workload"
)

func buildSystem(t *testing.T, p isa.Platform) *kernel.System {
	t.Helper()
	uimg, err := cc.Compile(workload.Program(1), p, kernel.UserBases)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := kernel.BuildSystem(p, uimg, workload.StandardProcs(), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// pauseAt runs a freshly rebooted machine until the given cycle.
func pauseAt(t *testing.T, m *machine.Machine, cycle uint64) {
	t.Helper()
	m.Reboot()
	m.PauseAt = cycle
	if res := m.Run(); res.Outcome != machine.OutPaused {
		t.Fatalf("run ended (%v) before cycle %d", res.Outcome, cycle)
	}
}

func TestCaptureRestoreRoundTrip(t *testing.T) {
	for _, p := range []isa.Platform{isa.CISC, isa.RISC} {
		t.Run(p.Short(), func(t *testing.T) {
			sys := buildSystem(t, p)
			m := sys.Machine

			m.Reboot()
			golden := m.Run()
			if golden.Outcome != machine.OutCompleted {
				t.Fatalf("golden run: %v", golden.Outcome)
			}

			pauseAt(t, m, 40_000)
			snap := snapshot.Capture(m)
			pausedPC := m.Core().PC()

			// Let the machine run away from the checkpoint, then rewind.
			first := m.Run()
			if first.Outcome != machine.OutCompleted || first.Checksum != golden.Checksum {
				t.Fatalf("run from checkpoint: %v checksum 0x%x", first.Outcome, first.Checksum)
			}
			if _, err := snap.Restore(m); err != nil {
				t.Fatal(err)
			}
			if got := m.Core().Clock().Cycles(); got != snap.Cycles {
				t.Errorf("restored clock %d, want %d", got, snap.Cycles)
			}
			if got := m.Core().PC(); got != pausedPC {
				t.Errorf("restored PC 0x%x, want 0x%x", got, pausedPC)
			}
			second := m.Run()
			if second.Outcome != machine.OutCompleted ||
				second.Checksum != first.Checksum || second.Cycles != first.Cycles {
				t.Errorf("restored run diverged: %+v vs %+v", second, first)
			}
		})
	}
}

func TestRestoreIsIncremental(t *testing.T) {
	sys := buildSystem(t, isa.CISC)
	m := sys.Machine
	totalPages := int(m.Mem.Size()) / 4096

	pauseAt(t, m, 50_000)
	snap := snapshot.Capture(m)

	// Immediately after capture nothing is dirty.
	if n, err := snap.Restore(m); err != nil || n != 0 {
		t.Fatalf("clean restore copied %d pages (err %v), want 0", n, err)
	}

	m.PauseAt = 80_000
	if res := m.Run(); res.Outcome != machine.OutPaused {
		t.Fatalf("advance: %v", res.Outcome)
	}
	n, err := snap.Restore(m)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("dirty restore copied no pages")
	}
	if n >= totalPages/2 {
		t.Errorf("restore copied %d of %d pages; dirty tracking is not incremental", n, totalPages)
	}

	// Recapture absorbs the (clean) state in O(dirty)=0 and restores stay 0.
	if n, err := snap.Recapture(m); err != nil || n != 0 {
		t.Fatalf("clean recapture synced %d pages (err %v)", n, err)
	}
}

func TestRecaptureAdvancesSnapshot(t *testing.T) {
	sys := buildSystem(t, isa.RISC)
	m := sys.Machine

	pauseAt(t, m, 30_000)
	snap := snapshot.Capture(m)

	m.PauseAt = 60_000
	if res := m.Run(); res.Outcome != machine.OutPaused {
		t.Fatalf("advance: %v", res.Outcome)
	}
	n, err := snap.Recapture(m)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("recapture absorbed no pages after 30k cycles of execution")
	}
	if snap.Cycles != m.Core().Clock().Cycles() {
		t.Errorf("recaptured snapshot at cycle %d, machine at %d", snap.Cycles, m.Core().Clock().Cycles())
	}

	final := m.Run()
	if _, err := snap.Restore(m); err != nil {
		t.Fatal(err)
	}
	again := m.Run()
	if again.Outcome != final.Outcome || again.Checksum != final.Checksum || again.Cycles != final.Cycles {
		t.Errorf("run from recaptured snapshot diverged: %+v vs %+v", again, final)
	}
}

// TestRestoreIntoFreshMachine: a snapshot restores only onto the machine
// it is armed on. Restoring it into a freshly built sibling fails and
// leaves that machine's state untouched.
func TestRestoreIntoFreshMachine(t *testing.T) {
	for _, p := range []isa.Platform{isa.CISC, isa.RISC} {
		t.Run(p.Short(), func(t *testing.T) {
			sysA := buildSystem(t, p)
			pauseAt(t, sysA.Machine, 45_000)
			snap := snapshot.Capture(sysA.Machine)

			sysB := buildSystem(t, p)
			sysB.Machine.Reboot()
			before := sysB.Machine.SaveState()
			if _, err := snap.Restore(sysB.Machine); err == nil {
				t.Fatal("restoring a snapshot into a machine it is not armed on succeeded")
			}
			if after := sysB.Machine.SaveState(); !reflect.DeepEqual(before, after) {
				t.Error("a rejected restore changed the target machine's state")
			}
			if _, err := snap.Recapture(sysB.Machine); err == nil {
				t.Error("recapturing a snapshot on a machine it is not armed on succeeded")
			}
		})
	}
}

func TestPlatformMismatchRejected(t *testing.T) {
	sysC := buildSystem(t, isa.CISC)
	sysR := buildSystem(t, isa.RISC)
	pauseAt(t, sysC.Machine, 20_000)
	snap := snapshot.Capture(sysC.Machine)
	if _, err := snap.Restore(sysR.Machine); err == nil {
		t.Fatal("restoring a CISC snapshot onto a RISC machine succeeded")
	}
}
