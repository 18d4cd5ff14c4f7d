package kernel_test

import (
	"math/rand"
	"reflect"
	"testing"

	"kfi/internal/isa"
	"kfi/internal/machine"
	"kfi/internal/snapshot"
)

// TestSnapshotRestoreEquivalence checks the fork-from-golden contract at
// system granularity: corrupting a restored machine must classify exactly
// like corrupting a machine that replayed from boot — same outcome, same
// crash record, same cycles and checksum — for a bit flip applied at a
// random checkpoint cycle.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, platform := range []isa.Platform{isa.CISC, isa.RISC} {
		t.Run(platform.Short(), func(t *testing.T) {
			sysA := buildStandard(t, platform)
			mA := sysA.Machine
			clean := sysA.Run()
			if clean.Outcome != machine.OutCompleted {
				t.Fatalf("clean run: %v", clean.Outcome)
			}

			for trial := 0; trial < 3; trial++ {
				trigger := clean.Cycles/10 + uint64(rng.Int63n(int64(clean.Cycles*8/10)))
				bit := uint(rng.Intn(32))

				// Replay leg: boot, run to the trigger, flip a bit in the
				// instruction about to execute, resume.
				mA.Reboot()
				mA.PauseAt = trigger
				if res := mA.Run(); res.Outcome != machine.OutPaused {
					t.Fatalf("trial %d: pause leg ended early: %v", trial, res.Outcome)
				}
				snap := snapshot.Capture(mA)
				pc := mA.Core().PC()
				mA.Mem.FlipBit(pc, bit)
				resReplay := mA.Run()
				mA.Mem.ClearBaseline()

				// Restore leg: fresh system, install the checkpoint, apply
				// the identical corruption, resume. A snapshot restores only
				// onto the machine it is armed on, so arm its image on the
				// fresh machine first (every page starts dirty: a full copy).
				sysB := buildStandard(t, platform)
				mB := sysB.Machine
				mB.Mem.SetBaseline(snap.Image, false)
				if _, err := snap.Restore(mB); err != nil {
					t.Fatal(err)
				}
				mB.Mem.FlipBit(pc, bit)
				resRestore := mB.Run()

				if resReplay.Outcome != resRestore.Outcome ||
					resReplay.Checksum != resRestore.Checksum ||
					resReplay.Cycles != resRestore.Cycles ||
					!reflect.DeepEqual(resReplay.Crash, resRestore.Crash) {
					t.Errorf("trial %d (trigger %d, bit %d at pc 0x%x): replay %+v vs restore %+v",
						trial, trigger, bit, pc, resReplay, resRestore)
				}
				t.Logf("trial %d: trigger=%d pc=0x%x bit=%d -> %v", trial, trigger, pc, bit, resReplay.Outcome)
			}
		})
	}
}
