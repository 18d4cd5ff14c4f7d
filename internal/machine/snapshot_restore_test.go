package machine_test

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/machine"
	"kfi/internal/snapshot"
)

// traceFingerprint hashes every retired instruction whose start cycle is >=
// from, as (pc, cost) pairs. Two machines executing the same instruction
// stream from the same cycle produce the same fingerprint.
func traceFingerprint(m *machine.Machine, from uint64) (run func() (uint64, machine.RunResult)) {
	return func() (uint64, machine.RunResult) {
		h := fnv.New64a()
		clk := m.Core().Clock()
		m.Core().SetTrace(func(pc uint32, cost uint8) {
			// The trace fires after the clock advanced; the instruction
			// started cost cycles earlier.
			if clk.Cycles()-uint64(cost) < from {
				return
			}
			var b [5]byte
			b[0] = byte(pc >> 24)
			b[1] = byte(pc >> 16)
			b[2] = byte(pc >> 8)
			b[3] = byte(pc)
			b[4] = byte(cost)
			h.Write(b[:])
		})
		res := m.Run()
		m.Core().SetTrace(nil)
		return h.Sum64(), res
	}
}

// TestRestoreEquivalence is the subsystem's correctness oath at machine
// granularity: checkpoint the golden run at a random cycle, restore the
// snapshot into a freshly built machine, and require the resumed instruction
// stream (trace fingerprint) and final outcome to match an uninterrupted
// run from boot.
func TestRestoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for _, p := range []isa.Platform{isa.CISC, isa.RISC} {
		t.Run(p.Short(), func(t *testing.T) {
			sysA := buildSystem(t, p, kernel.Options{})
			mA := sysA.Machine
			clean := sysA.Run()
			if clean.Outcome != machine.OutCompleted {
				t.Fatalf("clean run: %v", clean.Outcome)
			}

			// Checkpoint at a random point of the run's middle 80%.
			span := clean.Cycles
			trigger := span/10 + uint64(rng.Int63n(int64(span*8/10)))
			mA.Reboot()
			mA.PauseAt = trigger
			if res := mA.Run(); res.Outcome != machine.OutPaused {
				t.Fatalf("pause leg ended early: %v", res.Outcome)
			}
			snap := snapshot.Capture(mA)
			pausePoint := snap.Cycles
			mA.Mem.ClearBaseline()

			// Reference: an uninterrupted run from boot, fingerprinting only
			// the instructions at/after the pause point.
			mA.Reboot()
			fpU, resU := traceFingerprint(mA, pausePoint)()
			if resU.Outcome != machine.OutCompleted || resU.Cycles != clean.Cycles {
				t.Fatalf("uninterrupted reference diverged from clean run: %+v", resU)
			}

			// Candidate: restore the snapshot into a brand-new machine. A
			// snapshot restores only onto the machine it is armed on, so arm
			// its image first (every page starts dirty: a full copy).
			sysB := buildSystem(t, p, kernel.Options{})
			mB := sysB.Machine
			mB.Mem.SetBaseline(snap.Image, false)
			if _, err := snap.Restore(mB); err != nil {
				t.Fatal(err)
			}
			fpR, resR := traceFingerprint(mB, pausePoint)()

			if fpR != fpU {
				t.Errorf("trace fingerprint after restore %016x, uninterrupted %016x (trigger %d, paused %d)",
					fpR, fpU, trigger, pausePoint)
			}
			if resR.Outcome != resU.Outcome || resR.Checksum != resU.Checksum || resR.Cycles != resU.Cycles {
				t.Errorf("restored run result %+v, uninterrupted %+v", resR, resU)
			}
		})
	}
}
