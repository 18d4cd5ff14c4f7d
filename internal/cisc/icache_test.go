package cisc

import (
	"encoding/binary"
	"testing"

	"kfi/internal/mem"
)

// The predecode-cache contract: with the cache enabled, every observable —
// events, registers, flags, fault state, cycle counts — is bit-identical to
// the reference interpreter, under any sequence of stores and injected bit
// flips into code that is already cached. These tests run a cached CPU and an
// uncached CPU in lockstep over identical memories and diff the complete
// architectural state every step.

const (
	icTestBase  = 0x1000
	icTestStack = 0xB000
)

// newLockstepCPU builds one CPU over a fresh memory with code at icTestBase.
func newLockstepCPU(t testing.TB, code []byte, predecode bool) *CPU {
	t.Helper()
	m := mem.New(1<<16, binary.LittleEndian)
	m.Map(0x1000, 0x7000, mem.Present|mem.Writable)
	m.Map(0x8000, 0x4000, mem.Present|mem.Writable)
	m.WriteBytes(icTestBase, code)
	c := NewCPU(m)
	c.EIP = icTestBase
	c.Regs[ESP] = icTestStack
	c.NoPredecode = !predecode
	return c
}

// lockstep steps both CPUs n times, calling mutate (when non-nil) before each
// step on both memories, and fails on the first divergence.
func lockstep(t *testing.T, code []byte, n int, mutate func(step int, m *mem.Memory)) {
	t.Helper()
	cached := newLockstepCPU(t, code, true)
	ref := newLockstepCPU(t, code, false)
	for i := 0; i < n; i++ {
		if mutate != nil {
			mutate(i, cached.Mem)
			mutate(i, ref.Mem)
		}
		evC, evR := cached.Step(), ref.Step()
		if evC != evR {
			t.Fatalf("step %d: event diverged: cached %+v, reference %+v", i, evC, evR)
		}
		if cached.EIP != ref.EIP || cached.Flags != ref.Flags || cached.CR2 != ref.CR2 {
			t.Fatalf("step %d: state diverged: EIP %#x/%#x Flags %#x/%#x CR2 %#x/%#x",
				i, cached.EIP, ref.EIP, cached.Flags, ref.Flags, cached.CR2, ref.CR2)
		}
		if cached.Regs != ref.Regs {
			t.Fatalf("step %d: registers diverged: %v vs %v", i, cached.Regs, ref.Regs)
		}
		if cached.Clk.Cycles() != ref.Clk.Cycles() {
			t.Fatalf("step %d: cycles diverged: %d vs %d", i, cached.Clk.Cycles(), ref.Clk.Cycles())
		}
	}
}

// loopProgram assembles a small counting loop whose first instruction is a
// 6-byte mov r0, imm32 (opcode 0x10) — the shape the resync tests corrupt.
func loopProgram(t testing.TB) []byte {
	t.Helper()
	a := NewAsm()
	a.Label("top")
	a.MovRI(0, 0x11223344)
	a.AddRI(1, 1)
	a.St32(2, 0x2000, 1)
	a.Ld32(3, 2, 0x2000)
	a.CmpRI(1, 1<<30)
	a.JmpSym("top")
	code, err := a.Link(icTestBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func TestPredecodeLockstepClean(t *testing.T) {
	lockstep(t, loopProgram(t), 5000, nil)
}

// TestPredecodeLockstepLengthResync flips bit 4 of the cached 0x10 opcode
// after the page is hot, turning the 6-byte mov imm32 into a 2-byte
// register-register add. The variable-length stream re-synchronizes into a
// different valid instruction sequence starting inside the old immediate; the
// cached interpreter must follow it byte-identically.
func TestPredecodeLockstepLengthResync(t *testing.T) {
	lockstep(t, loopProgram(t), 5000, func(step int, m *mem.Memory) {
		if step == 1000 {
			m.FlipBit(icTestBase, 4) // 0x10 -> 0x00: mov r0,imm32 -> add rr
		}
	})
}

// TestPredecodeLockstepInvalidOpcode flips the cached opcode into the
// undefined 0x18-0x1F range, so a previously valid cached slot must replay
// the invalid-instruction exception.
func TestPredecodeLockstepInvalidOpcode(t *testing.T) {
	lockstep(t, loopProgram(t), 2000, func(step int, m *mem.Memory) {
		if step == 500 {
			m.FlipBit(icTestBase, 3) // 0x10 -> 0x18: undefined opcode
		}
	})
}

// TestPredecodeLockstepImmediateFlip corrupts an immediate byte of an
// already-cached instruction: the length is unchanged but the cached operand
// is stale.
func TestPredecodeLockstepImmediateFlip(t *testing.T) {
	lockstep(t, loopProgram(t), 5000, func(step int, m *mem.Memory) {
		if step == 1000 {
			m.FlipBit(icTestBase+3, 7) // middle of the mov imm32
		}
	})
}

// TestPredecodeLockstepSelfModify runs a program that stores into its own
// (cached) instruction stream: the store must be observed by the very next
// fetch, as on the reference interpreter.
func TestPredecodeLockstepSelfModify(t *testing.T) {
	a := NewAsm()
	a.MovRI(2, icTestBase) // r2 -> code base
	a.Label("top")
	a.MovRI(0, 0x01010101)
	a.AddRI(1, 1)
	a.St32(2, 11, 0) // store over the loop mov's immediate (code offset 11)
	a.JmpSym("top")
	code, err := a.Link(icTestBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	lockstep(t, code, 3000, nil)
}

// FuzzPredecodeEquivalence feeds arbitrary bytes as code and flips an
// arbitrary code bit mid-run, diffing the cached interpreter against the
// reference one step by step.
func FuzzPredecodeEquivalence(f *testing.F) {
	f.Add([]byte{0x10, 0x00, 0x44, 0x33, 0x22, 0x11, 0xB4, 0x00}, uint16(0), uint8(4), uint8(10))
	f.Add(loopProgram(f), uint16(2), uint8(0), uint8(3))
	f.Add([]byte{0x9C}, uint16(0), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, code []byte, off uint16, bit, when uint8) {
		if len(code) == 0 || len(code) > 512 {
			t.Skip()
		}
		flipAddr := icTestBase + uint32(off)%uint32(len(code))
		flipStep := int(when % 64)
		lockstep(t, code, 128, func(step int, m *mem.Memory) {
			if step == flipStep {
				m.FlipBit(flipAddr, uint(bit&7))
			}
		})
	})
}
