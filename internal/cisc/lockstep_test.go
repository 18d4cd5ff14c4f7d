package cisc

import (
	"encoding/binary"
	"fmt"
	"testing"

	"kfi/internal/isa"
	"kfi/internal/mem"
)

// The decoded-code cache contract: the translator, which caches decoded
// instructions and translated blocks per page, is bit-identical to the
// reference CPU.Step in every observable — events, registers, flags, fault
// state, cycle counts — under any sequence of stores and injected bit flips
// into code it has already cached. The harness runs both over identical
// memories through a ladder of cycle horizons and diffs the complete
// architectural state after every rung. Each schedule runs twice: with a
// data breakpoint armed on a word the program never touches, so the
// translator steps every instruction through its slots, and unarmed, so it
// dispatches blocks.

const (
	lsBase  = 0x1000
	lsStack = 0xB000
	// lsWatch is mapped but untouched by the schedules' programs.
	lsWatch = 0xBF00
)

// lockstepPair builds the reference CPU and the translator over two fresh,
// identical memories with code at lsBase.
func lockstepPair(t testing.TB, code []byte) (ref *CPU, tr *translator) {
	t.Helper()
	build := func() *CPU {
		m := mem.New(1<<16, binary.LittleEndian)
		m.Map(0x1000, 0x7000, mem.Present|mem.Writable)
		m.Map(0x8000, 0x4000, mem.Present|mem.Writable)
		m.WriteBytes(lsBase, code)
		c := NewCPU(m)
		c.EIP = lsBase
		c.Regs[ESP] = lsStack
		return c
	}
	return build(), newTranslator(build())
}

// armWatch arms a data breakpoint on lsWatch.
func armWatch(c *CPU) {
	c.Debug.Set(0, isa.Breakpoint{Kind: isa.BreakData, Addr: lsWatch, Len: 4})
}

// rung advances both sides to the next horizon of the ladder and fails on
// the first divergence. The widths vary so single steps, overrun steps and
// whole blocks all occur.
func rung(t testing.TB, i int, ref *CPU, tr *translator) {
	t.Helper()
	limit := ref.Clk.Cycles() + 1 + uint64(i%29)
	evR, evT := ref.RunUntil(limit), tr.RunUntil(limit)
	c := tr.cpu
	if evR != evT {
		t.Fatalf("rung %d: event diverged: translator %+v, reference %+v", i, evT, evR)
	}
	if c.EIP != ref.EIP || c.Flags != ref.Flags || c.CR2 != ref.CR2 {
		t.Fatalf("rung %d: state diverged: EIP %#x/%#x Flags %#x/%#x CR2 %#x/%#x",
			i, c.EIP, ref.EIP, c.Flags, ref.Flags, c.CR2, ref.CR2)
	}
	if c.Regs != ref.Regs {
		t.Fatalf("rung %d: registers diverged: %v vs %v", i, c.Regs, ref.Regs)
	}
	if c.Clk.Cycles() != ref.Clk.Cycles() {
		t.Fatalf("rung %d: cycles diverged: %d vs %d", i, c.Clk.Cycles(), ref.Clk.Cycles())
	}
}

// lockstep runs a schedule of n rungs, calling mutate (when non-nil) on
// both memories before each rung, armed and unarmed. wantBlocks requires
// the unarmed run to have dispatched translated blocks.
func lockstep(t *testing.T, code []byte, n int, mutate func(rung int, m *mem.Memory), wantBlocks bool) {
	t.Helper()
	for _, mode := range []string{"armed", "blocks"} {
		armed := mode == "armed"
		t.Run(mode, func(t *testing.T) {
			ref, tr := lockstepPair(t, code)
			if armed {
				armWatch(ref)
				armWatch(tr.cpu)
			}
			for i := 0; i < n; i++ {
				if mutate != nil {
					mutate(i, ref.Mem)
					mutate(i, tr.cpu.Mem)
				}
				rung(t, i, ref, tr)
			}
			if armed && tr.Counters.Hits != 0 {
				t.Errorf("armed run dispatched %d blocks; it must only step", tr.Counters.Hits)
			}
			if !armed && wantBlocks && tr.Counters.Hits == 0 {
				t.Error("unarmed run dispatched no block; the schedule only tests stepping")
			}
		})
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
	code, err := a.Link(lsBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// flipAt flips bit of addr at the given rung.
func flipAt(at int, addr uint32, bit uint) func(int, *mem.Memory) {
	return func(i int, m *mem.Memory) {
		if i == at {
			m.FlipBit(addr, bit)
		}
	}
}

func TestPredecodeLockstepClean(t *testing.T) {
	lockstep(t, loopProgram(t), 2000, nil, true)
}

// TestPredecodeLockstepLengthResync flips bit 4 of the cached 0x10 opcode
// after the page is hot, turning the 6-byte mov imm32 into a 2-byte
// register-register add. The variable-length stream re-synchronizes into a
// different valid instruction sequence starting inside the old immediate;
// the translator must follow it byte-identically.
func TestPredecodeLockstepLengthResync(t *testing.T) {
	lockstep(t, loopProgram(t), 2000, flipAt(400, lsBase, 4), true) // mov r0,imm32 -> add rr
}

// TestPredecodeLockstepInvalidOpcode flips the cached opcode into the
// undefined 0x18-0x1F range, so a previously valid cached slot must replay
// the invalid-instruction exception.
func TestPredecodeLockstepInvalidOpcode(t *testing.T) {
	lockstep(t, loopProgram(t), 1000, flipAt(200, lsBase, 3), true) // 0x10 -> 0x18
}

// TestPredecodeLockstepImmediateFlip corrupts an immediate byte of an
// already-cached instruction: the length is unchanged but the cached operand
// is stale.
func TestPredecodeLockstepImmediateFlip(t *testing.T) {
	lockstep(t, loopProgram(t), 2000, flipAt(400, lsBase+3, 7), true) // middle of the mov imm32
}

// TestPredecodeLockstepSelfModify runs a program that stores into its own
// (cached) instruction stream: the store must be observed by the very next
// fetch, as on the reference interpreter.
func TestPredecodeLockstepSelfModify(t *testing.T) {
	a := NewAsm()
	a.MovRI(2, lsBase) // r2 -> code base
	a.Label("top")
	a.MovRI(0, 0x01010101)
	a.AddRI(1, 1)
	a.St32(2, 11, 0) // store over the loop mov's immediate (code offset 11)
	a.JmpSym("top")
	code, err := a.Link(lsBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	lockstep(t, code, 1000, nil, true)
}

// TestLockstepFlipAcrossPaths crosses the two paths on one page: blocks are
// translated unarmed, then the watchpoint is armed and a byte inside a
// translated block flips, so the next steps decode through slots the
// translation filled. Both sides must see the new bytes.
func TestLockstepFlipAcrossPaths(t *testing.T) {
	for bit := uint(0); bit < 8; bit++ {
		t.Run(fmt.Sprint(bit), func(t *testing.T) {
			ref, tr := lockstepPair(t, loopProgram(t))
			for i := 0; i < 200; i++ {
				rung(t, i, ref, tr)
			}
			if tr.Counters.Translated == 0 || tr.Counters.Hits == 0 {
				t.Fatalf("no block ran before arming: %+v", tr.Counters)
			}
			armWatch(ref)
			armWatch(tr.cpu)
			ref.Mem.FlipBit(lsBase+6, bit) // the add's opcode byte
			tr.cpu.Mem.FlipBit(lsBase+6, bit)
			hits := tr.Counters.Hits
			for i := 200; i < 400; i++ {
				rung(t, i, ref, tr)
			}
			if tr.Counters.Hits != hits {
				t.Fatal("armed run dispatched a block")
			}
		})
	}
}

// FuzzPredecodeEquivalence feeds arbitrary bytes as code and flips an
// arbitrary code bit mid-run, diffing the translator against the reference
// interpreter rung by rung, armed and unarmed.
func FuzzPredecodeEquivalence(f *testing.F) {
	f.Add([]byte{0x10, 0x00, 0x44, 0x33, 0x22, 0x11, 0xB4, 0x00}, uint16(0), uint8(4), uint8(10))
	f.Add(loopProgram(f), uint16(2), uint8(0), uint8(3))
	f.Add([]byte{0x9C}, uint16(0), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, code []byte, off uint16, bit, when uint8) {
		if len(code) == 0 || len(code) > 512 {
			t.Skip()
		}
		lockstep(t, code, 64, flipAt(int(when%64), lsBase+uint32(off)%uint32(len(code)), uint(bit&7)), false)
	})
}
