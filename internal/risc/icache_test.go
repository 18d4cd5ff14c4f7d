package risc

import (
	"encoding/binary"
	"testing"

	"kfi/internal/mem"
)

// Lockstep equivalence tests for the RISC predecode cache: a cached CPU and
// the reference interpreter run over identical memories and must agree on
// every observable each step, including after bit flips into already-cached
// code words.

const (
	icTestBase  = 0x1000
	icTestStack = 0xB000
)

func newLockstepCPU(t testing.TB, code []byte, predecode bool) *CPU {
	t.Helper()
	m := mem.New(1<<16, binary.BigEndian)
	m.Map(0x1000, 0x7000, mem.Present|mem.Writable)
	m.Map(0x8000, 0x4000, mem.Present|mem.Writable)
	m.WriteBytes(icTestBase, code)
	c := NewCPU(m)
	c.PC = icTestBase
	c.R[SP] = icTestStack
	c.NoPredecode = !predecode
	return c
}

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
		if cached.PC != ref.PC || cached.LR != ref.LR || cached.CTR != ref.CTR ||
			cached.CR != ref.CR || cached.XER != ref.XER || cached.MSR != ref.MSR {
			t.Fatalf("step %d: state diverged: PC %#x/%#x CR %#x/%#x MSR %#x/%#x",
				i, cached.PC, ref.PC, cached.CR, ref.CR, cached.MSR, ref.MSR)
		}
		if cached.R != ref.R {
			t.Fatalf("step %d: registers diverged: %v vs %v", i, cached.R, ref.R)
		}
		if cached.SPR != ref.SPR {
			t.Fatalf("step %d: SPRs diverged", i)
		}
		if cached.Clk.Cycles() != ref.Clk.Cycles() {
			t.Fatalf("step %d: cycles diverged: %d vs %d", i, cached.Clk.Cycles(), ref.Clk.Cycles())
		}
	}
}

// loopProgram assembles a counting loop with a load/store pair.
func loopProgram(t testing.TB) []byte {
	t.Helper()
	a := NewAsm()
	a.Li(5, 0x2000)
	a.Label("top")
	a.Addi(3, 3, 1)
	a.Stw(3, 5, 0)
	a.Lwz(4, 5, 0)
	a.Cmpwi(3, 1<<14)
	a.B("top")
	code, err := a.Link(icTestBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func TestPredecodeLockstepClean(t *testing.T) {
	lockstep(t, loopProgram(t), 5000, nil)
}

// TestPredecodeLockstepFlipCachedWord flips a bit of an already-cached
// instruction word; the sparse RISC encoding often turns this into an
// illegal-instruction program exception, which must replay identically.
func TestPredecodeLockstepFlipCachedWord(t *testing.T) {
	for bit := uint(0); bit < 32; bit += 5 {
		bit := bit
		t.Run("", func(t *testing.T) {
			lockstep(t, loopProgram(t), 3000, func(step int, m *mem.Memory) {
				if step == 700 {
					// Flip inside the loop body word at offset 8 (stw).
					m.FlipBit(icTestBase+8+uint32(3-bit/8), bit%8)
				}
			})
		})
	}
}

// TestPredecodeLockstepSelfModify stores into the (cached) instruction
// stream: the very next fetch must observe the new word.
func TestPredecodeLockstepSelfModify(t *testing.T) {
	a := NewAsm()
	a.Li(5, icTestBase)
	a.Li32(6, 0x60000000) // ori 0,0,0 == nop, big-endian word
	a.Label("top")
	a.Addi(3, 3, 1)
	a.Stw(6, 5, 8) // overwrite this very addi with a nop on the first pass
	a.B("top")
	code, err := a.Link(icTestBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	lockstep(t, code, 3000, nil)
}

// FuzzPredecodeEquivalence feeds arbitrary words as code and flips an
// arbitrary code bit mid-run, diffing cached vs reference execution.
func FuzzPredecodeEquivalence(f *testing.F) {
	f.Add(loopProgram(f), uint16(8), uint8(3), uint8(7))
	f.Add([]byte{0x7F, 0xE0, 0x00, 0x08}, uint16(0), uint8(26), uint8(0)) // trap word
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
