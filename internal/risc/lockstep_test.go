package risc

import (
	"encoding/binary"
	"testing"

	"kfi/internal/isa"
	"kfi/internal/mem"
)

// Lockstep equivalence of the translator, which caches decoded words and
// translated blocks per page, and the reference CPU.Step: both run over
// identical memories through a ladder of cycle horizons and must agree on
// every observable after each rung, including after bit flips into
// already-cached code words. Each schedule runs twice: with a data
// breakpoint armed on a word the program never touches, so the translator
// steps every instruction through its slots, and unarmed, so it dispatches
// blocks.

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
		m := mem.New(1<<16, binary.BigEndian)
		m.Map(0x1000, 0x7000, mem.Present|mem.Writable)
		m.Map(0x8000, 0x4000, mem.Present|mem.Writable)
		m.WriteBytes(lsBase, code)
		c := NewCPU(m)
		c.PC = lsBase
		c.R[SP] = lsStack
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
	if c.PC != ref.PC || c.LR != ref.LR || c.CTR != ref.CTR ||
		c.CR != ref.CR || c.XER != ref.XER || c.MSR != ref.MSR {
		t.Fatalf("rung %d: state diverged: PC %#x/%#x CR %#x/%#x MSR %#x/%#x",
			i, c.PC, ref.PC, c.CR, ref.CR, c.MSR, ref.MSR)
	}
	if c.R != ref.R {
		t.Fatalf("rung %d: registers diverged: %v vs %v", i, c.R, ref.R)
	}
	if c.SPR != ref.SPR {
		t.Fatalf("rung %d: SPRs diverged", i)
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

// TestPredecodeLockstepFlipCachedWord flips a bit of an already-cached
// instruction word; the sparse RISC encoding often turns this into an
// illegal-instruction program exception, which must replay identically.
func TestPredecodeLockstepFlipCachedWord(t *testing.T) {
	for bit := uint(0); bit < 32; bit += 5 {
		t.Run("", func(t *testing.T) {
			// Flip inside the loop body word at offset 8 (stw).
			lockstep(t, loopProgram(t), 1000, flipAt(300, lsBase+8+uint32(3-bit/8), bit%8), true)
		})
	}
}

// TestPredecodeLockstepSelfModify stores into the (cached) instruction
// stream: the very next fetch must observe the new word.
func TestPredecodeLockstepSelfModify(t *testing.T) {
	a := NewAsm()
	a.Li(5, lsBase)
	a.Li32(6, 0x60000000) // ori 0,0,0 == nop, big-endian word
	a.Label("top")
	a.Addi(3, 3, 1)
	a.Stw(6, 5, 8) // overwrite this very addi with a nop on the first pass
	a.B("top")
	code, err := a.Link(lsBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	lockstep(t, code, 1000, nil, true)
}

// TestLockstepFlipAcrossPaths crosses the two paths on one page: blocks are
// translated unarmed, then the watchpoint is armed and a bit of a word
// inside a translated block flips, so the next steps decode through slots
// the translation filled. Both sides must see the new word.
func TestLockstepFlipAcrossPaths(t *testing.T) {
	for bit := uint(0); bit < 32; bit += 3 {
		t.Run("", func(t *testing.T) {
			ref, tr := lockstepPair(t, loopProgram(t))
			for i := 0; i < 200; i++ {
				rung(t, i, ref, tr)
			}
			if tr.Counters.Translated == 0 || tr.Counters.Hits == 0 {
				t.Fatalf("no block ran before arming: %+v", tr.Counters)
			}
			armWatch(ref)
			armWatch(tr.cpu)
			addr := lsBase + 12 + uint32(3-bit/8) // the lwz
			ref.Mem.FlipBit(addr, bit%8)
			tr.cpu.Mem.FlipBit(addr, bit%8)
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

// FuzzPredecodeEquivalence feeds arbitrary words as code and flips an
// arbitrary code bit mid-run, diffing the translator against the reference
// interpreter rung by rung, armed and unarmed.
func FuzzPredecodeEquivalence(f *testing.F) {
	f.Add(loopProgram(f), uint16(8), uint8(3), uint8(7))
	f.Add([]byte{0x7F, 0xE0, 0x00, 0x08}, uint16(0), uint8(26), uint8(0)) // trap word
	f.Fuzz(func(t *testing.T, code []byte, off uint16, bit, when uint8) {
		if len(code) == 0 || len(code) > 512 {
			t.Skip()
		}
		lockstep(t, code, 64, flipAt(int(when%64), lsBase+uint32(off)%uint32(len(code)), uint(bit&7)), false)
	})
}
