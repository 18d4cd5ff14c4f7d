package risc

// Round-trip tests: every assembler mnemonic the compiler backend relies on
// is executed on the CPU and its architectural effect asserted. These catch
// encoder/decoder disagreements that the cross-package differential tests
// would only surface as hard-to-localize kernel misbehaviour.

import (
	"encoding/binary"
	"testing"

	"kfi/internal/isa"
	"kfi/internal/mem"
)

// runTo executes until the CPU reports an event, requiring a Halt-style
// breakpoint event set by the caller, and asserts registers along the way
// via the returned CPU.
func execSnippet(t *testing.T, build func(a *Asm)) *CPU {
	t.Helper()
	c := newTestCPU(t, func(a *Asm) {
		build(a)
		a.Sc() // terminator: syscall event ends the snippet
	})
	ev := run(t, c, 500)
	if ev.Kind != isa.EvSyscall {
		t.Fatalf("snippet ended with %v, want syscall terminator", ev)
	}
	return c
}

func TestIndexedLoadsAndStores(t *testing.T) {
	c := execSnippet(t, func(a *Asm) {
		a.Li32(10, tData)     // base
		a.Li(11, 0x40)        // index
		a.Li32(3, -559038737) // 0xDEADBEEF
		a.Stwx(3, 10, 11)
		a.Lwzx(4, 10, 11)
		a.Li(12, 0x80)
		a.Li(5, 0xAB)
		a.Stbx(5, 10, 12)
		a.Lbzx(6, 10, 12)
	})
	if c.R[4] != 0xDEADBEEF {
		t.Errorf("lwzx after stwx = 0x%X", c.R[4])
	}
	if got := c.Mem.RawRead(tData+0x40, 4); got != 0xDEADBEEF {
		t.Errorf("stwx wrote 0x%X", got)
	}
	if c.R[6] != 0xAB {
		t.Errorf("lbzx after stbx = 0x%X", c.R[6])
	}
}

func TestVariableShifts(t *testing.T) {
	c := execSnippet(t, func(a *Asm) {
		a.Li32(3, int32(-16)) // 0xFFFFFFF0
		a.Li(4, 4)
		a.Slw(5, 3, 4)  // logical left
		a.Srw(6, 3, 4)  // logical right
		a.Sraw(7, 3, 4) // arithmetic right
	})
	if c.R[5] != 0xFFFFFF00 {
		t.Errorf("slw = 0x%X", c.R[5])
	}
	if c.R[6] != 0x0FFFFFFF {
		t.Errorf("srw = 0x%X", c.R[6])
	}
	if c.R[7] != 0xFFFFFFFF {
		t.Errorf("sraw = 0x%X", c.R[7])
	}
}

func TestMrCopiesRegister(t *testing.T) {
	c := execSnippet(t, func(a *Asm) {
		a.Li32(3, 0x1234)
		a.Mr(9, 3)
	})
	if c.R[9] != 0x1234 {
		t.Errorf("mr = 0x%X", c.R[9])
	}
}

func TestBctrAndBctrl(t *testing.T) {
	// Branch through CTR both with and without link, as the compiled
	// syscall dispatcher does.
	c := execSnippet(t, func(a *Asm) {
		a.LiSym(9, "target", 0)
		a.Mtctr(9)
		a.Bctrl()
		a.Li(5, 7) // runs after the bctrl target returns
		a.Sc()
		a.Label("target")
		a.Li(4, 42)
		a.Blr()
	})
	if c.R[4] != 42 || c.R[5] != 7 {
		t.Errorf("bctrl path: r4=%d r5=%d", c.R[4], c.R[5])
	}

	c2 := newTestCPU(t, func(a *Asm) {
		a.LiSym(9, "t2", 0)
		a.Mtctr(9)
		a.Bctr() // no link: never comes back
		a.Li(3, 1)
		a.Sc()
		a.Label("t2")
		a.Li(3, 2)
		a.Sc()
	})
	if ev := run(t, c2, 100); ev.Kind != isa.EvSyscall {
		t.Fatalf("event %v", ev)
	}
	if c2.R[3] != 2 {
		t.Errorf("bctr fell through, r3=%d", c2.R[3])
	}
}

func TestConditionalBranchAliases(t *testing.T) {
	// Each alias observed from both sides of its condition.
	cases := []struct {
		name   string
		a, b   int32
		branch func(a *Asm, sym string)
		taken  bool
	}{
		{"beq taken", 5, 5, func(a *Asm, s string) { a.Beq(s) }, true},
		{"beq not", 5, 6, func(a *Asm, s string) { a.Beq(s) }, false},
		{"bne taken", 5, 6, func(a *Asm, s string) { a.Bne(s) }, true},
		{"bne not", 5, 5, func(a *Asm, s string) { a.Bne(s) }, false},
		{"bge taken", 7, 5, func(a *Asm, s string) { a.Bge(s) }, true},
		{"bge not", -1, 5, func(a *Asm, s string) { a.Bge(s) }, false},
		{"bgt taken", 7, 5, func(a *Asm, s string) { a.Bgt(s) }, true},
		{"bgt not", 5, 5, func(a *Asm, s string) { a.Bgt(s) }, false},
		{"ble taken", 5, 5, func(a *Asm, s string) { a.Ble(s) }, true},
		{"ble not", 7, 5, func(a *Asm, s string) { a.Ble(s) }, false},
		{"blt taken", -3, 5, func(a *Asm, s string) { a.Blt(s) }, true},
		{"blt not", 5, 5, func(a *Asm, s string) { a.Blt(s) }, false},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			c := execSnippet(t, func(a *Asm) {
				a.Li32(3, tt.a)
				a.Li32(4, tt.b)
				a.Cmpw(3, 4)
				tt.branch(a, "yes")
				a.Li(5, 0)
				a.B("out")
				a.Label("yes")
				a.Li(5, 1)
				a.Label("out")
			})
			want := uint32(0)
			if tt.taken {
				want = 1
			}
			if c.R[5] != want {
				t.Errorf("r5 = %d, want %d", c.R[5], want)
			}
		})
	}
}

func TestSyncIsyncAreNops(t *testing.T) {
	c := execSnippet(t, func(a *Asm) {
		a.Li(3, 9)
		a.Sync()
		a.Isync()
		a.Li(4, 10)
	})
	if c.R[3] != 9 || c.R[4] != 10 {
		t.Errorf("r3=%d r4=%d after sync/isync", c.R[3], c.R[4])
	}
}

func TestMtcrfRestoresCondition(t *testing.T) {
	// Save CR via mfcr, destroy it with a compare, restore with mtcrf, and
	// branch on the restored condition — the interrupt-return idiom.
	c := execSnippet(t, func(a *Asm) {
		a.Li(3, 1)
		a.Li(4, 2)
		a.Cmpw(3, 4) // LT
		a.Mfcr(9)    // save
		a.Cmpw(4, 3) // GT — clobbers
		a.Mtcrf(9)   // restore LT
		a.Blt("ok")
		a.Li(5, 0)
		a.B("out")
		a.Label("ok")
		a.Li(5, 1)
		a.Label("out")
	})
	if c.R[5] != 1 {
		t.Error("mtcrf did not restore the LT condition")
	}
}

func TestLiSymRelocation(t *testing.T) {
	// ha16/lo16 must compose to the exact symbol address, including the
	// sign-carry case where lo16 is negative.
	syms := map[string]uint32{"lowhalf": 0x00123456, "carry": 0x0001F000}
	for name, addr := range syms {
		a := NewAsm()
		a.LiSym(3, name, 4)
		a.Sc()
		code, err := a.Link(tCode, syms)
		if err != nil {
			t.Fatal(err)
		}
		m := mem.New(1<<20, binary.BigEndian)
		m.Map(tCode, 0x1000, mem.Present)
		m.WriteBytes(tCode, code)
		c := NewCPU(m)
		c.PC = tCode
		ev := run(t, c, 10)
		if ev.Kind != isa.EvSyscall {
			t.Fatalf("%s: %v", name, ev)
		}
		if c.R[3] != addr+4 {
			t.Errorf("LiSym(%s+4) = 0x%X, want 0x%X", name, c.R[3], addr+4)
		}
	}
}

func TestLiSymCarryPropagation(t *testing.T) {
	// An address whose low half has bit 15 set forces ha16 to add one to
	// the high half; a naive split would be off by 0x10000.
	a := NewAsm()
	a.LiSym(3, "hi", 0)
	a.Sc()
	code, err := a.Link(tCode, map[string]uint32{"hi": 0x00028000})
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1<<20, binary.BigEndian)
	m.Map(tCode, 0x1000, mem.Present)
	m.WriteBytes(tCode, code)
	c := NewCPU(m)
	c.PC = tCode
	if ev := run(t, c, 10); ev.Kind != isa.EvSyscall {
		t.Fatalf("%v", ev)
	}
	if c.R[3] != 0x00028000 {
		t.Errorf("LiSym with carry = 0x%X, want 0x28000", c.R[3])
	}
}

func TestLabelAddrAndLabels(t *testing.T) {
	a := NewAsm()
	a.Nop()
	a.Label("mid")
	a.Nop()
	if _, err := a.Link(0x100, nil); err != nil {
		t.Fatal(err)
	}
	// Label values are section offsets, independent of the link base.
	if got, ok := a.LabelAddr("mid"); !ok || got != 4 {
		t.Errorf("LabelAddr(mid) = 0x%X, %v", got, ok)
	}
	if _, ok := a.LabelAddr("absent"); ok {
		t.Error("LabelAddr found an undefined label")
	}
	all := a.Labels()
	if all["mid"] != 4 {
		t.Errorf("Labels() = %v", all)
	}
}

func TestCmplwiSetsUnsignedCR(t *testing.T) {
	// setCR0u path: unsigned compare orders 0xFFFFFFFF above 1.
	c := execSnippet(t, func(a *Asm) {
		a.Li32(3, -1) // 0xFFFFFFFF
		a.Cmplwi(3, 1)
		a.Bgt("big")
		a.Li(5, 0)
		a.B("out")
		a.Label("big")
		a.Li(5, 1)
		a.Label("out")
	})
	if c.R[5] != 1 {
		t.Error("cmplwi treated 0xFFFFFFFF as signed")
	}
	c2 := execSnippet(t, func(a *Asm) {
		a.Li(3, 1)
		a.Li32(4, -1)
		a.Cmplw(3, 4) // unsigned: 1 < 0xFFFFFFFF
		a.Blt("small")
		a.Li(5, 0)
		a.B("out")
		a.Label("small")
		a.Li(5, 1)
		a.Label("out")
	})
	if c2.R[5] != 1 {
		t.Error("cmplw treated operands as signed")
	}
}

func TestInterruptsEnabledTracksMSREE(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) { a.Nop() })
	c.MSR &^= MSREE
	if c.InterruptsEnabled() {
		t.Error("EE clear but InterruptsEnabled true")
	}
	c.MSR |= MSREE
	if !c.InterruptsEnabled() {
		t.Error("EE set but InterruptsEnabled false")
	}
}

func TestPendingDataBreakReporting(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.Li32(9, tData)
		a.Li(3, 5)
		a.Stw(3, 9, 0x10)
		a.Sc()
	})
	if _, _, _, ok := c.PendingDataBreak(); ok {
		t.Error("pending break before any watchpoint fired")
	}
	c.Debug.Set(0, isa.Breakpoint{Kind: isa.BreakData, Addr: tData + 0x10, Len: 4})
	ev := run(t, c, 20)
	if ev.Kind != isa.EvDataBreak {
		t.Fatalf("event %v, want data break", ev)
	}
	slot, access, addr, ok := c.PendingDataBreak()
	if !ok || slot != 0 || access != isa.AccessWrite || addr != tData+0x10 {
		t.Errorf("PendingDataBreak = (%d, %v, 0x%X, %v)", slot, access, addr, ok)
	}
}

func TestInstCostNonZero(t *testing.T) {
	a := NewAsm()
	a.Add(3, 4, 5)
	a.Lwz(3, 4, 0)
	code, err := a.Link(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(code); off += 4 {
		in, err := Decode(binary.BigEndian.Uint32(code[off:]))
		if err != nil {
			t.Fatalf("decode at %d: %v", off, err)
		}
		if in.Cost() == 0 {
			t.Errorf("op %d has zero cost", in.Op)
		}
	}
}

func TestRegNameFormat(t *testing.T) {
	if got := RegName(14); got != "r14" {
		t.Errorf("RegName(14) = %q", got)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestAsmContractPanics(t *testing.T) {
	// The assembler treats misuse as a build bug, not a runtime error.
	mustPanic(t, "bad register", func() { NewAsm().Add(32, 0, 0) })
	mustPanic(t, "immediate overflow", func() { NewAsm().Addi(3, 0, 0x8000) })
	mustPanic(t, "duplicate label", func() {
		a := NewAsm()
		a.Label("x")
		a.Label("x")
	})
}

func TestDisasmCoversInstructionClasses(t *testing.T) {
	// Every emitted class must render a non-empty, distinctive mnemonic.
	a := NewAsm()
	a.Label("top")
	a.Add(3, 4, 5)
	a.Addi(3, 4, -2)
	a.Addis(3, 4, 1)
	a.Lwz(3, 4, 8)
	a.Stw(3, 4, 8)
	a.Lhz(3, 4, 2)
	a.Lha(3, 4, 2)
	a.Lbz(3, 4, 1)
	a.Stb(3, 4, 1)
	a.Lwzx(3, 4, 5)
	a.Stwx(3, 4, 5)
	a.Cmpwi(3, 7)
	a.Cmplwi(3, 7)
	a.Cmpw(3, 4)
	a.Cmplw(3, 4)
	a.Rlwinm(3, 4, 1, 0, 30)
	a.Srawi(3, 4, 2)
	a.Neg(3, 4)
	a.Mullw(3, 4, 5)
	a.Divw(3, 4, 5)
	a.Mflr(0)
	a.Mtlr(0)
	a.Mtctr(9)
	a.Mfspr(3, SprSPRG2)
	a.Mtspr(SprSPRG2, 3)
	a.Mfmsr(3)
	a.Mtmsr(3)
	a.Mfcr(3)
	a.Mtcrf(3)
	a.B("top")
	a.Bl("top")
	a.Beq("top")
	a.Bdnz("top")
	a.Blr()
	a.Bctr()
	a.Sc()
	a.Rfi()
	a.Twi(3, 4, 0)
	a.Sync()
	a.Isync()
	a.Nop()
	code, err := a.Link(0x1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for off := 0; off+4 <= len(code); off += 4 {
		w := binary.BigEndian.Uint32(code[off:])
		in, err := Decode(w)
		if err != nil {
			t.Fatalf("word %d (0x%08X) does not decode: %v", off/4, w, err)
		}
		str := in.String()
		if str == "" {
			t.Errorf("word %d renders empty", off/4)
		}
		seen[str] = true
	}
	if len(seen) < 35 {
		t.Errorf("only %d distinct renderings across %d instructions", len(seen), len(code)/4)
	}
}

func TestSprNamesIncludeBATs(t *testing.T) {
	cases := map[uint16]string{
		SprIBAT0U: "IBAT0U",
		SprDBAT0U: "DBAT0U",
		543:       "DBAT3L",
		560:       "IBAT4U",
		575:       "DBAT7L",
		SprSDR1:   "SDR1",
		700:       "SPR700",
	}
	for n, want := range cases {
		if got := SprName(n); got != want {
			t.Errorf("SprName(%d) = %q, want %q", n, got, want)
		}
	}
}
