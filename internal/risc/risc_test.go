package risc

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"kfi/internal/isa"
	"kfi/internal/mem"
)

const (
	tCode  = 0x1000
	tData  = 0x4000
	tStack = 0x8000 // [0x8000, 0xA000): an 8 KiB kernel stack, G4-style
)

func newTestCPU(t *testing.T, build func(a *Asm)) *CPU {
	t.Helper()
	m := mem.New(1<<20, binary.BigEndian)
	m.Map(tCode, 0x1000, mem.Present)
	m.Map(tData, 0x2000, mem.Present|mem.Writable)
	m.Map(tStack, 0x2000, mem.Present|mem.Writable)
	a := NewAsm()
	build(a)
	code, err := a.Link(tCode, nil)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	m.WriteBytes(tCode, code)
	m.SetBusWindow(0xF0000000, 0xF8000000)
	c := NewCPU(m)
	c.PC = tCode
	c.R[SP] = tStack + 0x2000
	c.StackLo, c.StackHi = tStack, tStack+0x2000
	return c
}

func run(t *testing.T, c *CPU, limit int) isa.Event {
	t.Helper()
	for i := 0; i < limit; i++ {
		if ev := c.Step(); ev.Kind != isa.EvNone {
			return ev
		}
	}
	t.Fatal("no event within limit")
	return isa.Event{}
}

func TestRealPowerPCEncodings(t *testing.T) {
	// Golden encodings from the paper's listings and the PowerPC ISA.
	tests := []struct {
		name string
		emit func(a *Asm)
		want uint32
	}{
		{"mflr r0", func(a *Asm) { a.Mflr(0) }, 0x7C0802A6},
		{"lhax r0,r8,r0", func(a *Asm) { a.Lhax(0, 8, 0) }, 0x7C0802AE},
		{"stwu r1,-32(r1)", func(a *Asm) { a.Stwu(SP, SP, -32) }, 0x9421FFE0},
		{"lwz r11,40(r31)", func(a *Asm) { a.Lwz(11, 31, 40) }, 0x817F0028},
		{"cmpwi r11,0", func(a *Asm) { a.Cmpwi(11, 0) }, 0x2C0B0000},
		{"lwz r9,76(r11)", func(a *Asm) { a.Lwz(9, 11, 76) }, 0x812B004C},
		{"blr", func(a *Asm) { a.Blr() }, 0x4E800020},
		{"sc", func(a *Asm) { a.Sc() }, 0x44000002},
		{"nop", func(a *Asm) { a.Nop() }, 0x60000000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := NewAsm()
			tt.emit(a)
			code, err := a.Link(0, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := binary.BigEndian.Uint32(code)
			if got != tt.want {
				t.Errorf("encoded 0x%08X, want 0x%08X", got, tt.want)
			}
		})
	}
}

func TestFigure15MflrToLhaxIsOneBitFlip(t *testing.T) {
	// The paper's Figure 15: one flipped bit turns mflr r0 into
	// lhax r0,r8,r0.
	diff := uint32(0x7C0802A6) ^ uint32(0x7C0802AE)
	if diff&(diff-1) != 0 {
		t.Fatalf("mflr→lhax differs by 0x%x, not a single bit", diff)
	}
	in, err := Decode(0x7C0802AE)
	if err != nil {
		t.Fatalf("lhax did not decode: %v", err)
	}
	if in.Op != OpLHAX || in.RD != 0 || in.RA != 8 || in.RB != 0 {
		t.Errorf("decoded %+v, want lhax r0,r8,r0", in)
	}
}

func TestDecodeIllegalWords(t *testing.T) {
	for _, w := range []uint32{0, 0xFFFFFFFF, 1 << 26, 63 << 26} {
		if _, err := Decode(w); err == nil {
			t.Errorf("Decode(0x%08x) succeeded, want illegal", w)
		}
	}
}

// Property: Decode is total over all 32-bit words.
func TestDecodeTotalProperty(t *testing.T) {
	f := func(w uint32) bool {
		in, err := Decode(w)
		if err != nil {
			return true
		}
		return in.Op != OpIllegal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// Property: assembled instructions always decode, and the disassembly is
// non-empty.
func TestAsmAlwaysDecodesProperty(t *testing.T) {
	a := NewAsm()
	a.Li(3, 5)
	a.Li32(4, 0x12345678)
	a.Add(5, 3, 4)
	a.Subf(6, 3, 4)
	a.Mullw(7, 3, 4)
	a.Divw(8, 4, 3)
	a.And(9, 4, 3)
	a.Or(10, 4, 3)
	a.Xor(11, 4, 3)
	a.Nor(12, 4, 3)
	a.Slwi(13, 4, 3)
	a.Srwi(14, 4, 3)
	a.Srawi(15, 4, 2)
	a.Extsb(16, 4)
	a.Extsh(17, 4)
	a.Cmpw(3, 4)
	a.Cmplw(3, 4)
	a.Cmpwi(3, -1)
	a.Cmplwi(3, 2)
	a.AndiRc(18, 4, 0xFF)
	a.Ori(19, 4, 1)
	a.Oris(20, 4, 1)
	a.Xori(21, 4, 1)
	a.Mulli(22, 3, 7)
	a.Neg(23, 3)
	a.Mfcr(24)
	a.Halt()
	code, err := a.Link(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+4 <= len(code); i += 4 {
		w := binary.BigEndian.Uint32(code[i:])
		in, err := Decode(w)
		if err != nil {
			t.Fatalf("word %d (0x%08x) illegal", i/4, w)
		}
		if in.String() == "" {
			t.Fatalf("word %d has empty disassembly", i/4)
		}
	}
}

func TestALUExecution(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.Li(3, 7)
		a.Li(4, 5)
		a.Subf(5, 4, 3)   // r5 = r3 - r4 = 2
		a.Mulli(5, 5, 10) // 20
		a.Li(6, 3)
		a.Divw(7, 5, 6) // 6
		a.Neg(8, 7)     // -6
		a.Li32(9, 0x12345678)
		a.Slwi(10, 9, 8)
		a.Srwi(11, 9, 16)
		a.Halt()
	})
	ev := run(t, c, 100)
	if ev.Kind != isa.EvHalt {
		t.Fatalf("event = %+v", ev)
	}
	if c.R[7] != 6 || int32(c.R[8]) != -6 {
		t.Errorf("r7=%d r8=%d", c.R[7], int32(c.R[8]))
	}
	if c.R[10] != 0x34567800 || c.R[11] != 0x1234 {
		t.Errorf("shifts: r10=0x%x r11=0x%x", c.R[10], c.R[11])
	}
}

func TestDivwDoesNotTrap(t *testing.T) {
	// Unlike the P4's #DE, PowerPC divide-by-zero produces an undefined
	// result without an exception — a real architectural difference.
	c := newTestCPU(t, func(a *Asm) {
		a.Li(3, 42)
		a.Li(4, 0)
		a.Divw(5, 3, 4)
		a.Halt()
	})
	if ev := run(t, c, 10); ev.Kind != isa.EvHalt {
		t.Errorf("divide by zero raised %+v", ev)
	}
}

func TestConditionalBranches(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.Li(3, 5)
		a.Cmpwi(3, 10)
		a.Blt("less")
		a.Li(4, 0)
		a.Halt()
		a.Label("less")
		a.Li(4, 1)
		a.Halt()
	})
	run(t, c, 20)
	if c.R[4] != 1 {
		t.Errorf("blt not taken: r4=%d", c.R[4])
	}
}

func TestLoopWithBdnz(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.Li(3, 0)
		a.Li(4, 5)
		a.Mtctr(4)
		a.Label("loop")
		a.Addi(3, 3, 2)
		a.Bdnz("loop")
		a.Halt()
	})
	run(t, c, 50)
	if c.R[3] != 10 {
		t.Errorf("loop sum = %d, want 10", c.R[3])
	}
}

func TestCallReturnLinkRegister(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.Bl("fn")
		a.Halt()
		a.Label("fn")
		a.Stwu(SP, SP, -32)
		a.Mflr(0)
		a.Stw(0, SP, 8)
		a.Li(3, 42)
		a.Lwz(0, SP, 8)
		a.Mtlr(0)
		a.Addi(SP, SP, 32)
		a.Blr()
	})
	ev := run(t, c, 100)
	if ev.Kind != isa.EvHalt {
		t.Fatalf("event = %+v", ev)
	}
	if c.R[3] != 42 {
		t.Errorf("r3 = %d, want 42", c.R[3])
	}
	if c.R[SP] != tStack+0x2000 {
		t.Errorf("sp = 0x%x, want balanced", c.R[SP])
	}
}

func TestWordLoadStoreAndSubword(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.Li32(3, int32(tData))
		a.Li32(4, 0x11223344|-0x80000000)
		a.Stw(4, 3, 0)
		a.Lwz(5, 3, 0)
		a.Lbz(6, 3, 0) // big-endian: first byte is 0x91
		a.Lhz(7, 3, 2) // low half 0x3344
		a.Lha(8, 3, 0) // 0x9122 sign-extends
		a.Sth(4, 3, 8)
		a.Stb(4, 3, 12)
		a.Halt()
	})
	run(t, c, 100)
	if c.R[5] != 0x91223344 {
		t.Errorf("lwz = 0x%x", c.R[5])
	}
	if c.R[6] != 0x91 {
		t.Errorf("lbz = 0x%x, want big-endian MSB 0x91", c.R[6])
	}
	if c.R[7] != 0x3344 {
		t.Errorf("lhz = 0x%x", c.R[7])
	}
	if c.R[8] != 0xffff9122 {
		t.Errorf("lha = 0x%x", c.R[8])
	}
	if got := c.Mem.RawRead(tData+8, 2); got != 0x3344 {
		t.Errorf("sth wrote 0x%x", got)
	}
	if got := c.Mem.RawRead(tData+12, 1); got != 0x44 {
		t.Errorf("stb wrote 0x%x", got)
	}
}

func TestStwuFramePush(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.Stwu(SP, SP, -32)
		a.Halt()
	})
	oldSP := c.R[SP]
	run(t, c, 10)
	if c.R[SP] != oldSP-32 {
		t.Errorf("sp = 0x%x, want 0x%x", c.R[SP], oldSP-32)
	}
	if got := c.Mem.RawRead(oldSP-32, 4); got != oldSP {
		t.Errorf("back chain = 0x%x, want 0x%x", got, oldSP)
	}
}

func TestExceptionClassification(t *testing.T) {
	tests := []struct {
		name string
		prog func(a *Asm)
		want isa.CrashCause
	}{
		{"bad area null", func(a *Asm) {
			a.Li(11, 1)
			a.Lwz(9, 11, 76) // the Figure 9 shape: lwz r9,76(r11) with r11=1
		}, isa.CauseBadArea},
		{"bad area unmapped", func(a *Asm) {
			a.Li32(3, 0x70000)
			a.Lwz(4, 3, 0)
		}, isa.CauseBadArea},
		{"alignment", func(a *Asm) {
			a.Li32(3, int32(tData+1))
			a.Lwz(4, 3, 0)
		}, isa.CauseAlignment},
		{"wild address is bad area", func(a *Asm) {
			a.Li32(3, 0x7ff00000)
			a.Lwz(4, 3, 0)
		}, isa.CauseBadArea},
		{"machine check in bus window", func(a *Asm) {
			a.Lis(3, -0x1000) // 0xF0000000
			a.Lwz(4, 3, 0)
		}, isa.CauseMachineCheck},
		{"bus error write to code", func(a *Asm) {
			a.Li32(3, int32(tCode))
			a.Stw(4, 3, 0)
		}, isa.CauseBusError},
		{"illegal word", func(a *Asm) { a.IllegalWord() }, isa.CauseIllegalInstr},
		{"trap", func(a *Asm) { a.Trap() }, isa.CauseBadTrap},
		{"twi conditional taken", func(a *Asm) {
			a.Li(3, 0)
			a.Twi(4, 3, 0) // trap if r3 == 0
		}, isa.CauseBadTrap},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := newTestCPU(t, tt.prog)
			ev := run(t, c, 20)
			if ev.Kind != isa.EvException || ev.Cause != tt.want {
				t.Errorf("event = %+v, want %v", ev, tt.want)
			}
		})
	}
}

func TestDARSetOnBadArea(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.Li(11, 1)
		a.Lwz(9, 11, 76)
	})
	ev := run(t, c, 10)
	if ev.FaultAddr != 77 || c.SPR[SprDAR] != 77 {
		t.Errorf("fault addr %d, DAR %d, want 77 (0x4d as in Fig. 9)", ev.FaultAddr, c.SPR[SprDAR])
	}
}

func TestTwiNotTaken(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.Li(3, 5)
		a.Twi(4, 3, 0) // trap if equal: not taken
		a.Halt()
	})
	if ev := run(t, c, 10); ev.Kind != isa.EvHalt {
		t.Errorf("twi taken unexpectedly: %+v", ev)
	}
}

func TestMSRTranslationBitsMachineCheck(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.Li32(3, int32(tData))
		a.Lwz(4, 3, 0)
		a.Halt()
	})
	c.MSR &^= MSRDR // data translation flipped off
	ev := run(t, c, 10)
	if ev.Kind != isa.EvException || ev.Cause != isa.CauseMachineCheck {
		t.Errorf("event = %+v, want machine check", ev)
	}

	c2 := newTestCPU(t, func(a *Asm) { a.Nop() })
	c2.MSR &^= MSRIR
	ev = c2.Step()
	if ev.Kind != isa.EvException || ev.Cause != isa.CauseMachineCheck {
		t.Errorf("IR: event = %+v, want machine check", ev)
	}
}

func TestSyscallEvent(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.Li(0, 4)
		a.Sc()
	})
	ev := run(t, c, 10)
	if ev.Kind != isa.EvSyscall || ev.SysNo != 4 {
		t.Errorf("event = %+v, want syscall 4", ev)
	}
}

func TestInterruptDeliveryAndRfi(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.Li(3, 1)
		a.Label("spin")
		a.B("spin")
		a.Label("handler")
		a.Li(3, 2)
		a.Rfi()
	})
	c.Step()
	spinPC := c.PC
	ev := c.DeliverInterrupt(tCode+8, 0)
	if ev.Kind != isa.EvNone {
		t.Fatalf("DeliverInterrupt: %+v", ev)
	}
	if c.SPR[SprSRR0] != spinPC {
		t.Errorf("SRR0 = 0x%x, want 0x%x", c.SPR[SprSRR0], spinPC)
	}
	for i := 0; i < 10 && c.PC != spinPC; i++ {
		if ev := c.Step(); ev.Kind != isa.EvNone {
			t.Fatalf("handler: %+v", ev)
		}
	}
	if c.PC != spinPC || c.R[3] != 2 {
		t.Errorf("after rfi: pc=0x%x r3=%d", c.PC, c.R[3])
	}
	if c.R[SP] != tStack+0x2000 {
		t.Errorf("sp not restored: 0x%x", c.R[SP])
	}
}

func TestUserModePrivilegeChecks(t *testing.T) {
	progs := map[string]func(a *Asm){
		"mtmsr":       func(a *Asm) { a.Mtmsr(3) },
		"mfmsr":       func(a *Asm) { a.Mfmsr(3) },
		"rfi":         func(a *Asm) { a.Rfi() },
		"mtspr sprg2": func(a *Asm) { a.Mtspr(SprSPRG2, 3) },
		"mfspr hid0":  func(a *Asm) { a.Mfspr(3, SprHID0) },
		"ctxsw":       func(a *Asm) { a.CtxSw(3, 4) },
		"halt":        func(a *Asm) { a.Halt() },
	}
	for name, prog := range progs {
		t.Run(name, func(t *testing.T) {
			c := newTestCPU(t, prog)
			c.Mem.Map(tCode, 0x1000, mem.Present|mem.UserOK)
			c.MSR |= MSRPR
			ev := run(t, c, 5)
			if ev.Kind != isa.EvException || ev.Cause != isa.CauseIllegalInstr {
				t.Errorf("event = %+v, want privileged-instruction program check", ev)
			}
		})
	}
}

func TestUserCanAccessLRCTR(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.Li(3, 64)
		a.Mtctr(3)
		a.Mfctr(4)
		a.Mtlr(3)
		a.Mflr(5)
		a.Sc()
	})
	c.Mem.Map(tCode, 0x1000, mem.Present|mem.UserOK)
	c.MSR |= MSRPR
	ev := run(t, c, 10)
	if ev.Kind != isa.EvSyscall {
		t.Fatalf("event = %+v", ev)
	}
	if c.R[4] != 64 || c.R[5] != 64 {
		t.Errorf("r4=%d r5=%d, want 64, 64", c.R[4], c.R[5])
	}
}

func TestHID0BTICCorruption(t *testing.T) {
	// Enabling the BTIC with invalid content makes some taken branches
	// raise illegal-instruction exceptions (paper §5.2, SPR1008).
	c := newTestCPU(t, func(a *Asm) {
		a.Li(3, 0)
		a.Li(4, 1000)
		a.Mtctr(4)
		a.Label("loop")
		a.Addi(3, 3, 1)
		a.Bdnz("loop")
		a.Halt()
	})
	c.SPR[SprHID0] |= HID0BTIC
	ev := run(t, c, 5000)
	if ev.Kind != isa.EvException || ev.Cause != isa.CauseIllegalInstr {
		t.Errorf("event = %+v, want illegal instruction from poisoned BTIC", ev)
	}
}

func TestInstructionAndDataBreakpoints(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.Nop()
		a.Li32(3, int32(tData))
		a.Li(4, 9)
		a.Stw(4, 3, 0x20)
		a.Lwz(5, 3, 0x20)
		a.Halt()
	})
	c.Debug.Set(0, isa.Breakpoint{Kind: isa.BreakInstruction, Addr: tCode + 4})
	ev := run(t, c, 10)
	if ev.Kind != isa.EvInstrBreak || ev.BreakAddr != tCode+4 {
		t.Fatalf("event = %+v, want instr break", ev)
	}
	c.Debug.Clear(0)
	c.Debug.Set(1, isa.Breakpoint{Kind: isa.BreakData, Addr: tData + 0x20, Len: 4})
	ev = run(t, c, 10)
	if ev.Kind != isa.EvDataBreak || ev.Access != isa.AccessWrite {
		t.Fatalf("event = %+v, want data-break write", ev)
	}
	ev = run(t, c, 10)
	if ev.Kind != isa.EvDataBreak || ev.Access != isa.AccessRead {
		t.Fatalf("event = %+v, want data-break read", ev)
	}
}

func TestCtxSwEvent(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.Li32(3, 0x4100)
		a.Li32(4, 0x4200)
		a.CtxSw(3, 4)
	})
	ev := run(t, c, 10)
	if ev.Kind != isa.EvCtxSw || ev.Prev != 0x4100 || ev.Next != 0x4200 {
		t.Errorf("event = %+v", ev)
	}
}

func TestRlwinmMasks(t *testing.T) {
	tests := []struct {
		mb, me uint8
		want   uint32
	}{
		{0, 31, 0xFFFFFFFF},
		{0, 0, 0x80000000},
		{31, 31, 0x00000001},
		{24, 31, 0x000000FF},
		{0, 7, 0xFF000000},
		{28, 3, 0xF000000F}, // wrapped
	}
	for _, tt := range tests {
		if got := maskMBME(tt.mb, tt.me); got != tt.want {
			t.Errorf("maskMBME(%d,%d) = 0x%08x, want 0x%08x", tt.mb, tt.me, got, tt.want)
		}
	}
}

func TestSystemRegistersCount(t *testing.T) {
	regs := SystemRegisters()
	if len(regs) != 99 {
		t.Errorf("G4 system register count = %d, want 99 (as in the paper)", len(regs))
	}
	names := make(map[string]bool)
	c := NewCPU(mem.New(1<<16, binary.BigEndian))
	for _, r := range regs {
		if names[r.Name] {
			t.Errorf("duplicate register %q", r.Name)
		}
		names[r.Name] = true
		old := r.Get(c)
		r.Set(c, old^0x10)
		if r.Get(c) != old^0x10 {
			t.Errorf("register %q does not round-trip", r.Name)
		}
		r.Set(c, old)
	}
	for _, want := range []string{"MSR", "SPRG2", "HID0", "SRR0", "SRR1", "SDR1"} {
		if !names[want] {
			t.Errorf("missing register %q", want)
		}
	}
}

func TestMixedWidthStructAccessMasksHighBits(t *testing.T) {
	// The G4 data-sensitivity mechanism: a word-padded boolean flag field
	// ignores flips in its unused high bits when consumed via cmpwi against
	// small constants... but the load itself is a full 32-bit word. Verify a
	// flip in bit 20 of a 0/1 flag still compares nonzero (manifests) while
	// the same flip on a field only tested via andi. mask 0x1 is masked out.
	c := newTestCPU(t, func(a *Asm) {
		a.Li32(3, int32(tData))
		a.Lwz(4, 3, 0)
		a.AndiRc(5, 4, 1) // consume only bit 0
		a.Halt()
	})
	c.Mem.RawWrite(tData, 4, 1|1<<20) // flag=1 with a flipped high bit
	run(t, c, 10)
	if c.R[5] != 1 {
		t.Errorf("masked consumption = %d, want 1 (flip in unused bit is benign)", c.R[5])
	}
}

func TestDisasmRange(t *testing.T) {
	a := NewAsm()
	a.Mflr(0)
	a.Stwu(SP, SP, -32)
	code, err := a.Link(tCode, nil)
	if err != nil {
		t.Fatal(err)
	}
	words := []uint32{
		binary.BigEndian.Uint32(code),
		binary.BigEndian.Uint32(code[4:]),
		0, // illegal
	}
	lines := DisasmRange(words, tCode)
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
}

func TestMoreGoldenEncodings(t *testing.T) {
	// Additional golden PowerPC encodings cross-checked against the ISA
	// manual, covering SPR field swizzling and rlwinm fields.
	tests := []struct {
		name string
		emit func(a *Asm)
		want uint32
	}{
		{"mtlr r0", func(a *Asm) { a.Mtlr(0) }, 0x7C0803A6},
		{"mfctr r9", func(a *Asm) { a.Mfctr(9) }, 0x7D2902A6},
		{"mfspr r3,SPRG2", func(a *Asm) { a.Mfspr(3, SprSPRG2) }, 0x7C7242A6},
		{"mtspr SPRG2,r3", func(a *Asm) { a.Mtspr(SprSPRG2, 3) }, 0x7C7243A6},
		{"addi r1,r1,32", func(a *Asm) { a.Addi(SP, SP, 32) }, 0x38210020},
		{"lbz r5,3(r4)", func(a *Asm) { a.Lbz(5, 4, 3) }, 0x88A40003},
		{"rlwinm r4,r3,8,0,23 (slwi 8)", func(a *Asm) { a.Slwi(4, 3, 8) }, 0x5464402E},

		{"mfmsr r31", func(a *Asm) { a.Mfmsr(31) }, 0x7FE000A6},
		{"twi 31,r0,0 unconditional-ish", func(a *Asm) { a.Twi(31, 0, 0) }, 0x0FE00000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := NewAsm()
			tt.emit(a)
			code, err := a.Link(0, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := binary.BigEndian.Uint32(code)
			if got != tt.want {
				t.Errorf("encoded 0x%08X, want 0x%08X", got, tt.want)
			}
			// And the decoder must round-trip it.
			if _, err := Decode(got); err != nil {
				t.Errorf("golden encoding does not decode: %v", err)
			}
		})
	}
}

func TestBdnzBackwardEncoding(t *testing.T) {
	a := NewAsm()
	a.Label("x")
	a.Nop()
	a.Bdnz("x")
	code, err := a.Link(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint32(code[4:]); got != 0x4200FFFC {
		t.Errorf("bdnz -4 encoded 0x%08X, want 0x4200FFFC", got)
	}
}

func TestSPRFieldSwizzleProperty(t *testing.T) {
	// Property: the split SPR field decodes back to the encoded number for
	// every 10-bit SPR.
	for spr := 0; spr < 1024; spr++ {
		a := NewAsm()
		a.Mfspr(5, uint16(spr))
		code, err := a.Link(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		w := binary.BigEndian.Uint32(code)
		in, err := Decode(w)
		if err != nil {
			t.Fatalf("spr %d: %v", spr, err)
		}
		if in.SPR != uint16(spr) {
			t.Fatalf("spr %d decoded as %d", spr, in.SPR)
		}
	}
}
