package cisc

// Round-trip tests: every assembler mnemonic the compiler backend relies on
// is executed on the CPU and its architectural effect asserted, mirroring
// the RISC-side suite.

import (
	"testing"

	"kfi/internal/isa"
)

// execSnippet runs the built code until its int 0x80 terminator.
func execSnippet(t *testing.T, build func(a *Asm)) *CPU {
	t.Helper()
	c := newTestCPU(t, func(a *Asm) {
		build(a)
		a.Int(0x80)
	})
	ev := run(t, c, 500)
	if ev.Kind != isa.EvSyscall {
		t.Fatalf("snippet ended with %+v, want syscall terminator", ev)
	}
	return c
}

func TestALURegisterForms(t *testing.T) {
	c := execSnippet(t, func(a *Asm) {
		a.MovRI(EAX, 0x0F0F)
		a.MovRI(EBX, 0x00FF)
		a.MovRI(ECX, 0x0F0F)
		a.AddRR(ECX, EBX) // 0x100E
		a.MovRI(EDX, 0x0F0F)
		a.AndRR(EDX, EBX) // 0x000F
		a.MovRI(ESI, 0x0F00)
		a.OrRR(ESI, EBX) // 0x0FFF
		a.MovRI(EDI, 0x0F0F)
		a.XorRR(EDI, EBX) // 0x0FF0
	})
	if c.Regs[ECX] != 0x100E {
		t.Errorf("add = 0x%X", c.Regs[ECX])
	}
	if c.Regs[EDX] != 0x000F {
		t.Errorf("and = 0x%X", c.Regs[EDX])
	}
	if c.Regs[ESI] != 0x0FFF {
		t.Errorf("or = 0x%X", c.Regs[ESI])
	}
	if c.Regs[EDI] != 0x0FF0 {
		t.Errorf("xor = 0x%X", c.Regs[EDI])
	}
}

func TestALUImmediateForms(t *testing.T) {
	c := execSnippet(t, func(a *Asm) {
		a.MovRI(EAX, 100)
		a.SubRI(EAX, 58) // 42
		a.MovRI(EBX, 0xFF)
		a.AndRI(EBX, 0x0F) // 0x0F
		a.MovRI(ECX, 0xF0)
		a.OrRI(ECX, 0x0F) // 0xFF
		a.MovRI(EDX, 0xAA)
		a.XorRI(EDX, 0xFF) // 0x55
	})
	if c.Regs[EAX] != 42 || c.Regs[EBX] != 0x0F || c.Regs[ECX] != 0xFF || c.Regs[EDX] != 0x55 {
		t.Errorf("imm ALU: eax=%d ebx=0x%X ecx=0x%X edx=0x%X",
			c.Regs[EAX], c.Regs[EBX], c.Regs[ECX], c.Regs[EDX])
	}
}

func TestShiftForms(t *testing.T) {
	c := execSnippet(t, func(a *Asm) {
		a.MovRI(EAX, -16) // 0xFFFFFFF0
		a.MovRI(ECX, 4)
		a.MovRI(EBX, -16)
		a.ShlRR(EBX, ECX) // 0xFFFFFF00
		a.MovRI(EDX, -16)
		a.ShrRR(EDX, ECX) // 0x0FFFFFFF
		a.MovRI(ESI, -16)
		a.SarRR(ESI, ECX) // 0xFFFFFFFF
		a.MovRI(EDI, -16)
		a.ShrRI(EDI, 4)
		a.SarRI(EAX, 4)
	})
	if c.Regs[EBX] != 0xFFFFFF00 {
		t.Errorf("shl rr = 0x%X", c.Regs[EBX])
	}
	if c.Regs[EDX] != 0x0FFFFFFF {
		t.Errorf("shr rr = 0x%X", c.Regs[EDX])
	}
	if c.Regs[ESI] != 0xFFFFFFFF {
		t.Errorf("sar rr = 0x%X", c.Regs[ESI])
	}
	if c.Regs[EDI] != 0x0FFFFFFF {
		t.Errorf("shr ri = 0x%X", c.Regs[EDI])
	}
	if c.Regs[EAX] != 0xFFFFFFFF {
		t.Errorf("sar ri = 0x%X", c.Regs[EAX])
	}
}

func TestImulAndCompareTest(t *testing.T) {
	c := execSnippet(t, func(a *Asm) {
		a.MovRI(EAX, -7)
		a.MovRI(EBX, 6)
		a.ImulRR(EAX, EBX) // -42

		// cmp sets flags without writing the destination.
		a.MovRI(ECX, 5)
		a.CmpRR(ECX, EBX)
		a.Jcc(CcL, "less")
		a.MovRI(EDX, 0)
		a.JmpSym("out1")
		a.Label("less")
		a.MovRI(EDX, 1)
		a.Label("out1")

		// test: bitwise AND into flags only.
		a.MovRI(ESI, 0x10)
		a.TestRR(ESI, ESI)
		a.Jcc(CcNE, "nz")
		a.MovRI(EDI, 0)
		a.JmpSym("out2")
		a.Label("nz")
		a.MovRI(EDI, 1)
		a.Label("out2")
	})
	if int32(c.Regs[EAX]) != -42 {
		t.Errorf("imul = %d", int32(c.Regs[EAX]))
	}
	if c.Regs[ECX] != 5 {
		t.Error("cmp modified its destination")
	}
	if c.Regs[EDX] != 1 {
		t.Error("cmp 5,6 did not set less-than")
	}
	if c.Regs[EDI] != 1 {
		t.Error("test 0x10,0x10 reported zero")
	}
}

func TestTestRIConditional(t *testing.T) {
	c := execSnippet(t, func(a *Asm) {
		a.MovRI(EAX, 0x04)
		a.TestRI(EAX, 0x04)
		a.Jcc(CcNE, "set")
		a.MovRI(EBX, 0)
		a.JmpSym("out")
		a.Label("set")
		a.MovRI(EBX, 1)
		a.Label("out")
	})
	if c.Regs[EBX] != 1 {
		t.Error("test r,imm missed a set bit")
	}
}

func TestSignAndZeroExtension(t *testing.T) {
	c := execSnippet(t, func(a *Asm) {
		a.MovRI(EAX, -123)   // 0xFFFFFF85: low byte 0x85
		a.Movzx8(EBX, EAX)   // 0x85
		a.Movsx8(ECX, EAX)   // 0xFFFFFF85
		a.MovRI(EAX, -32767) // 0xFFFF8001: low half 0x8001
		a.Movzx16(EDX, EAX)  // 0x8001
		a.Movsx16(ESI, EAX)  // 0xFFFF8001
	})
	if c.Regs[EBX] != 0x85 {
		t.Errorf("movzx8 = 0x%X", c.Regs[EBX])
	}
	if c.Regs[ECX] != 0xFFFFFF85 {
		t.Errorf("movsx8 = 0x%X", c.Regs[ECX])
	}
	if c.Regs[EDX] != 0x8001 {
		t.Errorf("movzx16 = 0x%X", c.Regs[EDX])
	}
	if c.Regs[ESI] != 0xFFFF8001 {
		t.Errorf("movsx16 = 0x%X", c.Regs[ESI])
	}
}

func TestSignedHalfwordLoad(t *testing.T) {
	c := execSnippet(t, func(a *Asm) {
		a.MovRI(EBX, tData)
		a.MovRI(EAX, 0x8001)
		a.St16(EBX, 0x20, EAX)
		a.Ld16sx(ECX, EBX, 0x20)
	})
	if c.Regs[ECX] != 0xFFFF8001 {
		t.Errorf("ld16sx = 0x%X, want sign-extended 0xFFFF8001", c.Regs[ECX])
	}
}

func TestMemoryOperandALU(t *testing.T) {
	c := execSnippet(t, func(a *Asm) {
		a.MovRI(EBX, tData)
		a.MovRI(EAX, 30)
		a.St32(EBX, 0x40, EAX)
		a.MovRI(ECX, 12)
		a.AddM(ECX, EBX, 0x40) // ecx += mem = 42

		a.MovRI(EDX, 30)
		a.CmpM(EDX, EBX, 0x40) // 30 == mem
		a.Jcc(CcE, "eq")
		a.MovRI(ESI, 0)
		a.JmpSym("out")
		a.Label("eq")
		a.MovRI(ESI, 1)
		a.Label("out")
	})
	if c.Regs[ECX] != 42 {
		t.Errorf("add r,m = %d", c.Regs[ECX])
	}
	if c.Regs[ESI] != 1 {
		t.Error("cmp r,m missed equality")
	}
}

func TestAbsoluteLoadStore(t *testing.T) {
	syms := map[string]uint32{"counter": tData + 0x80}
	a := NewAsm()
	a.MovRI(EAX, 77)
	a.StAbs("counter", 0, EAX)
	a.LdAbs(EBX, "counter", 0)
	a.Int(0x80)
	code, err := a.Link(tCode, syms)
	if err != nil {
		t.Fatal(err)
	}
	c2 := newTestCPU(t, func(b *Asm) { b.Nop() })
	c2.Mem.WriteBytes(tCode, code)
	if ev := run(t, c2, 20); ev.Kind != isa.EvSyscall {
		t.Fatalf("%+v", ev)
	}
	if c2.Regs[EBX] != 77 {
		t.Errorf("abs load/store = %d", c2.Regs[EBX])
	}
	if got := c2.Mem.RawRead(tData+0x80, 4); got != 77 {
		t.Errorf("abs store wrote %d", got)
	}
}

func TestPushImmediateAndCallRegister(t *testing.T) {
	c := execSnippet(t, func(a *Asm) {
		a.PushI(1234)
		a.PopR(EBX)

		a.MovRISym(ECX, "fn", 0)
		a.CallR(ECX)
		a.MovRI(ESI, 9) // executes after fn returns
		a.Int(0x80)
		a.Label("fn")
		a.MovRI(EDI, 55)
		a.Ret()
	})
	if c.Regs[EBX] != 1234 {
		t.Errorf("push imm/pop = %d", c.Regs[EBX])
	}
	if c.Regs[EDI] != 55 || c.Regs[ESI] != 9 {
		t.Errorf("call r: edi=%d esi=%d", c.Regs[EDI], c.Regs[ESI])
	}
}

func TestPushfStiCli(t *testing.T) {
	c := execSnippet(t, func(a *Asm) {
		a.Sti()
		a.Pushf()
		a.PopR(EAX) // IF must be set
		a.Cli()
		a.Pushf()
		a.PopR(EBX) // IF must be clear
	})
	if c.Regs[EAX]&FlagIF == 0 {
		t.Error("pushf after sti: IF clear")
	}
	if c.Regs[EBX]&FlagIF != 0 {
		t.Error("pushf after cli: IF set")
	}
}

func TestControlAndDebugRegisterMoves(t *testing.T) {
	c := execSnippet(t, func(a *Asm) {
		a.MovRC(EAX, 0) // read CR0
		a.MovRI(EBX, tData+0x30)
		a.MovDR(0, EBX) // DR0 = ebx
		a.MovRD(ECX, 0) // read it back
	})
	if c.Regs[EAX]&CR0PE == 0 {
		t.Error("CR0.PE not visible through mov r,cr0")
	}
	if c.Regs[ECX] != tData+0x30 {
		t.Errorf("DR0 round trip = 0x%X", c.Regs[ECX])
	}
}

func TestSegmentRegisterMoves(t *testing.T) {
	c := execSnippet(t, func(a *Asm) {
		a.MovRSeg(EAX, 0) // read FS
		a.MovRI(EBX, SelFS)
		a.MovSeg(0, EBX) // reload FS with the valid selector
		a.MovRSeg(ECX, 0)
		a.MovRSeg(EDX, 1) // read GS
	})
	if c.Regs[EAX] != SelFS || c.Regs[ECX] != SelFS {
		t.Errorf("FS reads = 0x%X, 0x%X", c.Regs[EAX], c.Regs[ECX])
	}
	if c.Regs[EDX] != SelGS {
		t.Errorf("GS read = 0x%X", c.Regs[EDX])
	}
	// Loading a bogus selector is a protection fault.
	c2 := newTestCPU(t, func(a *Asm) {
		a.MovRI(EBX, 0x13)
		a.MovSeg(0, EBX)
	})
	if ev := run(t, c2, 10); ev.Cause != isa.CauseGeneralProtection {
		t.Errorf("bad FS selector: %+v", ev)
	}
}

func TestStrReadsTaskRegister(t *testing.T) {
	c := execSnippet(t, func(a *Asm) {
		a.Str(EAX)
	})
	if c.Regs[EAX] != SelTR {
		t.Errorf("str = 0x%X, want boot TR 0x%X", c.Regs[EAX], SelTR)
	}
}

func TestLabelsAccessor(t *testing.T) {
	a := NewAsm()
	a.Nop()
	a.Label("here")
	a.Nop()
	if _, err := a.Link(0, nil); err != nil {
		t.Fatal(err)
	}
	if got := a.Labels(); got["here"] != 1 {
		t.Errorf("Labels() = %v (nop is one byte)", got)
	}
}

func TestPendingDataBreakReporting(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.MovRI(EBX, tData)
		a.MovRI(EAX, 5)
		a.St32(EBX, 0x10, EAX)
		a.Int(0x80)
	})
	if _, _, _, ok := c.PendingDataBreak(); ok {
		t.Error("pending break before any watchpoint fired")
	}
	c.Debug.Set(0, isa.Breakpoint{Kind: isa.BreakData, Addr: tData + 0x10, Len: 4})
	ev := run(t, c, 20)
	if ev.Kind != isa.EvDataBreak {
		t.Fatalf("event %+v, want data break", ev)
	}
	slot, access, addr, ok := c.PendingDataBreak()
	if !ok || slot != 0 || access != isa.AccessWrite || addr != tData+0x10 {
		t.Errorf("PendingDataBreak = (%d, %v, 0x%X, %v)", slot, access, addr, ok)
	}
}

func TestOpcodeLookupAndCost(t *testing.T) {
	// Every byte Lookup reports as defined must carry a nonzero cost and a
	// valid format; undefined bytes must be rejected.
	defined := 0
	for b := 0; b < 256; b++ {
		op, _, ok := Lookup(byte(b))
		if !ok {
			continue
		}
		defined++
		in := Inst{Opcode: byte(b)}
		if in.Cost() == 0 {
			t.Errorf("opcode 0x%02X (%v) has zero cost", b, op)
		}
	}
	// The density is the Figure 11 calibration; keep it in the CISC band.
	if defined < 170 || defined > 230 {
		t.Errorf("defined opcodes = %d, want the dense-CISC band [170, 230]", defined)
	}
}

func TestDisasmCoversFormats(t *testing.T) {
	// One emitter per operand format: each must decode and render a
	// non-empty, distinctive string (the kfi-asm and tracediff display
	// paths).
	a := NewAsm()
	a.Label("top")
	a.Nop()                        // FNone
	a.PushR(EAX)                   // FOpReg
	a.AddRR(EAX, EBX)              // FRR
	a.NegR(ECX)                    // FR
	a.NotR(ECX)                    // FR
	a.AddRI(EAX, 5)                // FRI8
	a.AddRI(EAX, 0x12345)          // FRI32
	a.PushI(0x7F)                  // FI8
	a.PushI(0x12345)               // FI32
	a.Ld32(EAX, EBX, 8)            // FMem8
	a.Ld32(EAX, EBX, 0x1234)       // FMem32
	a.St32(EBX, 8, EAX)            // FMem8 store
	a.Ld8zx(EAX, EBX, 2)           // byte load
	a.Ld8sx(EAX, EBX, 2)           // sign-extending byte load
	a.St8(EBX, 2, EAX)             // byte store
	a.Ld32Idx(EAX, EBX, ECX, 2, 4) // FIdx load
	a.St32Idx(EBX, ECX, 2, 4, EAX) // FIdx store
	a.LeaIdx(EAX, EBX, ECX, 1, 8)  // FIdx lea
	a.MovMI8(EBX, 4, 9)            // FMI8
	a.IncM(EBX, 4)
	a.DecM(EBX, 4)
	a.Jcc(CcNE, "top") // FRel32
	a.SetCC(EAX, CcL)  // setcc rendering
	a.Sti()
	a.Cli()
	a.Iret()
	a.Str(EAX)
	a.Ltr(EAX)
	a.LoadFS(EAX, EBX, 0x10)
	a.Int(0x80)
	code, err := a.Link(0x1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for off := 0; off < len(code); {
		in, err := Decode(code[off:])
		if err != nil {
			t.Fatalf("byte 0x%02X at %d does not decode: %v", code[off], off, err)
		}
		str := in.String()
		if str == "" {
			t.Errorf("instruction at %d renders empty", off)
		}
		seen[str] = true
		off += int(in.Len)
	}
	if len(seen) < 28 {
		t.Errorf("only %d distinct renderings", len(seen))
	}
}

func TestRegCcCrDrNames(t *testing.T) {
	if RegName(EAX) != "eax" && RegName(EAX) != "EAX" {
		t.Errorf("RegName(EAX) = %q", RegName(EAX))
	}
	if got := RegName(200); got == "" {
		t.Error("out-of-range RegName empty")
	}
	if got := CcName(0xF); got == "" {
		t.Error("CcName(0xF) empty")
	}
}
