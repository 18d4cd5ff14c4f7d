package cisc

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
	tStack = 0x8000 // stack region [0x8000, 0x9000); initial ESP 0x9000
)

// newTestCPU assembles the program, loads it at tCode, and returns a CPU
// ready to run with ESP at the top of the stack region.
func newTestCPU(t *testing.T, build func(a *Asm)) *CPU {
	t.Helper()
	m := mem.New(1<<20, binary.LittleEndian)
	m.Map(tCode, 0x1000, mem.Present) // code is read-only
	m.Map(tData, 0x2000, mem.Present|mem.Writable)
	m.Map(tStack, 0x1000, mem.Present|mem.Writable)
	a := NewAsm()
	build(a)
	code, err := a.Link(tCode, nil)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	m.WriteBytes(tCode, code)
	c := NewCPU(m)
	c.EIP = tCode
	c.Regs[ESP] = tStack + 0x1000
	return c
}

// run steps until a non-isa.EvNone event or limit instructions.
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

func TestArithmeticAndFlags(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.MovRI(EAX, 7)
		a.MovRI(EBX, 5)
		a.SubRR(EAX, EBX) // eax = 2
		a.ImulRI(EAX, 10) // eax = 20
		a.MovRI(ECX, 3)
		a.IdivRR(EAX, ECX) // eax = 6
		a.MovRI(EDX, 20)
		a.ModRR(EDX, ECX) // edx = 2
		a.Hlt()
	})
	ev := run(t, c, 100)
	if ev.Kind != isa.EvHalt {
		t.Fatalf("event = %+v, want halt", ev)
	}
	if c.Regs[EAX] != 6 || c.Regs[EDX] != 2 {
		t.Errorf("eax=%d edx=%d, want 6, 2", c.Regs[EAX], c.Regs[EDX])
	}
}

func TestConditionCodes(t *testing.T) {
	tests := []struct {
		name string
		a, b int32
		cc   uint8
		want uint32
	}{
		{"eq taken", 5, 5, CcE, 1},
		{"eq not", 5, 6, CcE, 0},
		{"lt signed", -1, 1, CcL, 1},
		{"lt signed not", 1, -1, CcL, 0},
		{"below unsigned", 1, 2, CcB, 1},
		{"below unsigned wrap", -1, 1, CcB, 0}, // 0xffffffff not below 1
		{"greater", 9, 3, CcG, 1},
		{"ge equal", 3, 3, CcGE, 1},
		{"le", 2, 3, CcLE, 1},
		{"above", 7, 3, CcA, 1},
		{"sign", -5, 0, CcS, 1},
		{"nonsign", 5, 0, CcNS, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := newTestCPU(t, func(a *Asm) {
				a.MovRI(EAX, tt.a)
				a.CmpRI(EAX, tt.b)
				a.SetCC(EBX, tt.cc)
				a.Hlt()
			})
			run(t, c, 10)
			if c.Regs[EBX] != tt.want {
				t.Errorf("setcc = %d, want %d", c.Regs[EBX], tt.want)
			}
		})
	}
}

func TestLoadStoreWidths(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.MovRI(EBX, tData)
		a.MovRI(EAX, 0x11223344|-0x80000000) // 0x91223344
		a.St32(EBX, 0, EAX)
		a.St16(EBX, 4, EAX)
		a.St8(EBX, 6, EAX)
		a.Ld32(ECX, EBX, 0)
		a.Ld16zx(EDX, EBX, 4)
		a.Ld8zx(ESI, EBX, 6)
		a.Ld8sx(EDI, EBX, 3) // top byte 0x91 sign-extends
		a.Hlt()
	})
	run(t, c, 100)
	if c.Regs[ECX] != 0x91223344 {
		t.Errorf("ld32 = 0x%x", c.Regs[ECX])
	}
	if c.Regs[EDX] != 0x3344 {
		t.Errorf("ld16zx = 0x%x", c.Regs[EDX])
	}
	if c.Regs[ESI] != 0x44 {
		t.Errorf("ld8zx = 0x%x", c.Regs[ESI])
	}
	if c.Regs[EDI] != 0xffffff91 {
		t.Errorf("ld8sx = 0x%x", c.Regs[EDI])
	}
}

func TestIndexedAddressing(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.MovRI(EBX, tData)
		a.MovRI(ESI, 4) // index
		a.MovRI(EAX, 99)
		a.St32Idx(EBX, ESI, 2, 8, EAX) // [tData + 4*4 + 8] = 99
		a.Ld32Idx(ECX, EBX, ESI, 2, 8)
		a.LeaIdx(EDX, EBX, ESI, 3, 1) // edx = tData + 32 + 1
		a.Hlt()
	})
	run(t, c, 100)
	if got := c.Mem.RawRead(tData+24, 4); got != 99 {
		t.Errorf("indexed store wrote 0x%x at +24", got)
	}
	if c.Regs[ECX] != 99 {
		t.Errorf("indexed load = %d", c.Regs[ECX])
	}
	if c.Regs[EDX] != tData+33 {
		t.Errorf("lea idx = 0x%x, want 0x%x", c.Regs[EDX], tData+33)
	}
}

func TestCallRetStackDiscipline(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.CallSym("fn")
		a.Hlt()
		a.Label("fn")
		a.PushR(EBP)
		a.MovRR(EBP, ESP)
		a.MovRI(EAX, 42)
		a.Leave()
		a.Ret()
	})
	ev := run(t, c, 100)
	if ev.Kind != isa.EvHalt {
		t.Fatalf("event = %+v", ev)
	}
	if c.Regs[EAX] != 42 {
		t.Errorf("eax = %d, want 42", c.Regs[EAX])
	}
	if c.Regs[ESP] != tStack+0x1000 {
		t.Errorf("esp = 0x%x, want balanced 0x%x", c.Regs[ESP], tStack+0x1000)
	}
}

func TestExceptionClassification(t *testing.T) {
	tests := []struct {
		name string
		prog func(a *Asm)
		want isa.CrashCause
	}{
		{"null pointer", func(a *Asm) {
			a.MovRI(EBX, 0)
			a.Ld32(EAX, EBX, 8)
		}, isa.CauseNULLPointer},
		{"bad paging", func(a *Asm) {
			a.MovRI(EBX, 0x70000)
			a.Ld32(EAX, EBX, 0)
		}, isa.CauseBadPaging},
		{"gp write to code", func(a *Asm) {
			a.MovRI(EBX, tCode)
			a.St32(EBX, 0, EAX)
		}, isa.CauseGeneralProtection},
		{"wild address pages", func(a *Asm) {
			a.MovRI(EBX, 0x170fc2a5|-0x80000000)
			a.Ld32(EAX, EBX, 0)
		}, isa.CauseBadPaging},
		{"ud2", func(a *Asm) { a.Ud2() }, isa.CauseInvalidInstr},
		{"divide by zero", func(a *Asm) {
			a.MovRI(EAX, 10)
			a.MovRI(EBX, 0)
			a.IdivRR(EAX, EBX)
		}, isa.CauseDivideError},
		{"divide overflow", func(a *Asm) {
			a.MovRI(EAX, -0x80000000)
			a.MovRI(EBX, -1)
			a.IdivRR(EAX, EBX)
		}, isa.CauseDivideError},
		{"bad int vector", func(a *Asm) { a.Int(0x21) }, isa.CauseGeneralProtection},
		{"bounds", func(a *Asm) {
			a.MovRI(EBX, tData)
			a.MovMI8(EBX, 0, 1)  // lower bound 1
			a.MovMI8(EBX, 4, 10) // upper bound 10
			a.MovRI(EAX, 50)
			a.Bound(EAX, EBX, 0)
		}, isa.CauseBoundsTrap},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := newTestCPU(t, tt.prog)
			ev := run(t, c, 100)
			if ev.Kind != isa.EvException {
				t.Fatalf("event = %+v, want exception", ev)
			}
			if ev.Cause != tt.want {
				t.Errorf("cause = %v, want %v", ev.Cause, tt.want)
			}
		})
	}
}

func TestCR2OnPageFault(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.MovRI(EBX, 0x70008)
		a.Ld32(EAX, EBX, 4)
	})
	ev := run(t, c, 10)
	if ev.Cause != isa.CauseBadPaging || c.CR2 != 0x7000c {
		t.Errorf("cause=%v cr2=0x%x, want bad paging with cr2=0x7000c", ev.Cause, c.CR2)
	}
}

func TestSyscallEvent(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.MovRI(EAX, 4)
		a.Int(0x80)
	})
	ev := run(t, c, 10)
	if ev.Kind != isa.EvSyscall || ev.SysNo != 4 {
		t.Errorf("event = %+v, want syscall 4", ev)
	}
}

func TestInterruptDeliveryAndIret(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.MovRI(EAX, 1)
		a.Label("spin")
		a.JmpSym("spin")
		a.Label("handler")
		a.MovRI(EAX, 2)
		a.Iret()
	})
	c.Step() // execute mov
	// Handler address: mov $1,%eax is FRI8 (3 bytes), jmp rel32 is 5 bytes,
	// so the handler label sits at +8.
	spinEIP := c.EIP
	ev := c.DeliverInterrupt(tCode+8, 0)
	if ev.Kind != isa.EvNone {
		t.Fatalf("DeliverInterrupt: %+v", ev)
	}
	if c.Flags&FlagIF != 0 {
		t.Error("IF not cleared on interrupt entry")
	}
	// Run the handler: mov + iret.
	for i := 0; i < 10; i++ {
		if ev := c.Step(); ev.Kind != isa.EvNone {
			t.Fatalf("handler step: %+v", ev)
		}
		if c.EIP == spinEIP {
			break
		}
	}
	if c.EIP != spinEIP {
		t.Errorf("after iret EIP = 0x%x, want 0x%x", c.EIP, spinEIP)
	}
	if c.Regs[EAX] != 2 {
		t.Errorf("eax = %d, want 2", c.Regs[EAX])
	}
	if c.Regs[ESP] != tStack+0x1000 {
		t.Errorf("esp not restored: 0x%x", c.Regs[ESP])
	}
}

func TestIretWithNTBitInvalidTSS(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.Iret()
	})
	c.Flags |= FlagNT
	ev := run(t, c, 5)
	if ev.Kind != isa.EvException || ev.Cause != isa.CauseInvalidTSS {
		t.Errorf("event = %+v, want Invalid TSS", ev)
	}
}

func TestInterruptWithClearedPE(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) { a.Nop() })
	c.CR0 &^= CR0PE
	ev := c.DeliverInterrupt(tCode, 0)
	if ev.Kind != isa.EvException || ev.Cause != isa.CauseGeneralProtection {
		t.Errorf("event = %+v, want #GP", ev)
	}
}

func TestInterruptWithBadTRIsBenign(t *testing.T) {
	// The processor delivers through its cached TSS descriptor, so a
	// corrupted task register does not fault on its own.
	c := newTestCPU(t, func(a *Asm) { a.Nop() })
	c.TR = 0x29 // one bit flipped
	ev := c.DeliverInterrupt(tCode, 0)
	if ev.Kind != isa.EvNone {
		t.Errorf("event = %+v, want none", ev)
	}
}

func TestCorruptedESPFaults(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.PushR(EAX)
	})
	c.Regs[ESP] = 0x00000010 // corrupted into the NULL page
	ev := run(t, c, 5)
	if ev.Kind != isa.EvException || ev.Cause != isa.CauseNULLPointer {
		t.Errorf("event = %+v, want NULL pointer", ev)
	}
}

func TestUserModeProtections(t *testing.T) {
	progs := map[string]func(a *Asm){
		"cli":    func(a *Asm) { a.Cli() },
		"hlt":    func(a *Asm) { a.Hlt() },
		"iret":   func(a *Asm) { a.Iret() },
		"movcr":  func(a *Asm) { a.MovCR(0, EAX) },
		"ctxsw":  func(a *Asm) { a.CtxSw(EAX, EBX) },
		"ltr":    func(a *Asm) { a.Ltr(EAX) },
		"loadfs": func(a *Asm) { a.LoadFS(EAX, EBX, 0) },
	}
	for name, prog := range progs {
		t.Run(name, func(t *testing.T) {
			c := newTestCPU(t, prog)
			c.Mem.Map(tCode, 0x1000, mem.Present|mem.UserOK)
			c.Mem.Map(tStack, 0x1000, mem.Present|mem.Writable|mem.UserOK)
			c.Mode = isa.UserMode
			ev := run(t, c, 5)
			if ev.Kind != isa.EvException || ev.Cause != isa.CauseGeneralProtection {
				t.Errorf("event = %+v, want #GP", ev)
			}
		})
	}
}

func TestUserCannotTouchKernelMemory(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.MovRI(EBX, tData) // kernel-only page
		a.Ld32(EAX, EBX, 0)
	})
	c.Mem.Map(tCode, 0x1000, mem.Present|mem.UserOK)
	c.Mode = isa.UserMode
	ev := run(t, c, 5)
	if ev.Kind != isa.EvException || ev.Cause != isa.CauseGeneralProtection {
		t.Errorf("event = %+v, want #GP", ev)
	}
}

func TestFSSegmentUseAfterCorruption(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.MovRI(EBX, 0)
		a.LoadFS(EAX, EBX, 8)
		a.Hlt()
	})
	c.FSBase = tData
	c.Mem.RawWrite(tData+8, 4, 0x1234)
	// Healthy FS: the load succeeds.
	ev := run(t, c, 10)
	if ev.Kind != isa.EvHalt || c.Regs[EAX] != 0x1234 {
		t.Fatalf("healthy FS load: ev=%+v eax=0x%x", ev, c.Regs[EAX])
	}
	// Corrupted FS selector: #GP at next use.
	c.EIP = tCode
	c.FS ^= 1
	ev = run(t, c, 10)
	if ev.Kind != isa.EvException || ev.Cause != isa.CauseGeneralProtection {
		t.Errorf("corrupted FS: event = %+v, want #GP", ev)
	}
}

func TestInstructionBreakpoint(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.Nop()
		a.MovRI(EAX, 1) // breakpoint here (offset 1)
		a.Hlt()
	})
	c.Debug.Set(0, isa.Breakpoint{Kind: isa.BreakInstruction, Addr: tCode + 1})
	ev := run(t, c, 10)
	if ev.Kind != isa.EvInstrBreak || ev.BreakAddr != tCode+1 {
		t.Fatalf("event = %+v, want instr break at 0x%x", ev, tCode+1)
	}
	if c.Regs[EAX] != 0 {
		t.Error("breakpoint fired after the instruction executed")
	}
	// Clearing and resuming executes the instruction.
	c.Debug.Clear(0)
	ev = run(t, c, 10)
	if ev.Kind != isa.EvHalt || c.Regs[EAX] != 1 {
		t.Errorf("resume: ev=%+v eax=%d", ev, c.Regs[EAX])
	}
}

func TestDataBreakpointReadAndWrite(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.MovRI(EBX, tData)
		a.MovRI(EAX, 7)
		a.St32(EBX, 0x10, EAX) // write hits watchpoint
		a.Ld32(ECX, EBX, 0x10) // read hits watchpoint
		a.Hlt()
	})
	c.Debug.Set(1, isa.Breakpoint{Kind: isa.BreakData, Addr: tData + 0x10, Len: 4})
	ev := run(t, c, 10)
	if ev.Kind != isa.EvDataBreak || ev.Access != isa.AccessWrite {
		t.Fatalf("first event = %+v, want data-break write", ev)
	}
	// Trap semantics: the store completed before the event.
	if got := c.Mem.RawRead(tData+0x10, 4); got != 7 {
		t.Errorf("store did not complete before trap: 0x%x", got)
	}
	ev = run(t, c, 10)
	if ev.Kind != isa.EvDataBreak || ev.Access != isa.AccessRead {
		t.Fatalf("second event = %+v, want data-break read", ev)
	}
	c.Debug.Clear(1)
	if ev = run(t, c, 10); ev.Kind != isa.EvHalt {
		t.Fatalf("final event = %+v, want halt", ev)
	}
}

func TestCtxSwEvent(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.MovRI(EAX, 0x4100)
		a.MovRI(EDX, 0x4200)
		a.CtxSw(EAX, EDX)
	})
	ev := run(t, c, 10)
	if ev.Kind != isa.EvCtxSw || ev.Prev != 0x4100 || ev.Next != 0x4200 {
		t.Errorf("event = %+v, want ctxsw 0x4100→0x4200", ev)
	}
}

func TestPopfUserCannotSetSystemFlags(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.MovRI(EAX, int32(FlagNT|FlagIF|FlagCF))
		a.PushR(EAX)
		a.Popf()
		a.Nop()
	})
	c.Mem.Map(tCode, 0x1000, mem.Present|mem.UserOK)
	c.Mem.Map(tStack, 0x1000, mem.Present|mem.Writable|mem.UserOK)
	c.Mode = isa.UserMode
	for i := 0; i < 3; i++ {
		if ev := c.Step(); ev.Kind != isa.EvNone {
			t.Fatalf("step %d: %+v", i, ev)
		}
	}
	if c.Flags&(FlagNT|FlagIF) != 0 {
		t.Errorf("user popf set system flags: 0x%x", c.Flags)
	}
	if c.Flags&FlagCF == 0 {
		t.Error("user popf did not set arithmetic flag")
	}
}

func TestSystemRegistersTable(t *testing.T) {
	regs := SystemRegisters()
	if len(regs) < 18 || len(regs) > 22 {
		t.Errorf("P4 system register count = %d, want about 20", len(regs))
	}
	names := make(map[string]bool)
	c := NewCPU(mem.New(1<<16, binary.LittleEndian))
	for _, r := range regs {
		if names[r.Name] {
			t.Errorf("duplicate register %q", r.Name)
		}
		names[r.Name] = true
		// Each register must round-trip a value through its accessors.
		old := r.Get(c)
		r.Set(c, old^0x1)
		if r.Get(c) != old^0x1 {
			t.Errorf("register %q does not round-trip", r.Name)
		}
		r.Set(c, old)
	}
	for _, want := range []string{"EFLAGS", "CR0", "ESP", "EIP", "FS", "GS", "TR"} {
		if !names[want] {
			t.Errorf("missing sensitive register %q", want)
		}
	}
}

func TestXchgAndUnaryOps(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.MovRI(EAX, 1)
		a.MovRI(EBX, 2)
		a.XchgRR(EAX, EBX)
		a.XchgA(ECX) // eax ↔ ecx
		a.NegR(EBX)
		a.NotR(EDX)
		a.IncR(ESI)
		a.DecR(EDI)
		a.Hlt()
	})
	run(t, c, 20)
	if c.Regs[ECX] != 2 || c.Regs[EAX] != 0 {
		t.Errorf("xchg chain: eax=%d ecx=%d", c.Regs[EAX], c.Regs[ECX])
	}
	if int32(c.Regs[EBX]) != -1 {
		t.Errorf("neg: ebx=%d", int32(c.Regs[EBX]))
	}
	if c.Regs[EDX] != 0xffffffff {
		t.Errorf("not: edx=0x%x", c.Regs[EDX])
	}
	if c.Regs[ESI] != 1 || int32(c.Regs[EDI]) != -1 {
		t.Errorf("inc/dec: esi=%d edi=%d", c.Regs[ESI], int32(c.Regs[EDI]))
	}
}

func TestMemoryALUOps(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.MovRI(EBX, tData)
		a.MovMI8(EBX, 0, 10)
		a.MovRI(EAX, 3)
		a.AddMS(EBX, 0, EAX) // [d] = 13
		a.SubMS(EBX, 0, EAX) // 10
		a.IncM(EBX, 0)       // 11
		a.DecM(EBX, 0)       // 10
		a.OrMS(EBX, 0, EAX)  // 11
		a.AndMS(EBX, 0, EAX) // 3
		a.XorMS(EBX, 0, EAX) // 0
		a.Hlt()
	})
	run(t, c, 30)
	if got := c.Mem.RawRead(tData, 4); got != 0 {
		t.Errorf("memory ALU chain = %d, want 0", got)
	}
	if c.Flags&FlagZF == 0 {
		t.Error("final xor did not set ZF")
	}
}

func TestCmpLAbsSpinlockShape(t *testing.T) {
	// The Fig. 13 shape: cmpl $MAGIC, addr; jne ok; ud2.
	c := newTestCPU(t, func(a *Asm) {
		a.CmpLAbs("magic", 0, 0x4ead4ead)
		a.Jcc(CcE, "ok")
		a.Ud2()
		a.Label("ok")
		a.Hlt()
		a.Label("magic")
	})
	// Place the magic word at the label (inside the mapped code page,
	// readable). The label is in code; write via raw access.
	addr := tCode + uint32(len(mustLink(t, func(a *Asm) {
		a.CmpLAbs("m", 0, 0)
		a.Jcc(CcE, "m")
		a.Ud2()
		a.Label("m")
		a.Hlt()
	})))
	_ = addr
	// Simpler: find label offset by assembling identically.
	a2 := NewAsm()
	a2.CmpLAbs("magic", 0, 0x4ead4ead)
	a2.Jcc(CcE, "ok")
	a2.Ud2()
	a2.Label("ok")
	a2.Hlt()
	a2.Label("magic")
	off, _ := a2.LabelAddr("magic")
	c.Mem.RawWrite(tCode+off, 4, 0x4ead4ead)
	ev := run(t, c, 10)
	if ev.Kind != isa.EvHalt {
		t.Fatalf("healthy magic: %+v", ev)
	}
	// Corrupt the magic (one bit) → ud2 path → invalid instruction.
	c.EIP = tCode
	c.Mem.FlipBit(tCode+off, 6)
	ev = run(t, c, 10)
	if ev.Kind != isa.EvException || ev.Cause != isa.CauseInvalidInstr {
		t.Errorf("corrupted magic: %+v, want invalid instruction", ev)
	}
}

func mustLink(t *testing.T, build func(a *Asm)) []byte {
	t.Helper()
	a := NewAsm()
	build(a)
	code, err := a.Link(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func TestCycleCounting(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) {
		a.Nop()          // 1
		a.MovRI(EAX, 1)  // 1
		a.ImulRI(EAX, 3) // 4
		a.Hlt()          // 1
	})
	run(t, c, 10)
	if got := c.Clk.Cycles(); got != 7 {
		t.Errorf("cycles = %d, want 7", got)
	}
}

func TestTraceHook(t *testing.T) {
	var pcs []uint32
	c := newTestCPU(t, func(a *Asm) {
		a.Nop()
		a.Nop()
		a.Hlt()
	})
	c.Trace = func(pc uint32, cost uint8) { pcs = append(pcs, pc) }
	run(t, c, 10)
	if len(pcs) != 3 || pcs[0] != tCode || pcs[1] != tCode+1 {
		t.Errorf("trace = %#v", pcs)
	}
}

func TestExecutingDataAsCode(t *testing.T) {
	// Control flow landing in mapped data decodes whatever is there — on a
	// dense CISC map usually something valid, eventually faulting. The CPU
	// must not wedge: it either executes or raises an exception.
	c := newTestCPU(t, func(a *Asm) {
		a.MovRI(EAX, tData)
		a.JmpR(EAX)
	})
	c.Mem.RawWrite(tData, 4, 0xFFFFFFFF) // undefined opcode
	ev := run(t, c, 10)
	if ev.Kind != isa.EvException || ev.Cause != isa.CauseInvalidInstr {
		t.Errorf("event = %+v, want invalid instruction", ev)
	}
}

// Property: ADD/SUB flag computation matches 64-bit reference arithmetic.
func TestFlagsArithmeticProperty(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) { a.Nop() })
	check := func(a, b uint32) bool {
		// ADD
		c.Regs[EAX], c.Regs[EBX] = a, b
		c.setFlagsAdd(a, b, a+b)
		sum64 := uint64(a) + uint64(b)
		wantCF := sum64 > 0xFFFFFFFF
		sums := int64(int32(a)) + int64(int32(b))
		wantOF := sums < -1<<31 || sums > 1<<31-1
		if (c.Flags&FlagCF != 0) != wantCF || (c.Flags&FlagOF != 0) != wantOF {
			return false
		}
		// SUB
		c.setFlagsSub(a, b, a-b)
		wantCF = a < b
		diffs := int64(int32(a)) - int64(int32(b))
		wantOF = diffs < -1<<31 || diffs > 1<<31-1
		if (c.Flags&FlagCF != 0) != wantCF || (c.Flags&FlagOF != 0) != wantOF {
			return false
		}
		if (c.Flags&FlagZF != 0) != (a-b == 0) {
			return false
		}
		return (c.Flags&FlagSF != 0) == (int32(a-b) < 0)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: every condition code agrees with the signed/unsigned comparison
// it encodes, across random operand pairs.
func TestConditionCodeProperty(t *testing.T) {
	c := newTestCPU(t, func(a *Asm) { a.Nop() })
	check := func(a, b uint32) bool {
		c.setFlagsSub(a, b, a-b)
		sa, sb := int32(a), int32(b)
		cases := []struct {
			cc   uint8
			want bool
		}{
			{CcE, a == b}, {CcNE, a != b},
			{CcB, a < b}, {CcAE, a >= b}, {CcBE, a <= b}, {CcA, a > b},
			{CcL, sa < sb}, {CcGE, sa >= sb}, {CcLE, sa <= sb}, {CcG, sa > sb},
		}
		for _, tc := range cases {
			if c.Cond(tc.cc) != tc.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
