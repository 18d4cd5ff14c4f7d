package risc

import (
	"encoding/binary"
	"fmt"

	"kfi/internal/isa"
	"kfi/internal/mem"
	"kfi/internal/platform"
)

// This file is the G4-class platform's single registration point: the
// Descriptor (bus window, crash semantics, latency stages, instruction
// boundaries, the snapshot CPU codec) and the machine-facing Core adapter.

// Latency-model stages (the paper's Figure 3) for the G4 exception path:
// its hardware stage is longer and its software stage runs the kernel's
// checking wrapper before the handler — which is why in the paper even
// immediate G4 crashes land above the 3k bucket while immediate P4 crashes
// land below it (Figure 16).
const (
	stageHardware = 2400
	stageSoftware = 800
)

// Boot values and sensitivity masks for the G4 translation registers the
// exception path depends on. Flips in the masked bits break the kernel's
// address translation and surface at the next exception; flips in the
// unmasked (reserved / fine-grained) bits pass, which is why only some bits
// of these registers are error-sensitive (paper §5.2).
const (
	bootSDR1 = 0x00FF0000
	sdr1Mask = 0xFFFF0000 // HTABORG: the hashed page table base
	bootBAT  = 0xC0001FFE
	batMask  = 0xFFFE0003 // BEPI block address + Vs/Vp valid bits

	// SDR1LiveMask and BATLiveMask expose the vetted bit ranges: the only
	// bits of SDR1 and the boot BAT pair the exception-delivery path ever
	// consults. The static analyzer treats all other bits as inert.
	SDR1LiveMask uint32 = sdr1Mask
	BATLiveMask  uint32 = batMask
)

type descriptor struct{}

func (descriptor) ID() isa.Platform  { return isa.RISC }
func (descriptor) Aliases() []string { return []string{"risc", "ppc"} }

func (descriptor) NewCore(m *mem.Memory) platform.Core {
	return &coreAdapter{cpu: NewCPU(m), mem: m}
}

// NewEngine builds the block translator (translate.go) bound to a core this
// descriptor built.
func (descriptor) NewEngine(c platform.Core) platform.ExecEngine {
	return newTranslator(c.(*coreAdapter).cpu)
}

// BusWindow: the G4's processor-local bus hangs (machine check) only in this
// unclaimed window; other wild kernel pointers fault as "kernel access of a
// bad area" (paper §5.2).
func (descriptor) BusWindow() (uint32, uint32, bool) { return 0xF0000000, 0xF8000000, true }

// KernelStackSize is the G4 kernel's 8 KiB per-process kernel stack.
func (descriptor) KernelStackSize() uint32 { return 0x2000 }

func (descriptor) CrashStages() (uint64, uint64) { return stageHardware, stageSoftware }

func (descriptor) RegisterLabels() (string, string) { return "NIP", "R1 " }

// CrashMessage renders the crash the way the G4 kernel would print it.
func (descriptor) CrashMessage(cause isa.CrashCause, pc, faultAddr, sp uint32) string {
	switch cause {
	case isa.CauseBadArea:
		return fmt.Sprintf("kernel access of bad area, sig: 11 [#1] dar %08x nip %08x", faultAddr, pc)
	case isa.CauseIllegalInstr:
		return fmt.Sprintf("kernel tried to execute illegal instruction at nip %08x", pc)
	case isa.CauseStackOverflow:
		return fmt.Sprintf("kernel stack overflow, r1 %08x nip %08x", sp, pc)
	case isa.CauseMachineCheck:
		return fmt.Sprintf("Machine check in kernel mode, dar %08x nip %08x", faultAddr, pc)
	case isa.CauseAlignment:
		return fmt.Sprintf("alignment exception, dar %08x nip %08x", faultAddr, pc)
	case isa.CausePanic:
		return "Kernel panic!!!"
	case isa.CauseBusError:
		return fmt.Sprintf("bus error (protection fault), dar %08x nip %08x", faultAddr, pc)
	case isa.CauseBadTrap:
		return fmt.Sprintf("kernel bad trap at nip %08x", pc)
	default:
		return fmt.Sprintf("unknown exception at nip %08x", pc)
	}
}

// InstructionBoundaries: every instruction is one aligned 32-bit word.
func (descriptor) InstructionBoundaries(code []byte, base uint32) []platform.InstrRef {
	var out []platform.InstrRef
	for off := uint32(0); off+4 <= uint32(len(code)); off += 4 {
		out = append(out, platform.InstrRef{Addr: base + off, Size: 4})
	}
	return out
}

func init() { platform.Register(descriptor{}) }

// CPUOf returns the concrete RISC CPU behind a platform core (nil when the
// core is not a RISC core).
func CPUOf(c platform.Core) *CPU {
	if a, ok := c.(*coreAdapter); ok {
		return a.cpu
	}
	return nil
}

// coreAdapter adapts risc.CPU to platform.Core.
type coreAdapter struct {
	cpu *CPU
	mem *mem.Memory
	// expectedSPRG2 is the boot-installed exception scratch pointer the
	// delivery vetting compares against (the machine config's SPRG2Value).
	expectedSPRG2 uint32
}

var _ platform.Core = (*coreAdapter)(nil)

func (c *coreAdapter) RunUntil(limit uint64) isa.Event { return c.cpu.RunUntil(limit) }
func (c *coreAdapter) Reset()                          { c.cpu.Reset() }
func (c *coreAdapter) PC() uint32                      { return c.cpu.PC }
func (c *coreAdapter) SetPC(v uint32)                  { c.cpu.PC = v }
func (c *coreAdapter) SP() uint32                      { return c.cpu.R[SP] }
func (c *coreAdapter) SetSP(v uint32)                  { c.cpu.R[SP] = v }
func (c *coreAdapter) Mode() isa.Mode                  { return c.cpu.Mode() }

func (c *coreAdapter) InterruptsEnabled() bool { return c.cpu.InterruptsEnabled() }

// InstallBootState sets the exception scratch pointer and the boot-firmware
// translation state (page-table base and kernel BAT mappings) the exception
// path depends on.
func (c *coreAdapter) InstallBootState(bs platform.BootState) {
	c.expectedSPRG2 = bs.SPRG2
	c.cpu.SPR[SprSPRG2] = bs.SPRG2
	c.cpu.SPR[SprSDR1] = bootSDR1
	c.cpu.SPR[SprIBAT0U] = bootBAT
	c.cpu.SPR[SprDBAT0U] = bootBAT
}

// VetDelivery checks the architectural state the G4 exception entry depends
// on. Corrupted translation state (page-table base or kernel BATs) derails
// the very first translation of the exception path: the kernel reports an
// access to a bad area at a wild address. The entry path saves scratch state
// through SPRG2: a corrupted SPRG2 makes those stores fault (kernel access
// of a bad area, or a machine check beyond the bus limit); if the wild
// pointer happens to hit mapped memory, the entry path continues into it and
// the OS ends up executing from an essentially random location (paper §5.2).
func (c *coreAdapter) VetDelivery() platform.Delivery {
	crash := func(cause isa.CrashCause, addr uint32) platform.Delivery {
		return platform.Delivery{Crash: true,
			Event: isa.Event{Kind: isa.EvException, Cause: cause, FaultAddr: addr}}
	}
	if got := c.cpu.SPR[SprSDR1]; (got^bootSDR1)&sdr1Mask != 0 {
		return crash(isa.CauseBadArea, got)
	}
	if got := c.cpu.SPR[SprIBAT0U]; (got^bootBAT)&batMask != 0 {
		return crash(isa.CauseBadArea, got)
	}
	if got := c.cpu.SPR[SprDBAT0U]; (got^bootBAT)&batMask != 0 {
		return crash(isa.CauseBadArea, got)
	}
	if got := c.cpu.SPR[SprSPRG2]; got != c.expectedSPRG2 {
		if f := c.mem.Check(got&^3, 32, true, false); f != nil {
			cause := isa.CauseBadArea
			if f.Kind == mem.FaultBus {
				cause = isa.CauseMachineCheck
			}
			return crash(cause, got)
		}
		return platform.Delivery{Hijack: true, HijackPC: got}
	}
	return platform.Delivery{}
}

func (c *coreAdapter) DeliverInterrupt(handler, ksp uint32) isa.Event {
	return c.cpu.DeliverInterrupt(handler, ksp)
}

func (c *coreAdapter) SetSyscallResult(v uint32) { c.cpu.R[3] = v }

func (c *coreAdapter) SyscallArgs() (uint32, uint32, uint32) {
	return c.cpu.R[3], c.cpu.R[4], c.cpu.R[5]
}

// SystemRegisters binds the G4 system-register file to this core.
func (c *coreAdapter) SystemRegisters() []platform.SysReg {
	var out []platform.SysReg
	for _, r := range SystemRegisters() {
		r := r
		out = append(out, platform.SysReg{Name: r.Name, Bits: r.Bits,
			Get: func() uint32 { return r.Get(c.cpu) },
			Set: func(v uint32) { r.Set(c.cpu, v) }})
	}
	return out
}

// RISC context: 32 GPRs, PC, LR, CTR, CR, MSR.
func (c *coreAdapter) CtxWords() int { return 37 }

func (c *coreAdapter) SaveContext(addr uint32) {
	for i := 0; i < 32; i++ {
		c.mem.RawWrite(addr+uint32(i)*4, 4, c.cpu.R[i])
	}
	c.mem.RawWrite(addr+128, 4, c.cpu.PC)
	c.mem.RawWrite(addr+132, 4, c.cpu.LR)
	c.mem.RawWrite(addr+136, 4, c.cpu.CTR)
	c.mem.RawWrite(addr+140, 4, c.cpu.CR)
	c.mem.RawWrite(addr+144, 4, c.cpu.MSR)
}

func (c *coreAdapter) RestoreContext(addr uint32) {
	for i := 0; i < 32; i++ {
		c.cpu.R[i] = c.mem.RawRead(addr+uint32(i)*4, 4)
	}
	c.cpu.PC = c.mem.RawRead(addr+128, 4)
	c.cpu.LR = c.mem.RawRead(addr+132, 4)
	c.cpu.CTR = c.mem.RawRead(addr+136, 4)
	c.cpu.CR = c.mem.RawRead(addr+140, 4)
	c.cpu.MSR = c.mem.RawRead(addr+144, 4)
}

func (c *coreAdapter) InitContext(addr, entry, sp uint32, user bool) {
	for i := 0; i < 37; i++ {
		c.mem.RawWrite(addr+uint32(i)*4, 4, 0)
	}
	c.mem.RawWrite(addr+4, 4, sp) // r1
	c.mem.RawWrite(addr+128, 4, entry)
	msr := uint32(MSRME | MSRIR | MSRDR | MSREE)
	if user {
		msr |= MSRPR
	}
	c.mem.RawWrite(addr+144, 4, msr)
}

// CtxSPOffset: r1 is the stack pointer.
func (c *coreAdapter) CtxSPOffset() uint32 { return 4 }

// CtxModeUser reads MSR[PR] from the saved context.
func (c *coreAdapter) CtxModeUser(addr uint32) bool {
	return c.mem.RawRead(addr+144, 4)&MSRPR != 0
}

func (c *coreAdapter) SetStackBounds(lo, hi uint32) {
	c.cpu.StackLo, c.cpu.StackHi = lo, hi
}

// StackPointerInBounds implements the G4 kernel's exception-entry wrapper:
// it validates the stack pointer against the current 8 KiB kernel stack.
func (c *coreAdapter) StackPointerInBounds() bool {
	if c.cpu.StackHi == 0 {
		return true
	}
	sp := c.cpu.R[SP]
	return sp > c.cpu.StackLo && sp <= c.cpu.StackHi
}

// CrashDumpPossible: the G4 handler switches to the SPRG2 scratch area, so
// the dump survives stack corruption but not SPRG2 corruption.
func (c *coreAdapter) CrashDumpPossible() bool {
	sprg2 := c.cpu.SPR[SprSPRG2]
	return c.mem.Check(sprg2, 64, true, false) == nil
}

// BeginCall places the arguments in r3.. and the sentinel in the link
// register (the SysV PPC host-call convention).
func (c *coreAdapter) BeginCall(entry uint32, args []uint32) {
	for i, v := range args {
		c.cpu.R[3+i] = v
	}
	c.cpu.LR = platform.CallSentinel
	c.cpu.PC = entry
}

func (c *coreAdapter) CallDone(nargs int) (uint32, bool) {
	if c.cpu.PC != platform.CallSentinel&^3 {
		return 0, false
	}
	return c.cpu.R[3], true
}

func (c *coreAdapter) SaveCPUState() platform.CPUState {
	s := c.cpu.SaveState()
	return &s
}

func (c *coreAdapter) RestoreCPUState(st platform.CPUState) error {
	s, ok := st.(*State)
	if !ok {
		return fmt.Errorf("risc: restoring %T onto a RISC core", st)
	}
	c.cpu.RestoreState(s)
	return nil
}

// DisasmAt renders the instruction at pc (best effort; raw word on failure).
func (c *coreAdapter) DisasmAt(pc uint32) string {
	bs := c.mem.PeekBytes(pc, 4)
	if bs == nil {
		return "<unmapped>"
	}
	w := binary.BigEndian.Uint32(bs)
	in, err := Decode(w)
	if err != nil {
		return fmt.Sprintf(".long 0x%08x", w)
	}
	return in.String()
}

func (c *coreAdapter) Clock() *isa.CycleCounter { return &c.cpu.Clk }
func (c *coreAdapter) Debug() *isa.DebugUnit    { return &c.cpu.Debug }

func (c *coreAdapter) SetTrace(fn func(pc uint32, cost uint8)) { c.cpu.Trace = fn }

func (c *coreAdapter) SetAccessTrace(fn func(addr, size uint32)) {
	c.cpu.Access = fn
	c.mem.SetRawObserver(fn)
}

func (c *coreAdapter) PendingDataBreak() (int, isa.DataAccess, uint32, bool) {
	return c.cpu.PendingDataBreak()
}
