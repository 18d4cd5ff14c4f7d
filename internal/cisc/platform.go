package cisc

import (
	"fmt"

	"kfi/internal/isa"
	"kfi/internal/mem"
	"kfi/internal/platform"
)

// This file is the P4-class platform's single registration point: the
// Descriptor (crash semantics, latency stages, instruction boundaries, the
// snapshot CPU codec) and the machine-facing Core adapter. Everything the
// rest of the laboratory needs to know about the CISC target resolves
// through the platform registry from here.

// Latency-model stages (the paper's Figure 3) for the P4 exception path.
const (
	stageHardware = 1100
	stageSoftware = 320
)

type descriptor struct{}

func (descriptor) ID() isa.Platform  { return isa.CISC }
func (descriptor) Aliases() []string { return []string{"cisc"} }

func (descriptor) NewCore(m *mem.Memory) platform.Core {
	return &coreAdapter{cpu: NewCPU(m), mem: m}
}

// NewEngine builds the block translator (translate.go) bound to a core this
// descriptor built.
func (descriptor) NewEngine(c platform.Core) platform.ExecEngine {
	return newTranslator(c.(*coreAdapter).cpu)
}

// BusWindow: the P4 has no unclaimed processor-local bus window — every wild
// kernel pointer page-faults (paper §5.2).
func (descriptor) BusWindow() (uint32, uint32, bool) { return 0, 0, false }

// KernelStackSize is the P4 kernel's 4 KiB per-process kernel stack.
func (descriptor) KernelStackSize() uint32 { return 0x1000 }

func (descriptor) CrashStages() (uint64, uint64) { return stageHardware, stageSoftware }

func (descriptor) RegisterLabels() (string, string) { return "EIP", "ESP" }

// CrashMessage renders the crash the way the P4 kernel would print it — the
// strings the paper quotes from its crash dumps.
func (descriptor) CrashMessage(cause isa.CrashCause, pc, faultAddr, sp uint32) string {
	switch cause {
	case isa.CauseNULLPointer:
		return fmt.Sprintf("Unable to handle kernel NULL pointer dereference at virtual address %08x", faultAddr)
	case isa.CauseBadPaging:
		return fmt.Sprintf("Unable to handle kernel paging request at virtual address %08x", faultAddr)
	case isa.CauseInvalidInstr:
		return fmt.Sprintf("invalid opcode: 0000 [#1] at EIP %08x", pc)
	case isa.CauseGeneralProtection:
		return fmt.Sprintf("general protection fault: 0000 [#1] at EIP %08x", pc)
	case isa.CauseKernelPanic:
		return "Kernel panic: fatal exception"
	case isa.CauseInvalidTSS:
		return fmt.Sprintf("invalid TSS: 0000 [#1] at EIP %08x", pc)
	case isa.CauseDivideError:
		return fmt.Sprintf("divide error: 0000 [#1] at EIP %08x", pc)
	case isa.CauseBoundsTrap:
		return fmt.Sprintf("bounds: 0000 [#1] at EIP %08x", pc)
	default:
		return fmt.Sprintf("unknown exception at EIP %08x", pc)
	}
}

// InstructionBoundaries walks the variable-length encoding; an undecodable
// byte ends the walk (data embedded in a code region).
func (descriptor) InstructionBoundaries(code []byte, base uint32) []platform.InstrRef {
	var out []platform.InstrRef
	for off := 0; off < len(code); {
		in, err := Decode(code[off:])
		if err != nil {
			break
		}
		out = append(out, platform.InstrRef{Addr: base + uint32(off), Size: in.Len})
		off += int(in.Len)
	}
	return out
}

func init() { platform.Register(descriptor{}) }

// CPUOf returns the concrete CISC CPU behind a platform core (nil when the
// core is not a CISC core) — the escape hatch for tools that inspect
// architectural state directly (kfi-tracediff, lockstep tests).
func CPUOf(c platform.Core) *CPU {
	if a, ok := c.(*coreAdapter); ok {
		return a.cpu
	}
	return nil
}

// coreAdapter adapts cisc.CPU to platform.Core.
type coreAdapter struct {
	cpu *CPU
	mem *mem.Memory
}

var _ platform.Core = (*coreAdapter)(nil)

func (c *coreAdapter) RunUntil(limit uint64) isa.Event { return c.cpu.RunUntil(limit) }
func (c *coreAdapter) Reset()                          { c.cpu.Reset() }
func (c *coreAdapter) PC() uint32                      { return c.cpu.EIP }
func (c *coreAdapter) SetPC(v uint32)                  { c.cpu.EIP = v }
func (c *coreAdapter) SP() uint32                      { return c.cpu.Regs[ESP] }
func (c *coreAdapter) SetSP(v uint32)                  { c.cpu.Regs[ESP] = v }
func (c *coreAdapter) Mode() isa.Mode                  { return c.cpu.Mode }

func (c *coreAdapter) InterruptsEnabled() bool { return c.cpu.Flags&FlagIF != 0 }

// InstallBootState sets the FS per-CPU segment base.
func (c *coreAdapter) InstallBootState(bs platform.BootState) {
	c.cpu.FSBase = bs.FSBase
}

// VetDelivery: the P4 trap path has no architectural preconditions; delivery
// always proceeds (its faults surface from DeliverInterrupt itself).
func (c *coreAdapter) VetDelivery() platform.Delivery { return platform.Delivery{} }

func (c *coreAdapter) DeliverInterrupt(handler, ksp uint32) isa.Event {
	return c.cpu.DeliverInterrupt(handler, ksp)
}

func (c *coreAdapter) SetSyscallResult(v uint32) { c.cpu.Regs[EAX] = v }

func (c *coreAdapter) SyscallArgs() (uint32, uint32, uint32) {
	return c.cpu.Regs[EBX], c.cpu.Regs[ECX], c.cpu.Regs[EDX]
}

// SystemRegisters binds the P4 system-register file to this core.
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

// CISC context: 8 GPRs, EIP, EFLAGS, mode.
func (c *coreAdapter) CtxWords() int { return 11 }

func (c *coreAdapter) SaveContext(addr uint32) {
	for i := 0; i < 8; i++ {
		c.mem.RawWrite(addr+uint32(i)*4, 4, c.cpu.Regs[i])
	}
	c.mem.RawWrite(addr+32, 4, c.cpu.EIP)
	c.mem.RawWrite(addr+36, 4, c.cpu.Flags)
	c.mem.RawWrite(addr+40, 4, uint32(c.cpu.Mode))
}

func (c *coreAdapter) RestoreContext(addr uint32) {
	for i := 0; i < 8; i++ {
		c.cpu.Regs[i] = c.mem.RawRead(addr+uint32(i)*4, 4)
	}
	c.cpu.EIP = c.mem.RawRead(addr+32, 4)
	c.cpu.Flags = c.mem.RawRead(addr+36, 4)
	if isa.Mode(c.mem.RawRead(addr+40, 4)) == isa.UserMode {
		c.cpu.Mode = isa.UserMode
	} else {
		c.cpu.Mode = isa.KernelMode
	}
}

func (c *coreAdapter) InitContext(addr, entry, sp uint32, user bool) {
	for i := 0; i < 8; i++ {
		c.mem.RawWrite(addr+uint32(i)*4, 4, 0)
	}
	c.mem.RawWrite(addr+uint32(ESP)*4, 4, sp)
	c.mem.RawWrite(addr+32, 4, entry)
	c.mem.RawWrite(addr+36, 4, uint32(FlagIF))
	mode := isa.KernelMode
	if user {
		mode = isa.UserMode
	}
	c.mem.RawWrite(addr+40, 4, uint32(mode))
}

// CtxSPOffset: ESP is general register 4.
func (c *coreAdapter) CtxSPOffset() uint32 { return uint32(ESP) * 4 }

// CtxModeUser reads the saved mode word.
func (c *coreAdapter) CtxModeUser(addr uint32) bool {
	return isa.Mode(c.mem.RawRead(addr+40, 4)) == isa.UserMode
}

// SetStackBounds is a no-op: the P4 kernel performs no stack-range checking.
func (c *coreAdapter) SetStackBounds(lo, hi uint32) {}

// StackPointerInBounds always reports true on CISC: there is no wrapper, so
// stack overflows propagate into other exception categories (paper §5.1).
func (c *coreAdapter) StackPointerInBounds() bool { return true }

// CrashDumpPossible: the P4 crash handler dumps via the current stack; a
// corrupted, unmapped ESP defeats it.
func (c *coreAdapter) CrashDumpPossible() bool {
	sp := c.cpu.Regs[ESP]
	return c.mem.Check(sp-64, 64, true, false) == nil
}

// BeginCall pushes the arguments right-to-left plus the sentinel return
// address (the cdecl host-call convention).
func (c *coreAdapter) BeginCall(entry uint32, args []uint32) {
	cpu := c.cpu
	for i := len(args) - 1; i >= 0; i-- {
		cpu.Regs[ESP] -= 4
		c.mem.RawWrite(cpu.Regs[ESP], 4, args[i])
	}
	cpu.Regs[ESP] -= 4
	c.mem.RawWrite(cpu.Regs[ESP], 4, platform.CallSentinel)
	cpu.EIP = entry
}

func (c *coreAdapter) CallDone(nargs int) (uint32, bool) {
	if c.cpu.EIP != platform.CallSentinel {
		return 0, false
	}
	c.cpu.Regs[ESP] += uint32(4 * nargs)
	return c.cpu.Regs[EAX], true
}

func (c *coreAdapter) SaveCPUState() platform.CPUState {
	s := c.cpu.SaveState()
	return &s
}

func (c *coreAdapter) RestoreCPUState(st platform.CPUState) error {
	s, ok := st.(*State)
	if !ok {
		return fmt.Errorf("cisc: restoring %T onto a CISC core", st)
	}
	c.cpu.RestoreState(s)
	return nil
}

// DisasmAt renders the instruction at pc (best effort; raw bytes on failure).
func (c *coreAdapter) DisasmAt(pc uint32) string {
	bs := c.mem.PeekBytes(pc, 9)
	if bs == nil {
		return "<unmapped>"
	}
	in, err := Decode(bs)
	if err != nil {
		return fmt.Sprintf(".byte 0x%02x", bs[0])
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
