package platform_test

// A third, test-only platform: a fixed-16-bit "toy" ISA registered entirely
// from this _test package. It exists to prove the registry's extensibility
// claim: adding an ISA is one isa.RegisterPlatform call plus one
// platform.Register call — no edits to internal/machine, internal/campaign,
// internal/snapshot, or any other consuming layer. toy_campaign_test.go
// boots it and runs real injection campaigns through the unmodified stack.
//
// Encoding: every instruction is two bytes, [opcode][arg], with arg packing
// a register in the high nibble and a register/immediate in the low nibble.
// The core is deliberately minimal — no interrupts (InterruptsEnabled is
// always false, so the machine's timer never delivers), no user mode, and
// hypercall-only syscalls — which is exactly the profile the machine layer
// supports without any platform trap glue.

import (
	"fmt"

	"kfi/internal/isa"
	"kfi/internal/mem"
	"kfi/internal/platform"
)

// Toy platform identity and memory map. The extension ID and crash causes
// live above the built-in ranges.
const (
	toyID = isa.Platform(3)

	toyCodeBase = uint32(0x1000)
	toyDataBase = uint32(0x3000)

	toyCauseIllegal = isa.FirstExtensionCause + iota // undecodable opcode
	toyCauseBadAddr                                  // data or fetch fault
)

// Toy opcodes.
const (
	opHALT = 0x00 // halt (idle forever: the machine reports a hang)
	opLI   = 0x01 // LI rd, imm4:  rd = imm
	opADD  = 0x02 // ADD rd, rs:   rd += rs
	opLD   = 0x03 // LD rd, n:     rd = word at toyDataBase+4n
	opST   = 0x04 // ST rd, n:     word at toyDataBase+4n = rd
	opDEC  = 0x05 // DEC rd:       rd--
	opJNZ  = 0x06 // JNZ rd, n:    if rd != 0, branch back n+1 instructions
	opSYS  = 0x07 // SYS n:        hypercall 0xF000+n, args in r1..r3
	opXOR  = 0x09 // XOR rd, rs:   rd ^= rs
)

const toyInstrCost = 2 // cycles per instruction

func init() {
	isa.RegisterPlatform(toyID, isa.PlatformInfo{
		Name:      "Toy-16 (test)",
		Short:     "toy",
		BigEndian: true,
		Causes: []isa.CrashCause{
			toyCauseIllegal, toyCauseBadAddr,
		},
		InvalidMemory: []isa.CrashCause{toyCauseBadAddr},
		CauseNames: map[isa.CrashCause]string{
			toyCauseIllegal: "Toy Illegal Instruction",
			toyCauseBadAddr: "Toy Bad Address",
		},
	})
	platform.Register(toyDescriptor{})
}

type toyDescriptor struct{}

func (toyDescriptor) ID() isa.Platform  { return toyID }
func (toyDescriptor) Aliases() []string { return []string{"toy16"} }

func (toyDescriptor) NewCore(m *mem.Memory) platform.Core {
	c := &toyCore{mem: m}
	c.Reset()
	return c
}

// NewEngine builds the toy's sole engine: it has no translator, so the
// engine is its reference interpreter loop.
func (toyDescriptor) NewEngine(core platform.Core) platform.ExecEngine {
	return toyEngine{core.(*toyCore)}
}

type toyEngine struct{ c *toyCore }

func (e toyEngine) RunUntil(limit uint64) isa.Event { return e.c.RunUntil(limit) }
func (e toyEngine) Stats() platform.EngineStats     { return platform.EngineStats{} }
func (e toyEngine) ResetStats()                     {}

func (toyDescriptor) BusWindow() (uint32, uint32, bool) { return 0, 0, false }
func (toyDescriptor) KernelStackSize() uint32           { return 0x400 }
func (toyDescriptor) CrashStages() (uint64, uint64)     { return 100, 50 }
func (toyDescriptor) RegisterLabels() (string, string)  { return "PC ", "SP " }

func (toyDescriptor) CrashMessage(cause isa.CrashCause, pc, faultAddr, _ uint32) string {
	return fmt.Sprintf("toy: %v at pc %04x addr %04x", cause, pc, faultAddr)
}

func (toyDescriptor) InstructionBoundaries(code []byte, base uint32) []platform.InstrRef {
	var out []platform.InstrRef
	for off := uint32(0); off+2 <= uint32(len(code)); off += 2 {
		out = append(out, platform.InstrRef{Addr: base + off, Size: 2})
	}
	return out
}

// toyCore implements platform.Core for the toy ISA.
type toyCore struct {
	mem *mem.Memory
	r   [8]uint32
	pc  uint32
	ctl uint32 // the single injectable "system register"

	debug  isa.DebugUnit
	clk    isa.CycleCounter
	trace  func(pc uint32, cost uint8)
	access func(addr, size uint32)

	dbSlot   int
	dbAccess isa.DataAccess
	dbAddr   uint32
}

var _ platform.Core = (*toyCore)(nil)

func (c *toyCore) Reset() {
	c.r = [8]uint32{}
	c.pc = 0
	c.ctl = 0
	c.debug.ClearAll()
	c.dbSlot = -1
}

func (c *toyCore) exception(cause isa.CrashCause, at, addr uint32) isa.Event {
	c.pc = at
	return isa.Event{Kind: isa.EvException, Cause: cause, FaultAddr: addr}
}

// Step mirrors the built-in cores' protocol: an armed instruction breakpoint
// reports before execution; data breakpoints report after the instruction
// completes; the clock advances and the trace hook fires per retired
// instruction.
func (c *toyCore) Step() isa.Event {
	if c.debug.Armed(isa.BreakInstruction) {
		if s := c.debug.HitInstruction(c.pc); s >= 0 {
			return isa.Event{Kind: isa.EvInstrBreak, Slot: s, BreakAddr: c.pc}
		}
	}
	c.dbSlot = -1

	pc := c.pc
	bs, f := c.mem.Fetch(pc, 2, false)
	if f != nil {
		return c.exception(toyCauseBadAddr, pc, pc)
	}
	op, arg := bs[0], bs[1]
	rd, n := (arg>>4)&7, arg&0x0F
	c.pc = pc + 2

	var ev isa.Event
	switch op {
	case opHALT:
		ev = isa.Event{Kind: isa.EvHalt}
	case opLI:
		c.r[rd] = uint32(n)
	case opADD:
		c.r[rd] += c.r[n&7]
	case opXOR:
		c.r[rd] ^= c.r[n&7]
	case opDEC:
		c.r[rd]--
	case opLD:
		addr := toyDataBase + 4*uint32(n)
		if f := c.mem.Check(addr, 4, false, false); f != nil {
			return c.exception(toyCauseBadAddr, pc, addr)
		}
		v, _ := c.mem.Read(addr, 4, false)
		c.r[rd] = v
		c.watchData(addr, isa.AccessRead)
	case opST:
		addr := toyDataBase + 4*uint32(n)
		if f := c.mem.Write(addr, 4, c.r[rd], false); f != nil {
			return c.exception(toyCauseBadAddr, pc, addr)
		}
		c.watchData(addr, isa.AccessWrite)
	case opJNZ:
		if c.r[rd] != 0 {
			c.pc -= 2 * (uint32(n) + 1)
		}
	case opSYS:
		ev = isa.Event{Kind: isa.EvSyscall, SysNo: 0xF000 + uint32(n)}
	default:
		return c.exception(toyCauseIllegal, pc, pc)
	}

	c.clk.Advance(toyInstrCost)
	if c.trace != nil {
		c.trace(pc, toyInstrCost)
	}
	if ev.Kind != isa.EvNone {
		return ev
	}
	if c.dbSlot >= 0 {
		return isa.Event{Kind: isa.EvDataBreak, Slot: c.dbSlot, Access: c.dbAccess, BreakAddr: c.dbAddr}
	}
	return isa.Event{}
}

func (c *toyCore) watchData(addr uint32, access isa.DataAccess) {
	if c.access != nil {
		c.access(addr, 4)
	}
	if c.dbSlot < 0 && c.debug.Armed(isa.BreakData) {
		if s := c.debug.HitData(addr, 4); s >= 0 {
			c.dbSlot, c.dbAccess, c.dbAddr = s, access, addr
		}
	}
}

func (c *toyCore) RunUntil(limit uint64) isa.Event {
	for c.clk.Cycles() < limit {
		if ev := c.Step(); ev.Kind != isa.EvNone {
			return ev
		}
	}
	return isa.Event{}
}

func (c *toyCore) PC() uint32              { return c.pc }
func (c *toyCore) SetPC(v uint32)          { c.pc = v }
func (c *toyCore) SP() uint32              { return c.r[7] }
func (c *toyCore) SetSP(v uint32)          { c.r[7] = v }
func (c *toyCore) Mode() isa.Mode          { return isa.KernelMode }
func (c *toyCore) InterruptsEnabled() bool { return false }

func (c *toyCore) InstallBootState(platform.BootState) {}
func (c *toyCore) VetDelivery() platform.Delivery      { return platform.Delivery{} }

func (c *toyCore) DeliverInterrupt(handler, ksp uint32) isa.Event {
	// Unreachable: interrupts are permanently disabled.
	return isa.Event{Kind: isa.EvException, Cause: toyCauseIllegal}
}

func (c *toyCore) SetSyscallResult(v uint32) { c.r[1] = v }

func (c *toyCore) SyscallArgs() (uint32, uint32, uint32) {
	return c.r[1], c.r[2], c.r[3]
}

func (c *toyCore) SystemRegisters() []platform.SysReg {
	return []platform.SysReg{{
		Name: "CTL", Bits: 32,
		Get: func() uint32 { return c.ctl },
		Set: func(v uint32) { c.ctl = v },
	}}
}

// Context primitives: 8 GPRs + PC. Unused by the mini-campaigns (the toy
// kernel never context-switches) but implemented for completeness.
func (c *toyCore) CtxWords() int { return 9 }

func (c *toyCore) SaveContext(addr uint32) {
	for i, v := range c.r {
		c.mem.RawWrite(addr+uint32(i)*4, 4, v)
	}
	c.mem.RawWrite(addr+32, 4, c.pc)
}

func (c *toyCore) RestoreContext(addr uint32) {
	for i := range c.r {
		c.r[i] = c.mem.RawRead(addr+uint32(i)*4, 4)
	}
	c.pc = c.mem.RawRead(addr+32, 4)
}

func (c *toyCore) InitContext(addr, entry, sp uint32, user bool) {
	for i := 0; i < 9; i++ {
		c.mem.RawWrite(addr+uint32(i)*4, 4, 0)
	}
	c.mem.RawWrite(addr+28, 4, sp) // r7
	c.mem.RawWrite(addr+32, 4, entry)
}

func (c *toyCore) CtxSPOffset() uint32          { return 28 }
func (c *toyCore) CtxModeUser(addr uint32) bool { return false }

func (c *toyCore) SetStackBounds(lo, hi uint32) {}
func (c *toyCore) StackPointerInBounds() bool   { return true }
func (c *toyCore) CrashDumpPossible() bool      { return true }

func (c *toyCore) BeginCall(entry uint32, args []uint32) {
	for i, v := range args {
		c.r[1+i] = v
	}
	c.pc = entry
}

func (c *toyCore) CallDone(nargs int) (uint32, bool) {
	if c.pc != platform.CallSentinel {
		return 0, false
	}
	return c.r[1], true
}

func (c *toyCore) SaveCPUState() platform.CPUState {
	return &toyState{
		R: c.r, PC: c.pc, CTL: c.ctl,
		Debug: c.debug.Slots(), Clock: c.clk.State(),
		PendingSlot: c.dbSlot, PendingAccess: c.dbAccess, PendingAddr: c.dbAddr,
	}
}

func (c *toyCore) RestoreCPUState(st platform.CPUState) error {
	s, ok := st.(*toyState)
	if !ok {
		return fmt.Errorf("toy: restoring %T onto a toy core", st)
	}
	c.r, c.pc, c.ctl = s.R, s.PC, s.CTL
	c.debug.SetSlots(s.Debug)
	c.clk.SetState(s.Clock)
	c.dbSlot, c.dbAccess, c.dbAddr = s.PendingSlot, s.PendingAccess, s.PendingAddr
	return nil
}

func (c *toyCore) DisasmAt(pc uint32) string {
	bs := c.mem.PeekBytes(pc, 2)
	if bs == nil {
		return "<unmapped>"
	}
	return fmt.Sprintf(".toy 0x%02x%02x", bs[0], bs[1])
}

func (c *toyCore) Clock() *isa.CycleCounter { return &c.clk }
func (c *toyCore) Debug() *isa.DebugUnit    { return &c.debug }

func (c *toyCore) SetTrace(fn func(pc uint32, cost uint8)) { c.trace = fn }

func (c *toyCore) SetAccessTrace(fn func(addr, size uint32)) {
	c.access = fn
	c.mem.SetRawObserver(fn)
}

func (c *toyCore) PendingDataBreak() (int, isa.DataAccess, uint32, bool) {
	if c.dbSlot < 0 {
		return 0, 0, 0, false
	}
	slot, access, addr := c.dbSlot, c.dbAccess, c.dbAddr
	c.dbSlot = -1
	return slot, access, addr, true
}

// toyState is the toy CPU checkpoint.
type toyState struct {
	R   [8]uint32
	PC  uint32
	CTL uint32

	Debug         [isa.DebugSlots]isa.Breakpoint
	Clock         isa.ClockState
	PendingSlot   int
	PendingAccess isa.DataAccess
	PendingAddr   uint32
}
