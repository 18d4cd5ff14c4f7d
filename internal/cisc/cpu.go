package cisc

import (
	"kfi/internal/isa"
	"kfi/internal/mem"
)

// EFLAGS bit positions (x86 layout).
const (
	FlagCF = 1 << 0
	FlagZF = 1 << 6
	FlagSF = 1 << 7
	FlagIF = 1 << 9
	FlagOF = 1 << 11
	FlagNT = 1 << 14
)

// CR0 bit positions.
const (
	CR0PE = 1 << 0  // protected mode enable; clearing it is fatal
	CR0WP = 1 << 16 // write protect (informational)
	CR0PG = 1 << 31 // paging enable (informational)
)

// Segment selector values accepted by the FS/GS segment machinery. Loading or
// using any other selector raises a general protection fault, mirroring the
// paper's observation that FS/GS corruption manifests as #GP with very long
// latency.
const (
	SelFS = 0x30
	SelGS = 0x38
	// SelTR is the only valid task-register selector.
	SelTR = 0x28
)

// CPU is the P4-class processor core. Construct with NewCPU.
type CPU struct {
	Regs  [numRegs]uint32
	EIP   uint32
	Flags uint32

	// System registers.
	CR0, CR2, CR3            uint32
	FS, GS                   uint32
	TR                       uint32
	GDTR, IDTR, LDTR         uint32
	DR                       [4]uint32 // mirrors the debug unit addresses for injection
	DR6, DR7                 uint32
	SysenterEIP, SysenterESP uint32

	Mode   isa.Mode
	FSBase uint32 // linear base of the FS per-CPU segment

	Mem   *mem.Memory
	Debug isa.DebugUnit
	Clk   isa.CycleCounter

	// Trace, when non-nil, is called once per retired instruction with the
	// pre-execution PC and the instruction cost (used by the profiler).
	Trace func(pc uint32, cost uint8)
	// Access, when non-nil, is called for every data load and store that
	// completes, interrupt-frame pushes included, with the access address
	// and size (used by the golden-run first-touch trace).
	Access func(addr, size uint32)

	// pending data-breakpoint trap for the current instruction.
	dbSlot   int
	dbAccess isa.DataAccess
	dbAddr   uint32
}

// NewCPU creates a CPU bound to the given memory, in kernel mode with
// interrupts disabled and protected mode enabled.
func NewCPU(m *mem.Memory) *CPU {
	c := &CPU{Mem: m}
	c.Reset()
	return c
}

// Reset restores architectural boot state. Memory is not touched.
func (c *CPU) Reset() {
	c.Regs = [numRegs]uint32{}
	c.EIP = 0
	c.Flags = 0
	c.CR0 = CR0PE | CR0PG
	c.CR2, c.CR3 = 0, 0
	c.FS, c.GS, c.TR = SelFS, SelGS, SelTR
	c.GDTR, c.IDTR, c.LDTR = 0, 0, 0
	c.DR = [4]uint32{}
	c.DR6, c.DR7 = 0, 0
	c.SysenterEIP, c.SysenterESP = 0, 0
	c.Mode = isa.KernelMode
	c.Debug.ClearAll()
	c.dbSlot = -1
}

func (c *CPU) user() bool { return c.Mode == isa.UserMode }

func faultCause(f *mem.Fault) (isa.CrashCause, uint32) {
	switch f.Kind {
	case mem.FaultNull:
		return isa.CauseNULLPointer, f.Addr
	case mem.FaultUnmapped:
		return isa.CauseBadPaging, f.Addr
	default: // protection, bus → segment machinery
		return isa.CauseGeneralProtection, f.Addr
	}
}

func (c *CPU) exception(cause isa.CrashCause, addr uint32) isa.Event {
	if cause == isa.CauseNULLPointer || cause == isa.CauseBadPaging {
		c.CR2 = addr
	}
	return isa.Event{Kind: isa.EvException, Cause: cause, FaultAddr: addr}
}

func (c *CPU) memFault(f *mem.Fault) isa.Event {
	cause, addr := faultCause(f)
	return c.exception(cause, addr)
}

// load performs a checked data read, recording data-breakpoint hits.
func (c *CPU) load(addr, size uint32) (uint32, *mem.Fault) {
	v, f := c.Mem.Read(addr, size, c.user())
	if f == nil && c.Access != nil {
		c.Access(addr, size)
	}
	if f == nil && c.dbSlot < 0 && c.Debug.Armed(isa.BreakData) {
		if s := c.Debug.HitData(addr, size); s >= 0 {
			c.dbSlot, c.dbAccess, c.dbAddr = s, isa.AccessRead, addr
		}
	}
	return v, f
}

// store performs a checked data write, recording data-breakpoint hits.
func (c *CPU) store(addr, size, val uint32) *mem.Fault {
	f := c.Mem.Write(addr, size, val, c.user())
	if f == nil && c.Access != nil {
		c.Access(addr, size)
	}
	if f == nil && c.dbSlot < 0 && c.Debug.Armed(isa.BreakData) {
		if s := c.Debug.HitData(addr, size); s >= 0 {
			c.dbSlot, c.dbAccess, c.dbAddr = s, isa.AccessWrite, addr
		}
	}
	return f
}

func (c *CPU) push(val uint32) *mem.Fault {
	c.Regs[ESP] -= 4
	return c.store(c.Regs[ESP], 4, val)
}

func (c *CPU) pop() (uint32, *mem.Fault) {
	v, f := c.load(c.Regs[ESP], 4)
	if f == nil {
		c.Regs[ESP] += 4
	}
	return v, f
}

// setFlagsLogic sets ZF/SF from res and clears CF/OF.
func (c *CPU) setFlagsLogic(res uint32) {
	c.Flags &^= FlagCF | FlagZF | FlagSF | FlagOF
	if res == 0 {
		c.Flags |= FlagZF
	}
	if res&0x80000000 != 0 {
		c.Flags |= FlagSF
	}
}

func (c *CPU) setFlagsAdd(a, b, res uint32) {
	c.setFlagsLogic(res)
	if res < a {
		c.Flags |= FlagCF
	}
	if (a^res)&(b^res)&0x80000000 != 0 {
		c.Flags |= FlagOF
	}
}

func (c *CPU) setFlagsSub(a, b, res uint32) {
	c.setFlagsLogic(res)
	if a < b {
		c.Flags |= FlagCF
	}
	if (a^b)&(a^res)&0x80000000 != 0 {
		c.Flags |= FlagOF
	}
}

// Cond evaluates an x86 condition code against the current flags.
func (c *CPU) Cond(cc uint8) bool {
	cf := c.Flags&FlagCF != 0
	zf := c.Flags&FlagZF != 0
	sf := c.Flags&FlagSF != 0
	of := c.Flags&FlagOF != 0
	switch cc {
	case CcO:
		return of
	case CcNO:
		return !of
	case CcB:
		return cf
	case CcAE:
		return !cf
	case CcE:
		return zf
	case CcNE:
		return !zf
	case CcBE:
		return cf || zf
	case CcA:
		return !cf && !zf
	case CcS:
		return sf
	case CcNS:
		return !sf
	case CcL:
		return sf != of
	case CcGE:
		return sf == of
	case CcLE:
		return zf || sf != of
	case CcG:
		return !zf && sf == of
	default:
		return false
	}
}

// effAddr computes a [base+disp] effective address.
func (c *CPU) effAddr(in *Inst) uint32 {
	return c.Regs[in.R2] + uint32(in.Disp)
}

// Step executes one instruction (or reports a pending breakpoint/event).
// It advances the cycle counter by the instruction cost. It is the
// reference interpreter: it fetches and decodes every instruction afresh.
// The translator's single steps run the same three phases, decoding through
// its per-page slots instead.
func (c *CPU) Step() isa.Event {
	if s := c.instrBreak(); s >= 0 {
		return isa.Event{Kind: isa.EvInstrBreak, Slot: s, BreakAddr: c.EIP}
	}
	return c.fetchExec()
}

// instrBreak returns the slot of an instruction breakpoint armed at EIP,
// or -1 after clearing the pending data break for the instruction about to
// run.
func (c *CPU) instrBreak() int {
	if c.Debug.Armed(isa.BreakInstruction) {
		if s := c.Debug.HitInstruction(c.EIP); s >= 0 {
			return s
		}
	}
	c.dbSlot = -1
	return -1
}

// fetchExec is the reference fetch+decode sequence — one byte for the
// opcode, then the full instruction — followed by retire. A memory fault or
// invalid opcode is reported before anything executes.
func (c *CPU) fetchExec() isa.Event {
	first, f := c.Mem.Fetch(c.EIP, 1, c.user())
	if f != nil {
		return c.memFault(f)
	}
	e := &opTable[first[0]]
	if e.op == OpInvalid {
		return c.exception(isa.CauseInvalidInstr, c.EIP)
	}
	raw, f := c.Mem.Fetch(c.EIP, uint32(e.format.Length()), c.user())
	if f != nil {
		return c.memFault(f)
	}
	dec, err := Decode(raw)
	if err != nil {
		return c.exception(isa.CauseInvalidInstr, c.EIP)
	}
	return c.retire(&dec, e.cost)
}

// retire executes a decoded instruction at EIP and retires it: clock,
// trace hook, then any event or data breakpoint it raised.
func (c *CPU) retire(in *Inst, cost uint8) isa.Event {
	pc := c.EIP
	ev := c.exec(in)
	if ev.Kind == isa.EvException {
		return ev
	}
	c.Clk.Advance(uint64(cost))
	if c.Trace != nil {
		c.Trace(pc, cost)
	}
	if ev.Kind != isa.EvNone {
		return ev
	}
	if c.dbSlot >= 0 {
		return isa.Event{Kind: isa.EvDataBreak, Slot: c.dbSlot, Access: c.dbAccess, BreakAddr: c.dbAddr}
	}
	return isa.Event{}
}

// RunUntil steps until the clock reaches limit or an instruction produces a
// non-EvNone event, which it returns (EvNone means the limit was reached).
// Keeping this loop inside the package lets the run harness amortize its
// per-instruction bookkeeping over whole quiet stretches.
func (c *CPU) RunUntil(limit uint64) isa.Event {
	for c.Clk.Cycles() < limit {
		if ev := c.Step(); ev.Kind != isa.EvNone {
			return ev
		}
	}
	return isa.Event{}
}

// exec executes a decoded instruction. On isa.EvNone and non-exception events it
// advances EIP past the instruction (control transfers set EIP themselves).
func (c *CPU) exec(in *Inst) isa.Event {
	next := c.EIP + uint32(in.Len)

	// srcVal resolves the second operand for ALU ops: register for FRR,
	// immediate otherwise.
	srcVal := func() uint32 {
		if in.Format == FRR {
			return c.Regs[in.R2]
		}
		return uint32(in.Imm)
	}

	switch in.Op {
	case OpNOP:
	case OpMOV:
		c.Regs[in.R1] = srcVal()
	case OpADD:
		a, b := c.Regs[in.R1], srcVal()
		c.Regs[in.R1] = a + b
		c.setFlagsAdd(a, b, a+b)
	case OpSUB:
		a, b := c.Regs[in.R1], srcVal()
		c.Regs[in.R1] = a - b
		c.setFlagsSub(a, b, a-b)
	case OpAND:
		c.Regs[in.R1] &= srcVal()
		c.setFlagsLogic(c.Regs[in.R1])
	case OpOR:
		c.Regs[in.R1] |= srcVal()
		c.setFlagsLogic(c.Regs[in.R1])
	case OpXOR:
		c.Regs[in.R1] ^= srcVal()
		c.setFlagsLogic(c.Regs[in.R1])
	case OpCMP:
		a, b := c.Regs[in.R1], srcVal()
		c.setFlagsSub(a, b, a-b)
	case OpTEST:
		c.setFlagsLogic(c.Regs[in.R1] & srcVal())
	case OpIMUL:
		c.Regs[in.R1] = uint32(int32(c.Regs[in.R1]) * int32(srcVal()))
		c.setFlagsLogic(c.Regs[in.R1])
	case OpIDIV, OpMOD:
		a, b := int32(c.Regs[in.R1]), int32(srcVal())
		if b == 0 || (a == -1<<31 && b == -1) {
			return c.exception(isa.CauseDivideError, c.EIP)
		}
		if in.Op == OpIDIV {
			c.Regs[in.R1] = uint32(a / b)
		} else {
			c.Regs[in.R1] = uint32(a % b)
		}
	case OpXCHG:
		c.Regs[in.R1], c.Regs[in.R2] = c.Regs[in.R2], c.Regs[in.R1]
	case OpXCHGA:
		c.Regs[EAX], c.Regs[in.R1] = c.Regs[in.R1], c.Regs[EAX]
	case OpSHL:
		c.Regs[in.R1] <<= srcVal() & 31
		c.setFlagsLogic(c.Regs[in.R1])
	case OpSHR:
		c.Regs[in.R1] >>= srcVal() & 31
		c.setFlagsLogic(c.Regs[in.R1])
	case OpSAR:
		c.Regs[in.R1] = uint32(int32(c.Regs[in.R1]) >> (srcVal() & 31))
		c.setFlagsLogic(c.Regs[in.R1])
	case OpNEG:
		c.Regs[in.R1] = -c.Regs[in.R1]
		c.setFlagsLogic(c.Regs[in.R1])
	case OpNOT:
		c.Regs[in.R1] = ^c.Regs[in.R1]
	case OpINC:
		c.Regs[in.R1]++
		c.flagsIncDec(c.Regs[in.R1], true)
	case OpDEC:
		c.Regs[in.R1]--
		c.flagsIncDec(c.Regs[in.R1], false)
	case OpMOVZX8:
		c.Regs[in.R1] = c.Regs[in.R2] & 0xFF
	case OpMOVSX8:
		c.Regs[in.R1] = uint32(int32(int8(c.Regs[in.R2])))
	case OpMOVZX16:
		c.Regs[in.R1] = c.Regs[in.R2] & 0xFFFF
	case OpMOVSX16:
		c.Regs[in.R1] = uint32(int32(int16(c.Regs[in.R2])))
	case OpSETCC:
		if c.Cond(uint8(in.Imm) & 0xF) {
			c.Regs[in.R1] = 1
		} else {
			c.Regs[in.R1] = 0
		}

	// Loads.
	case OpLD32, OpLD16ZX, OpLD16SX, OpLD8ZX, OpLD8SX:
		size := uint32(4)
		switch in.Op {
		case OpLD16ZX, OpLD16SX:
			size = 2
		case OpLD8ZX, OpLD8SX:
			size = 1
		}
		v, f := c.load(c.effAddr(in), size)
		if f != nil {
			return c.memFault(f)
		}
		switch in.Op {
		case OpLD16SX:
			v = uint32(int32(int16(v)))
		case OpLD8SX:
			v = uint32(int32(int8(v)))
		}
		c.Regs[in.R1] = v
	case OpLD32IDX:
		addr := c.Regs[in.R2] + c.Regs[in.Idx]<<in.Scale + uint32(in.Disp)
		v, f := c.load(addr, 4)
		if f != nil {
			return c.memFault(f)
		}
		c.Regs[in.R1] = v
	case OpLDABS:
		v, f := c.load(in.Abs, 4)
		if f != nil {
			return c.memFault(f)
		}
		c.Regs[in.R1] = v
	case OpLEA:
		c.Regs[in.R1] = c.effAddr(in)
	case OpLEAIDX:
		c.Regs[in.R1] = c.Regs[in.R2] + c.Regs[in.Idx]<<in.Scale + uint32(in.Disp)

	// Stores.
	case OpST32, OpST16, OpST8:
		size := uint32(4)
		switch in.Op {
		case OpST16:
			size = 2
		case OpST8:
			size = 1
		}
		if f := c.store(c.effAddr(in), size, c.Regs[in.R1]); f != nil {
			return c.memFault(f)
		}
	case OpST32IDX:
		addr := c.Regs[in.R2] + c.Regs[in.Idx]<<in.Scale + uint32(in.Disp)
		if f := c.store(addr, 4, c.Regs[in.R1]); f != nil {
			return c.memFault(f)
		}
	case OpSTABS:
		if f := c.store(in.Abs, 4, c.Regs[in.R1]); f != nil {
			return c.memFault(f)
		}
	case OpMOVMI8:
		if f := c.store(c.effAddr(in), 4, uint32(in.Imm)); f != nil {
			return c.memFault(f)
		}

	// Memory ALU.
	case OpCMPM, OpADDM:
		v, f := c.load(c.effAddr(in), 4)
		if f != nil {
			return c.memFault(f)
		}
		a := c.Regs[in.R1]
		if in.Op == OpCMPM {
			c.setFlagsSub(a, v, a-v)
		} else {
			c.Regs[in.R1] = a + v
			c.setFlagsAdd(a, v, a+v)
		}
	case OpADDMS, OpSUBMS, OpANDMS, OpORMS, OpXORMS, OpINCM, OpDECM:
		addr := c.effAddr(in)
		v, f := c.load(addr, 4)
		if f != nil {
			return c.memFault(f)
		}
		r := c.Regs[in.R1]
		var res uint32
		switch in.Op {
		case OpADDMS:
			res = v + r
			c.setFlagsAdd(v, r, res)
		case OpSUBMS:
			res = v - r
			c.setFlagsSub(v, r, res)
		case OpANDMS:
			res = v & r
			c.setFlagsLogic(res)
		case OpORMS:
			res = v | r
			c.setFlagsLogic(res)
		case OpXORMS:
			res = v ^ r
			c.setFlagsLogic(res)
		case OpINCM:
			res = v + 1
			c.flagsIncDec(res, true)
		case OpDECM:
			res = v - 1
			c.flagsIncDec(res, false)
		}
		if f := c.store(addr, 4, res); f != nil {
			return c.memFault(f)
		}
	case OpCMPLABS:
		v, f := c.load(in.Abs, 4)
		if f != nil {
			return c.memFault(f)
		}
		c.setFlagsSub(v, uint32(in.Imm), v-uint32(in.Imm))

	// Stack.
	case OpPUSH:
		if f := c.push(c.Regs[in.R1]); f != nil {
			return c.memFault(f)
		}
	case OpPUSHI:
		if f := c.push(uint32(in.Imm)); f != nil {
			return c.memFault(f)
		}
	case OpPOP:
		v, f := c.pop()
		if f != nil {
			return c.memFault(f)
		}
		c.Regs[in.R1] = v
	case OpLEAVE:
		c.Regs[ESP] = c.Regs[EBP]
		v, f := c.pop()
		if f != nil {
			return c.memFault(f)
		}
		c.Regs[EBP] = v

	// Control flow.
	case OpJMP:
		c.EIP = next + uint32(in.Imm)
		return isa.Event{}
	case OpJMPR:
		c.EIP = c.Regs[in.R1]
		return isa.Event{}
	case OpJCC:
		if c.Cond(in.Cc) {
			c.EIP = next + uint32(in.Imm)
		} else {
			c.EIP = next
		}
		return isa.Event{}
	case OpCALL:
		if f := c.push(next); f != nil {
			return c.memFault(f)
		}
		c.EIP = next + uint32(in.Imm)
		return isa.Event{}
	case OpCALLR:
		if f := c.push(next); f != nil {
			return c.memFault(f)
		}
		c.EIP = c.Regs[in.R1]
		return isa.Event{}
	case OpRET:
		v, f := c.pop()
		if f != nil {
			return c.memFault(f)
		}
		c.EIP = v
		return isa.Event{}
	case OpBOUND:
		base := c.effAddr(in)
		lo, f := c.load(base, 4)
		if f != nil {
			return c.memFault(f)
		}
		hi, f := c.load(base+4, 4)
		if f != nil {
			return c.memFault(f)
		}
		v := int32(c.Regs[in.R1])
		if v < int32(lo) || v > int32(hi) {
			return c.exception(isa.CauseBoundsTrap, c.EIP)
		}

	// Flags / privileged.
	case OpPUSHF:
		if f := c.push(c.Flags); f != nil {
			return c.memFault(f)
		}
	case OpPOPF:
		v, f := c.pop()
		if f != nil {
			return c.memFault(f)
		}
		if c.user() {
			// User mode cannot change system flags.
			const sys = uint32(FlagIF | FlagNT)
			v = (v &^ sys) | (c.Flags & sys)
		}
		c.Flags = v
	case OpCLI:
		if c.user() {
			return c.exception(isa.CauseGeneralProtection, c.EIP)
		}
		c.Flags &^= FlagIF
	case OpSTI:
		if c.user() {
			return c.exception(isa.CauseGeneralProtection, c.EIP)
		}
		c.Flags |= FlagIF
	case OpHLT:
		if c.user() {
			return c.exception(isa.CauseGeneralProtection, c.EIP)
		}
		c.EIP = next
		return isa.Event{Kind: isa.EvHalt}
	case OpIRET:
		if c.user() {
			return c.exception(isa.CauseGeneralProtection, c.EIP)
		}
		if c.Flags&FlagNT != 0 {
			// Nested-task return to an invalid back-linked TSS.
			return c.exception(isa.CauseInvalidTSS, c.EIP)
		}
		if c.CR0&CR0PE == 0 {
			return c.exception(isa.CauseGeneralProtection, c.EIP)
		}
		eip, f := c.pop()
		if f != nil {
			return c.memFault(f)
		}
		modeWord, f := c.pop()
		if f != nil {
			return c.memFault(f)
		}
		sp, f := c.pop()
		if f != nil {
			return c.memFault(f)
		}
		flags, f := c.pop()
		if f != nil {
			return c.memFault(f)
		}
		c.EIP = eip
		c.Flags = flags
		c.Regs[ESP] = sp
		if isa.Mode(modeWord) == isa.UserMode {
			c.Mode = isa.UserMode
		} else {
			c.Mode = isa.KernelMode
		}
		return isa.Event{}
	case OpCTXSW:
		if c.user() {
			return c.exception(isa.CauseGeneralProtection, c.EIP)
		}
		c.EIP = next
		return isa.Event{Kind: isa.EvCtxSw, Prev: c.Regs[in.R1], Next: c.Regs[in.R2]}
	case OpUD2:
		return c.exception(isa.CauseInvalidInstr, c.EIP)
	case OpINT:
		n := uint32(in.Imm) & 0xFF
		if n != 0x80 {
			return c.exception(isa.CauseGeneralProtection, c.EIP)
		}
		if c.CR0&CR0PE == 0 {
			return c.exception(isa.CauseGeneralProtection, c.EIP)
		}
		c.EIP = next
		return isa.Event{Kind: isa.EvSyscall, SysNo: c.Regs[EAX]}

	// System registers.
	case OpMOVCR:
		if c.user() {
			return c.exception(isa.CauseGeneralProtection, c.EIP)
		}
		switch in.R1 {
		case 0:
			c.CR0 = c.Regs[in.R2]
		case 2:
			c.CR2 = c.Regs[in.R2]
		case 3:
			c.CR3 = c.Regs[in.R2]
		}
	case OpMOVRC:
		if c.user() {
			return c.exception(isa.CauseGeneralProtection, c.EIP)
		}
		switch in.R2 {
		case 0:
			c.Regs[in.R1] = c.CR0
		case 2:
			c.Regs[in.R1] = c.CR2
		case 3:
			c.Regs[in.R1] = c.CR3
		default:
			c.Regs[in.R1] = 0
		}
	case OpMOVDR:
		if c.user() {
			return c.exception(isa.CauseGeneralProtection, c.EIP)
		}
		c.DR[in.R1&3] = c.Regs[in.R2]
	case OpMOVRD:
		if c.user() {
			return c.exception(isa.CauseGeneralProtection, c.EIP)
		}
		c.Regs[in.R1] = c.DR[in.R2&3]
	case OpMOVSEG:
		if c.user() {
			return c.exception(isa.CauseGeneralProtection, c.EIP)
		}
		v := c.Regs[in.R2]
		if in.R1 == 0 {
			if v != SelFS {
				return c.exception(isa.CauseGeneralProtection, c.EIP)
			}
			c.FS = v
		} else {
			if v != SelGS {
				return c.exception(isa.CauseGeneralProtection, c.EIP)
			}
			c.GS = v
		}
	case OpMOVRSEG:
		if in.R2 == 0 {
			c.Regs[in.R1] = c.FS
		} else {
			c.Regs[in.R1] = c.GS
		}
	case OpLOADFS:
		if c.user() {
			return c.exception(isa.CauseGeneralProtection, c.EIP)
		}
		if c.FS != SelFS {
			// A corrupted FS selector surfaces only when the segment is
			// actually used — hence the >1G-cycle latencies in Fig. 16(B).
			return c.exception(isa.CauseGeneralProtection, c.EIP)
		}
		v, f := c.load(c.FSBase+c.effAddr(in), 4)
		if f != nil {
			return c.memFault(f)
		}
		c.Regs[in.R1] = v
	case OpLTR:
		if c.user() {
			return c.exception(isa.CauseGeneralProtection, c.EIP)
		}
		c.TR = c.Regs[in.R1]
	case OpSTR:
		c.Regs[in.R1] = c.TR

	default:
		return c.exception(isa.CauseInvalidInstr, c.EIP)
	}

	c.EIP = next
	return isa.Event{}
}

func (c *CPU) flagsIncDec(res uint32, inc bool) {
	c.Flags &^= FlagZF | FlagSF | FlagOF
	if res == 0 {
		c.Flags |= FlagZF
	}
	if res&0x80000000 != 0 {
		c.Flags |= FlagSF
	}
	if inc && res == 0x80000000 || !inc && res == 0x7FFFFFFF {
		c.Flags |= FlagOF
	}
}

// DeliverInterrupt vectors the CPU to handler as a hardware interrupt or trap
// would: it switches to kernel mode, moves to the given kernel stack (when
// coming from user mode), pushes the interrupted context frame
// [EFLAGS, oldESP, oldMode, EIP], clears IF, and jumps. It returns an
// exception event if the machinery itself faults (e.g., a corrupted stack
// pointer or disabled protected mode), which the machine treats as a crash.
func (c *CPU) DeliverInterrupt(handler, kernelSP uint32) isa.Event {
	if c.CR0&CR0PE == 0 {
		return c.exception(isa.CauseGeneralProtection, c.EIP)
	}
	// A corrupted task register is benign here: the processor works from
	// its cached segment descriptor, so TR corruption rarely manifests
	// (only the EFLAGS NT-bit chain produces Invalid TSS faults).
	oldSP := c.Regs[ESP]
	oldMode := c.Mode
	if oldMode == isa.UserMode {
		c.Regs[ESP] = kernelSP
	}
	c.Mode = isa.KernelMode
	if f := c.push(c.Flags); f != nil {
		return c.memFault(f)
	}
	if f := c.push(oldSP); f != nil {
		return c.memFault(f)
	}
	if f := c.push(uint32(oldMode)); f != nil {
		return c.memFault(f)
	}
	if f := c.push(c.EIP); f != nil {
		return c.memFault(f)
	}
	c.Flags &^= FlagIF
	c.EIP = handler
	return isa.Event{}
}

// PendingDataBreak reports a data-breakpoint hit recorded outside the normal
// Step flow (e.g. during interrupt-frame pushes in DeliverInterrupt) so the
// machine layer can deliver the activation event. The pending state is
// cleared.
func (c *CPU) PendingDataBreak() (slot int, access isa.DataAccess, addr uint32, ok bool) {
	if c.dbSlot < 0 {
		return 0, 0, 0, false
	}
	slot, access, addr = c.dbSlot, c.dbAccess, c.dbAddr
	c.dbSlot = -1
	return slot, access, addr, true
}
