package risc

import (
	"encoding/binary"

	"kfi/internal/isa"
	"kfi/internal/mem"
)

// CPU is the G4-class processor core. Construct with NewCPU.
//
// The privilege mode is carried by MSR[PR], as on PowerPC. The special
// purpose registers live in a flat 1024-entry file indexed by SPR number;
// only a handful have architectural behavior (SRR0/1, SPRG0-3, HID0, DEC,
// DAR/DSISR), the rest hold state for the system-register injection campaign
// exactly like the real chip's mostly-inert supervisor registers.
type CPU struct {
	R  [NumRegs]uint32
	PC uint32

	LR, CTR, XER, CR uint32
	MSR              uint32
	SPR              [1024]uint32

	// StackLo/StackHi delimit the current kernel process stack. They are
	// maintained by the machine layer on context switches and consulted by
	// the kernel's exception-entry wrapper to detect stack overflow (a G4
	// kernel feature the P4 kernel lacks).
	StackLo, StackHi uint32

	Mem   *mem.Memory
	Debug isa.DebugUnit
	Clk   isa.CycleCounter

	// Trace, when non-nil, is called once per retired instruction.
	Trace func(pc uint32, cost uint8)
	// Access, when non-nil, is called for every data load and store that
	// completes, interrupt-frame pushes included, with the access address
	// and size (used by the golden-run first-touch trace).
	Access func(addr, size uint32)

	// bticValid is false until system software initializes the branch
	// target instruction cache. If a fault flips HID0[BTIC] on while the
	// BTIC content is invalid, taken branches can fetch garbage and raise
	// illegal-instruction exceptions (paper §5.2, SPR1008).
	bticValid   bool
	bticCounter uint32

	// pending data-breakpoint trap.
	dbSlot   int
	dbAccess isa.DataAccess
	dbAddr   uint32
}

// NewCPU creates a CPU bound to the given memory, in supervisor mode with
// translation enabled and external interrupts disabled.
func NewCPU(m *mem.Memory) *CPU {
	c := &CPU{Mem: m}
	c.Reset()
	return c
}

// Reset restores architectural boot state. Memory is not touched.
func (c *CPU) Reset() {
	c.R = [NumRegs]uint32{}
	c.PC = 0
	c.LR, c.CTR, c.XER, c.CR = 0, 0, 0, 0
	c.MSR = MSRME | MSRIR | MSRDR
	c.SPR = [1024]uint32{}
	c.SPR[SprPVR] = 0x80010201 // MPC7455-flavored processor version
	c.SPR[SprHID0] = HID0ICE | HID0DCE
	c.StackLo, c.StackHi = 0, 0
	c.bticValid = false
	c.bticCounter = 0
	c.Debug.ClearAll()
	c.dbSlot = -1
}

func (c *CPU) user() bool { return c.MSR&MSRPR != 0 }

// Mode returns the current privilege mode (derived from MSR[PR]).
func (c *CPU) Mode() isa.Mode {
	if c.user() {
		return isa.UserMode
	}
	return isa.KernelMode
}

func (c *CPU) exception(cause isa.CrashCause, addr uint32) isa.Event {
	if cause == isa.CauseBadArea {
		c.SPR[SprDAR] = addr
		c.SPR[SprDSISR] = 0x40000000
	}
	return isa.Event{Kind: isa.EvException, Cause: cause, FaultAddr: addr}
}

func (c *CPU) dataFault(f *mem.Fault) isa.Event {
	switch f.Kind {
	case mem.FaultBus:
		return c.exception(isa.CauseMachineCheck, f.Addr)
	case mem.FaultProtection:
		return c.exception(isa.CauseBusError, f.Addr)
	default: // null, unmapped → DSI
		return c.exception(isa.CauseBadArea, f.Addr)
	}
}

// load performs a checked, aligned data read. Translation faults take
// precedence over alignment, as on the real processor (the paper's Figure 9
// reports "kernel access of bad area" for a misaligned access at 0x4d).
func (c *CPU) load(addr, size uint32) (uint32, *isa.Event) {
	if c.MSR&MSRDR == 0 {
		ev := c.exception(isa.CauseMachineCheck, addr)
		return 0, &ev
	}
	if f := c.Mem.Check(addr, size, false, c.user()); f != nil {
		ev := c.dataFault(f)
		return 0, &ev
	}
	if addr&(size-1) != 0 {
		ev := c.exception(isa.CauseAlignment, addr)
		return 0, &ev
	}
	v, f := c.Mem.Read(addr, size, c.user())
	if f != nil {
		ev := c.dataFault(f)
		return 0, &ev
	}
	if c.Access != nil {
		c.Access(addr, size)
	}
	if c.dbSlot < 0 && c.Debug.Armed(isa.BreakData) {
		if s := c.Debug.HitData(addr, size); s >= 0 {
			c.dbSlot, c.dbAccess, c.dbAddr = s, isa.AccessRead, addr
		}
	}
	return v, nil
}

// store performs a checked, aligned data write with the same fault ordering
// as load.
func (c *CPU) store(addr, size, val uint32) *isa.Event {
	if c.MSR&MSRDR == 0 {
		ev := c.exception(isa.CauseMachineCheck, addr)
		return &ev
	}
	if f := c.Mem.Check(addr, size, true, c.user()); f != nil {
		ev := c.dataFault(f)
		return &ev
	}
	if addr&(size-1) != 0 {
		ev := c.exception(isa.CauseAlignment, addr)
		return &ev
	}
	if f := c.Mem.Write(addr, size, val, c.user()); f != nil {
		ev := c.dataFault(f)
		return &ev
	}
	if c.Access != nil {
		c.Access(addr, size)
	}
	if c.dbSlot < 0 && c.Debug.Armed(isa.BreakData) {
		if s := c.Debug.HitData(addr, size); s >= 0 {
			c.dbSlot, c.dbAccess, c.dbAddr = s, isa.AccessWrite, addr
		}
	}
	return nil
}

// setCR0 records a signed comparison result in CR0.
func (c *CPU) setCR0(v int32) {
	c.CR &^= CR0LT | CR0GT | CR0EQ | CR0SO
	switch {
	case v < 0:
		c.CR |= CR0LT
	case v > 0:
		c.CR |= CR0GT
	default:
		c.CR |= CR0EQ
	}
}

// setCR0u records an unsigned comparison.
func (c *CPU) setCR0u(a, b uint32) {
	c.CR &^= CR0LT | CR0GT | CR0EQ | CR0SO
	switch {
	case a < b:
		c.CR |= CR0LT
	case a > b:
		c.CR |= CR0GT
	default:
		c.CR |= CR0EQ
	}
}

// crBit returns CR bit i (PowerPC numbering: bit 0 is the MSB).
func (c *CPU) crBit(i uint8) bool { return c.CR>>(31-(i&31))&1 != 0 }

// branchTaken evaluates the full PowerPC BO/BI semantics (including CTR
// decrement forms).
func (c *CPU) branchTaken(bo, bi uint8) bool {
	ctrOK := true
	if bo&4 == 0 {
		c.CTR--
		ctrOK = (c.CTR != 0) != (bo&2 != 0)
	}
	condOK := bo&16 != 0 || c.crBit(bi) == (bo&8 != 0)
	return ctrOK && condOK
}

// trapTaken evaluates the TO field of tw/twi against a and b.
func trapTaken(to uint8, a, b uint32) bool {
	sa, sb := int32(a), int32(b)
	return to&16 != 0 && sa < sb ||
		to&8 != 0 && sa > sb ||
		to&4 != 0 && a == b ||
		to&2 != 0 && a < b ||
		to&1 != 0 && a > b
}

// privileged returns an illegal-instruction (privileged instruction program
// exception) event when executing in user mode.
func (c *CPU) privileged() *isa.Event {
	if !c.user() {
		return nil
	}
	ev := c.exception(isa.CauseIllegalInstr, c.PC)
	return &ev
}

// branchTo redirects execution, masking the two low-order bits as the
// hardware does for LR/CTR-based branches.
func (c *CPU) branchTo(target uint32) *isa.Event {
	c.PC = target &^ 3
	// A corrupted HID0 can enable the branch target instruction cache while
	// its content is invalid; some taken branches then feed garbage into the
	// pipeline and raise an illegal-instruction exception (paper §5.2).
	if !c.bticValid && c.SPR[SprHID0]&HID0BTIC != 0 {
		c.bticCounter++
		if c.bticCounter%16 == 0 {
			ev := c.exception(isa.CauseIllegalInstr, c.PC)
			return &ev
		}
	}
	return nil
}

// Step executes one instruction (or reports a pending breakpoint/event).
// It is the reference interpreter: it fetches and decodes every instruction
// afresh. The translator's single steps run the same three phases, decoding
// through its per-page slots instead.
func (c *CPU) Step() isa.Event {
	if s := c.instrBreak(); s >= 0 {
		return isa.Event{Kind: isa.EvInstrBreak, Slot: s, BreakAddr: c.PC}
	}
	return c.fetchExec()
}

// instrBreak returns the slot of an instruction breakpoint armed at PC,
// or -1 after clearing the pending data break for the instruction about to
// run.
func (c *CPU) instrBreak() int {
	if c.Debug.Armed(isa.BreakInstruction) {
		if s := c.Debug.HitInstruction(c.PC); s >= 0 {
			return s
		}
	}
	c.dbSlot = -1
	return -1
}

// fetchExec is the reference fetch+decode sequence followed by retire. A
// fetch fault or illegal instruction is reported before anything executes.
func (c *CPU) fetchExec() isa.Event {
	if c.MSR&MSRIR == 0 {
		// Instruction translation disabled mid-flight: machine check.
		return c.exception(isa.CauseMachineCheck, c.PC)
	}
	rawBytes, f := c.Mem.Fetch(c.PC, 4, c.user())
	if f != nil {
		if f.Kind == mem.FaultBus {
			return c.exception(isa.CauseMachineCheck, f.Addr)
		}
		return c.exception(isa.CauseBadArea, f.Addr)
	}
	dec, err := Decode(binary.BigEndian.Uint32(rawBytes))
	if err != nil {
		return c.exception(isa.CauseIllegalInstr, c.PC)
	}
	return c.retire(&dec, costOf(dec.Op))
}

// retire executes a decoded instruction at PC and retires it: clock, trace
// hook, then any event or data breakpoint it raised.
func (c *CPU) retire(in *Inst, cst uint8) isa.Event {
	pc := c.PC
	ev := c.exec(in)
	if ev.Kind == isa.EvException {
		return ev
	}
	c.Clk.Advance(uint64(cst))
	if c.Trace != nil {
		c.Trace(pc, cst)
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

// regOr0 implements the rA|0 addressing convention.
func (c *CPU) regOr0(r uint8) uint32 {
	if r == 0 {
		return 0
	}
	return c.R[r]
}

func (c *CPU) exec(in *Inst) isa.Event {
	next := c.PC + 4

	switch in.Op {
	case OpADDI:
		c.R[in.RD] = c.regOr0(in.RA) + uint32(in.SIMM)
	case OpADDIS:
		c.R[in.RD] = c.regOr0(in.RA) + uint32(in.SIMM)<<16
	case OpMULLI:
		c.R[in.RD] = uint32(int32(c.R[in.RA]) * in.SIMM)
	case OpCMPWI:
		a := int32(c.R[in.RA])
		switch {
		case a < in.SIMM:
			c.setCR0(-1)
		case a > in.SIMM:
			c.setCR0(1)
		default:
			c.setCR0(0)
		}
	case OpCMPLWI:
		c.setCR0u(c.R[in.RA], in.UIMM)
	case OpORI:
		c.R[in.RA] = c.R[in.RD] | in.UIMM
	case OpORIS:
		c.R[in.RA] = c.R[in.RD] | in.UIMM<<16
	case OpXORI:
		c.R[in.RA] = c.R[in.RD] ^ in.UIMM
	case OpANDIRc:
		c.R[in.RA] = c.R[in.RD] & in.UIMM
		c.setCR0(int32(c.R[in.RA]))
	case OpRLWINM:
		v := c.R[in.RD]
		rot := v
		if sh := uint32(in.SH & 31); sh != 0 {
			rot = v<<sh | v>>(32-sh)
		}
		c.R[in.RA] = rot & maskMBME(in.MB, in.ME)
		if in.Rc {
			c.setCR0(int32(c.R[in.RA]))
		}

	// Loads/stores (D-form).
	case OpLWZ, OpLBZ, OpLHZ, OpLHA:
		addr := c.regOr0(in.RA) + uint32(in.SIMM)
		size := uint32(4)
		switch in.Op {
		case OpLBZ:
			size = 1
		case OpLHZ, OpLHA:
			size = 2
		}
		v, ev := c.load(addr, size)
		if ev != nil {
			return *ev
		}
		if in.Op == OpLHA {
			v = uint32(int32(int16(v)))
		}
		c.R[in.RD] = v
	case OpSTW, OpSTB, OpSTH:
		addr := c.regOr0(in.RA) + uint32(in.SIMM)
		size := uint32(4)
		switch in.Op {
		case OpSTB:
			size = 1
		case OpSTH:
			size = 2
		}
		if ev := c.store(addr, size, c.R[in.RD]); ev != nil {
			return *ev
		}
	case OpSTWU:
		addr := c.R[in.RA] + uint32(in.SIMM)
		if ev := c.store(addr, 4, c.R[in.RD]); ev != nil {
			return *ev
		}
		c.R[in.RA] = addr

	// Indexed loads/stores.
	case OpLWZX, OpLBZX, OpLHZX, OpLHAX:
		addr := c.regOr0(in.RA) + c.R[in.RB]
		size := uint32(4)
		switch in.Op {
		case OpLBZX:
			size = 1
		case OpLHZX, OpLHAX:
			size = 2
		}
		v, ev := c.load(addr, size)
		if ev != nil {
			return *ev
		}
		if in.Op == OpLHAX {
			v = uint32(int32(int16(v)))
		}
		c.R[in.RD] = v
	case OpSTWX, OpSTBX, OpSTHX:
		addr := c.regOr0(in.RA) + c.R[in.RB]
		size := uint32(4)
		switch in.Op {
		case OpSTBX:
			size = 1
		case OpSTHX:
			size = 2
		}
		if ev := c.store(addr, size, c.R[in.RD]); ev != nil {
			return *ev
		}

	// X-form ALU.
	case OpADD:
		c.R[in.RD] = c.R[in.RA] + c.R[in.RB]
	case OpSUBF:
		c.R[in.RD] = c.R[in.RB] - c.R[in.RA]
	case OpNEG:
		c.R[in.RD] = -c.R[in.RA]
	case OpMULLW:
		c.R[in.RD] = uint32(int32(c.R[in.RA]) * int32(c.R[in.RB]))
	case OpDIVW:
		a, b := int32(c.R[in.RA]), int32(c.R[in.RB])
		if b == 0 || (a == -1<<31 && b == -1) {
			// PowerPC divw does not trap: the result is undefined (we use 0)
			// and no exception is raised — unlike the P4's #DE.
			c.R[in.RD] = 0
		} else {
			c.R[in.RD] = uint32(a / b)
		}
	case OpAND:
		c.R[in.RA] = c.R[in.RD] & c.R[in.RB]
	case OpOR:
		c.R[in.RA] = c.R[in.RD] | c.R[in.RB]
	case OpXOR:
		c.R[in.RA] = c.R[in.RD] ^ c.R[in.RB]
	case OpNOR:
		c.R[in.RA] = ^(c.R[in.RD] | c.R[in.RB])
	case OpSLW:
		sh := c.R[in.RB] & 63
		if sh > 31 {
			c.R[in.RA] = 0
		} else {
			c.R[in.RA] = c.R[in.RD] << sh
		}
	case OpSRW:
		sh := c.R[in.RB] & 63
		if sh > 31 {
			c.R[in.RA] = 0
		} else {
			c.R[in.RA] = c.R[in.RD] >> sh
		}
	case OpSRAW:
		sh := c.R[in.RB] & 63
		if sh > 31 {
			sh = 31
		}
		c.R[in.RA] = uint32(int32(c.R[in.RD]) >> sh)
	case OpSRAWI:
		c.R[in.RA] = uint32(int32(c.R[in.RD]) >> (in.SH & 31))
	case OpEXTSB:
		c.R[in.RA] = uint32(int32(int8(c.R[in.RD])))
	case OpEXTSH:
		c.R[in.RA] = uint32(int32(int16(c.R[in.RD])))
	case OpCMPW:
		a, b := int32(c.R[in.RA]), int32(c.R[in.RB])
		switch {
		case a < b:
			c.setCR0(-1)
		case a > b:
			c.setCR0(1)
		default:
			c.setCR0(0)
		}
	case OpCMPLW:
		c.setCR0u(c.R[in.RA], c.R[in.RB])

	// Branches.
	case OpB:
		target := next - 4 + uint32(in.SIMM)
		if in.AA {
			target = uint32(in.SIMM)
		}
		if in.LK {
			c.LR = next
		}
		if ev := c.branchTo(target); ev != nil {
			return *ev
		}
		return isa.Event{}
	case OpBC:
		taken := c.branchTaken(in.BO, in.BI)
		if in.LK {
			c.LR = next
		}
		if taken {
			target := next - 4 + uint32(in.SIMM)
			if in.AA {
				target = uint32(in.SIMM)
			}
			if ev := c.branchTo(target); ev != nil {
				return *ev
			}
			return isa.Event{}
		}
	case OpBCLR:
		taken := c.branchTaken(in.BO, in.BI)
		target := c.LR
		if in.LK {
			c.LR = next
		}
		if taken {
			if ev := c.branchTo(target); ev != nil {
				return *ev
			}
			return isa.Event{}
		}
	case OpBCCTR:
		taken := c.branchTaken(in.BO|4, in.BI) // CTR forms are invalid for bcctr
		if in.LK {
			c.LR = next
		}
		if taken {
			if ev := c.branchTo(c.CTR); ev != nil {
				return *ev
			}
			return isa.Event{}
		}

	// Traps and system calls.
	case OpTWI:
		if trapTaken(in.TO, c.R[in.RA], uint32(in.SIMM)) {
			return c.exception(isa.CauseBadTrap, c.PC)
		}
	case OpTW:
		if trapTaken(in.TO, c.R[in.RA], c.R[in.RB]) {
			return c.exception(isa.CauseBadTrap, c.PC)
		}
	case OpSC:
		c.PC = next
		return isa.Event{Kind: isa.EvSyscall, SysNo: c.R[0]}
	case OpRFI:
		if ev := c.privileged(); ev != nil {
			return *ev
		}
		// Our rfi restores the four-word exception frame from the stack
		// (the lwz/mtsrr0/mtsrr1/rfi return sequence fused into one step;
		// see DeliverInterrupt).
		pcv, ev := c.load(c.R[SP], 4)
		if ev != nil {
			return *ev
		}
		_, ev = c.load(c.R[SP]+4, 4) // mode word (informational)
		if ev != nil {
			return *ev
		}
		oldSP, ev := c.load(c.R[SP]+8, 4)
		if ev != nil {
			return *ev
		}
		msr, ev := c.load(c.R[SP]+12, 4)
		if ev != nil {
			return *ev
		}
		c.MSR = msr
		c.R[SP] = oldSP
		if ev := c.branchTo(pcv); ev != nil {
			return *ev
		}
		return isa.Event{}
	case OpISYNC, OpSYNC:
		// Memory/pipeline barriers are no-ops in the simulator.

	// SPR / MSR access.
	case OpMFSPR:
		switch in.SPR {
		case SprXER:
			c.R[in.RD] = c.XER
		case SprLR:
			c.R[in.RD] = c.LR
		case SprCTR:
			c.R[in.RD] = c.CTR
		default:
			if ev := c.privileged(); ev != nil {
				return *ev
			}
			c.R[in.RD] = c.SPR[in.SPR]
		}
	case OpMTSPR:
		switch in.SPR {
		case SprXER:
			c.XER = c.R[in.RD]
		case SprLR:
			c.LR = c.R[in.RD]
		case SprCTR:
			c.CTR = c.R[in.RD]
		default:
			if ev := c.privileged(); ev != nil {
				return *ev
			}
			c.SPR[in.SPR] = c.R[in.RD]
		}
	case OpMFMSR:
		if ev := c.privileged(); ev != nil {
			return *ev
		}
		c.R[in.RD] = c.MSR
	case OpMTMSR:
		if ev := c.privileged(); ev != nil {
			return *ev
		}
		c.MSR = c.R[in.RD]
	case OpMFCR:
		c.R[in.RD] = c.CR
	case OpMTCRF:
		c.CR = c.R[in.RD]

	// Simulator extensions.
	case OpCTXSW:
		if ev := c.privileged(); ev != nil {
			return *ev
		}
		c.PC = next
		return isa.Event{Kind: isa.EvCtxSw, Prev: c.R[in.RA], Next: c.R[in.RB]}
	case OpHALT:
		if ev := c.privileged(); ev != nil {
			return *ev
		}
		c.PC = next
		return isa.Event{Kind: isa.EvHalt}

	default:
		return c.exception(isa.CauseIllegalInstr, c.PC)
	}

	c.PC = next
	return isa.Event{}
}

// maskMBME builds the rlwinm mask covering PowerPC bits MB through ME
// inclusive (bit 0 is the MSB); MB > ME produces the wrapped mask.
func maskMBME(mb, me uint8) uint32 {
	bit := func(i uint8) uint32 { return 1 << (31 - uint32(i&31)) }
	var m uint32
	i := mb & 31
	for {
		m |= bit(i)
		if i == me&31 {
			return m
		}
		i = (i + 1) & 31
	}
}

// InterruptsEnabled reports MSR[EE].
func (c *CPU) InterruptsEnabled() bool { return c.MSR&MSREE != 0 }

// DeliverInterrupt vectors the CPU to handler: SRR0/SRR1 capture the
// interrupted context, the CPU enters supervisor mode with external
// interrupts disabled, the four-word exception frame [PC, oldMode, oldSP,
// oldMSR] is pushed onto the kernel stack, and execution continues at
// handler. Faults in this path (e.g. a corrupted stack pointer) are returned
// for the machine layer to classify — on the G4 the kernel's entry wrapper
// turns an out-of-range stack pointer into an explicit Stack Overflow.
func (c *CPU) DeliverInterrupt(handler, kernelSP uint32) isa.Event {
	c.SPR[SprSRR0] = c.PC
	c.SPR[SprSRR1] = c.MSR
	oldMSR := c.MSR
	oldMode := c.Mode()
	oldSP := c.R[SP]
	c.MSR &^= MSRPR | MSREE
	if oldMode == isa.UserMode {
		c.R[SP] = kernelSP
	}
	sp := c.R[SP] - 16
	if ev := c.store(sp+12, 4, oldMSR); ev != nil {
		return *ev
	}
	if ev := c.store(sp+8, 4, oldSP); ev != nil {
		return *ev
	}
	if ev := c.store(sp+4, 4, uint32(oldMode)); ev != nil {
		return *ev
	}
	if ev := c.store(sp, 4, c.PC); ev != nil {
		return *ev
	}
	c.R[SP] = sp
	c.PC = handler
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
