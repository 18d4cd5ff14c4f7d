package cisc

import (
	"kfi/internal/isa"
	"kfi/internal/mem"
	"kfi/internal/platform"
)

// Basic-block threaded-closure translator, the P4 core's execution engine.
//
// The translator keeps the P4 core's decoded guest code in the shared
// platform.CodeCache: per guest page, the instruction decoded at each byte
// offset a single step ran (a slot) and the block translated from each
// entry offset. The CISC stream is variable-length, so any byte can start
// an instruction, which is exactly what lets an injected bit flip
// re-synchronize the stream into a different valid sequence. Straight-line
// guest code becomes an array of fused Go closures — a translated basic
// block — decoded by the slots' decoder. Anything the blocks cannot run
// takes single steps with CPU.Step's phases — breakpoint check, decode,
// retire — decoding through the slots, which fill lazily as offsets are
// first stepped through.
//
// Every page is validated against internal/mem's per-page write-generation
// counter before its slots or blocks are used, and any unit that may store
// revalidates afterwards, so guest stores and injected bit flips into cached
// code (including CISC length re-synchronization: the new byte stream
// decodes to different instructions of different lengths) drop the page and
// resume in freshly decoded code bit-identically to the reference
// interpreter.
//
// Soundness argument (DESIGN.md §18):
//   - A slot or block is only used when PageGen(page) equals the generation
//     it was decoded against, so the bytes it was decoded from are the bytes
//     the interpreter would fetch. Instructions that straddle a page end are
//     never cached; they take the reference fetch+decode, keeping cross-page
//     fault ordering byte-identical.
//   - A block only runs when it fits entirely under the cycle limit; every
//     instruction costs at least one cycle, so each proper prefix also fits,
//     meaning the interpreter would have executed every one of its
//     instructions before re-checking the limit.
//   - Units replicate Step's per-instruction protocol: exceptions return
//     before the program counter or clock advance; all other outcomes
//     advance both exactly once per guest instruction. Fused runs of
//     fault-free register ops batch the EIP/clock retire and elide flag
//     computations that are provably overwritten before the run ends —
//     legal precisely because nothing inside the run can fault or raise an
//     event, so no intermediate EIP, cycle count, or dead flag state is
//     architecturally observable.
//   - Tracing and armed debug hardware (the injector's breakpoints) step the
//     whole RunUntil call through the slots, so trigger placement and
//     activation observe identical per-step sequencing.

// blockUnit is one translated step: a fused closure covering one or more
// guest instructions. run returns nil when every covered instruction retired
// normally — keeping the hot path to a single pointer-width return — and the
// terminating event otherwise. stores marks units that may write memory,
// telling the dispatcher to revalidate the executing page's write generation
// afterwards.
type blockUnit struct {
	run    func(c *CPU) *isa.Event
	stores bool
}

// tblock is one translated basic block. An empty unit list is a negative
// cache entry: the entry offset is undecodable or immediately straddles the
// page, so dispatch steps without re-walking.
type tblock struct {
	units  []blockUnit
	total  uint64 // whole-block cycle cost
	ninstr int
}

// untranslatable is the shared negative-cache sentinel.
var untranslatable = &tblock{}

// Slot decode states.
const (
	slotEmpty uint8 = iota // not decoded yet, or a page-straddling instruction
	slotValid
	// slotInvalid records an invalid-opcode outcome whose cause lies
	// entirely within the page, so the exception replays without a fetch.
	slotInvalid
)

// tslot is the instruction decoded at one byte offset of a cached page.
type tslot struct {
	state uint8
	cost  uint8
	inst  Inst
}

const (
	// translateMaxPages is the P4's page bound of the shared code cache.
	translateMaxPages = 64
	// translateMaxInstrs caps a block's instruction count.
	translateMaxInstrs = 64
)

// translator is the P4 core's execution engine: its dispatch loop, slot
// decoding and block building over the shared code cache, keyed by byte
// offset.
type translator struct {
	cpu *CPU
	platform.CodeCache[tslot, tblock]
	// ins/pcs are translate's decode buffers, reused across blocks.
	ins []Inst
	pcs []uint32
}

func newTranslator(cpu *CPU) *translator {
	return &translator{cpu: cpu, CodeCache: platform.NewCodeCache[tslot, tblock](cpu.Mem, translateMaxPages)}
}

// faultEv boxes a memory fault into the unit return protocol. Faults end the
// dispatch (and almost always the run), so the allocation is off the hot path.
func faultEv(c *CPU, f *mem.Fault) *isa.Event {
	ev := c.memFault(f)
	return &ev
}

// RunUntil dispatches translated blocks until the clock reaches limit or an
// instruction produces an event. Where no block may run it takes single
// steps: CPU.Step's phases, with the decode served from EIP's slot.
func (t *translator) RunUntil(limit uint64) isa.Event {
	c := t.cpu
	// Anything the block dispatcher cannot reproduce step-for-step —
	// instruction or access tracing, armed debug hardware — steps the whole
	// call. The armed state only changes between RunUntil calls (hooks and
	// the injector run with the machine paused), so checking once up front
	// is exact.
	stepOnly := c.Trace != nil || c.Access != nil || c.Debug.Armed(isa.BreakInstruction) || c.Debug.Armed(isa.BreakData)
	if stepOnly {
		t.Counters.Fallbacks++
	}
	// Step clears the pending data-break slot before each instruction; with
	// data breakpoints unarmed no unit can set it, so clearing once here
	// matches the interpreter's per-step reset.
	c.dbSlot = -1
	for c.Clk.Cycles() < limit {
		if !stepOnly {
			pg, blk := t.lookup()
			switch {
			case blk == nil || len(blk.units) == 0:
				t.Counters.Fallbacks++
			case c.Clk.Cycles()+blk.total > limit:
				// The block would overrun the cycle horizon: take one step
				// and re-dispatch (not a translation failure, so not
				// counted as a fallback).
			default:
				t.Counters.Hits++
				for i := range blk.units {
					u := &blk.units[i]
					if ev := u.run(c); ev != nil {
						return *ev
					}
					if u.stores && t.Stale(pg) {
						// The guest stored into the executing code page (or
						// an injected flip landed there): abandon the rest
						// of the block and re-dispatch at the current EIP,
						// which is exactly the interpreter's refetch.
						break
					}
				}
				continue
			}
		}
		if s := c.instrBreak(); s >= 0 {
			return isa.Event{Kind: isa.EvInstrBreak, Slot: s, BreakAddr: c.EIP}
		}
		var ev isa.Event
		switch sl := t.slot(); {
		case sl == nil:
			ev = c.fetchExec()
		case sl.state == slotValid:
			// exec never mutates the Inst, and only the translator itself
			// rewrites slots, so the slot is executed in place.
			ev = c.retire(&sl.inst, sl.cost)
		default:
			ev = c.exception(isa.CauseInvalidInstr, c.EIP)
		}
		if ev.Kind != isa.EvNone {
			return ev
		}
	}
	return isa.Event{}
}

// slot returns the decoded slot at EIP, nil when the reference fetch must
// serve it instead: see CodeCache.Page, and a page-straddling instruction
// is never cached.
func (t *translator) slot() *tslot {
	c := t.cpu
	pg := t.Page(c.EIP, c.user())
	if pg == nil {
		return nil
	}
	sl := pg.Slot(c.EIP & (mem.PageSize - 1))
	if sl.state == slotEmpty {
		t.decode(sl, c.EIP)
	}
	if sl.state == slotEmpty {
		return nil
	}
	return sl
}

// lookup returns the block at EIP (translating on first use) and its page,
// nil when the translator must not run here.
func (t *translator) lookup() (*platform.CodePage[tslot, tblock], *tblock) {
	c := t.cpu
	pg := t.Page(c.EIP, c.user())
	if pg == nil {
		return nil, nil
	}
	i := c.EIP & (mem.PageSize - 1)
	blk := pg.Block(i)
	if blk == nil {
		blk = t.translate(c.EIP)
		t.AddBlock(pg, i, blk)
		if len(blk.units) > 0 {
			t.Counters.Translated++
		}
	}
	return pg, blk
}

// decode fills the empty slot sl of addr, in a validated page the current
// mode can fetch from. Outcomes that depend only on bytes inside the page
// are cached; a page-straddling instruction leaves the slot empty.
func (t *translator) decode(sl *tslot, addr uint32) {
	e := &opTable[t.cpu.Mem.PeekBytes(addr, 1)[0]]
	if e.op == OpInvalid {
		sl.state = slotInvalid // determined by byte 0 alone, always in-page
		return
	}
	n := uint32(e.format.Length())
	if addr&(mem.PageSize-1)+n > mem.PageSize {
		return
	}
	dec, err := Decode(t.cpu.Mem.PeekBytes(addr, n))
	if err != nil {
		sl.state = slotInvalid
		return
	}
	sl.inst, sl.cost, sl.state = dec, e.cost, slotValid
}

// ciscTerminator reports ops that end a basic block: control transfers,
// event-raising ops, and everything that changes mode or EIP non-linearly.
func ciscTerminator(op Op) bool {
	switch op {
	case OpJMP, OpJMPR, OpJCC, OpCALL, OpCALLR, OpRET,
		OpHLT, OpIRET, OpCTXSW, OpUD2, OpINT:
		return true
	default:
		return false
	}
}

// opStores reports ops that may write guest memory.
func opStores(op Op) bool {
	switch op {
	case OpST32, OpST16, OpST8, OpST32IDX, OpSTABS, OpMOVMI8,
		OpADDMS, OpSUBMS, OpANDMS, OpORMS, OpXORMS, OpINCM, OpDECM,
		OpPUSH, OpPUSHI, OpPUSHF, OpCALL, OpCALLR:
		return true
	default:
		return false
	}
}

// translate decodes the straight-line run starting at addr, in a page just
// validated, with the slots' decoder into a block of fused closures.
// Decoding stops at a block terminator, an undecodable byte, a
// page-straddling instruction, or the instruction cap; an
// immediately-undecodable entry yields the negative sentinel so dispatch
// steps without re-walking. The decoded instructions are not kept as slots:
// code that runs as blocks needs none, and a zero-filled page executed as a
// slide of two-byte adds would otherwise hold 112 KiB of them.
func (t *translator) translate(addr uint32) *tblock {
	page := addr / mem.PageSize
	gen := t.cpu.Mem.PageGen(page)
	ins, pcs := t.ins[:0], t.pcs[:0]
	for len(ins) < translateMaxInstrs {
		var sl tslot
		t.decode(&sl, addr)
		if sl.state != slotValid {
			break // the step path raises the fault or fetches the straddler
		}
		ins = append(ins, sl.inst)
		pcs = append(pcs, addr)
		addr += uint32(sl.inst.Len)
		if ciscTerminator(sl.inst.Op) || addr/mem.PageSize != page {
			break
		}
	}
	t.ins, t.pcs = ins, pcs
	if len(ins) == 0 {
		return untranslatable
	}

	blk := &tblock{ninstr: len(ins)}
	for i := range ins {
		blk.total += uint64(ins[i].Cost())
	}
	for i := 0; i < len(ins); {
		in := &ins[i]
		// Superinstruction: push/pop register runs (function prologues and
		// epilogues) fuse into one closure with per-instruction fault
		// semantics.
		if in.Format == FOpReg && (in.Op == OpPUSH || in.Op == OpPOP) &&
			i+1 < len(ins) && ins[i+1].Op == in.Op && ins[i+1].Format == FOpReg {
			j := i
			var regs []uint8
			for j < len(ins) && ins[j].Op == in.Op && ins[j].Format == FOpReg {
				regs = append(regs, ins[j].R1)
				j++
			}
			if in.Op == OpPUSH {
				blk.units = append(blk.units, fusePushRun(regs, page, gen))
			} else {
				blk.units = append(blk.units, fusePopRun(regs))
			}
			i = j
			continue
		}
		// Superinstruction: register/immediate compare + conditional branch.
		if (in.Op == OpCMP || in.Op == OpTEST) &&
			(in.Format == FRR || in.Format == FRI8 || in.Format == FRI32) &&
			i+1 < len(ins) && ins[i+1].Op == OpJCC {
			blk.units = append(blk.units, fuseCmpJcc(*in, ins[i+1], pcs[i]))
			i += 2
			continue
		}
		// Superinstruction: a maximal run of fault-free register ops fuses
		// into one closure with a single EIP/clock retire and dead flag
		// computations elided (see fuseALURun).
		if j := aluRunEnd(ins, i); j-i >= 2 {
			blk.units = append(blk.units, fuseALURun(ins[i:j], pcs[j-1]+uint32(ins[j-1].Len)))
			i = j
			continue
		}
		u := unitFor(*in, pcs[i])
		// Superinstruction: load followed by a fault-free register op.
		if !u.stores && isFusableLoad(in.Op) && i+1 < len(ins) && isFusableALU(&ins[i+1]) {
			blk.units = append(blk.units, chainUnits(u, unitFor(ins[i+1], pcs[i+1])))
			i += 2
			continue
		}
		blk.units = append(blk.units, u)
		i++
	}
	return blk
}

// --- Fault-free register-run fusion ---------------------------------------

// Flag liveness bits for the run-local dead-flag analysis.
const (
	liveCF uint8 = 1 << iota
	liveZF
	liveSF
	liveOF
	liveAll = liveCF | liveZF | liveSF | liveOF
)

// aluFlagUse returns the EFLAGS bits an op writes and reads. INC/DEC preserve
// CF (partial writers); SETCC's condition is treated as reading all four.
func aluFlagUse(op Op) (writes, reads uint8) {
	switch op {
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpCMP, OpTEST,
		OpIMUL, OpSHL, OpSHR, OpSAR, OpNEG:
		return liveAll, 0
	case OpINC, OpDEC:
		return liveZF | liveSF | liveOF, 0
	case OpSETCC:
		return 0, liveAll
	default:
		return 0, 0
	}
}

// aluCanMicro reports instructions eligible for run fusion: fault-free in
// every mode, no memory access, no EIP/clock side effects, and covered by
// aluMicro (the two switches must stay in sync; the engine differential
// fuzzer exercises the pairing).
func aluCanMicro(in *Inst) bool {
	switch in.Op {
	case OpMOV, OpADD, OpSUB, OpAND, OpOR, OpXOR, OpCMP, OpTEST,
		OpIMUL, OpSHL, OpSHR, OpSAR:
		return in.Format == FRR || in.Format == FRI8 || in.Format == FRI32
	case OpNOP, OpNEG, OpNOT, OpINC, OpDEC, OpXCHG, OpXCHGA, OpSETCC,
		OpMOVZX8, OpMOVSX8, OpMOVZX16, OpMOVSX16, OpLEAIDX, OpMOVRSEG, OpSTR:
		return true
	case OpLEA:
		return in.Format == FMem8 || in.Format == FMem32
	default:
		return false
	}
}

// aluRunEnd returns the end of the maximal fusable run starting at i. A
// trailing CMP/TEST directly before a JCC is left out so the compare+branch
// superinstruction still fires.
func aluRunEnd(ins []Inst, i int) int {
	j := i
	for j < len(ins) && aluCanMicro(&ins[j]) {
		j++
	}
	if j > i && j < len(ins) && ins[j].Op == OpJCC &&
		(ins[j-1].Op == OpCMP || ins[j-1].Op == OpTEST) {
		j--
	}
	return j
}

// fuseALURun compiles ins (all aluCanMicro) into one closure: the bodies run
// back to back, then EIP and the clock retire once. Flag computations whose
// every written bit is overwritten later in the run — before any reader and
// before the conservative all-live run exit — are elided; nothing in the run
// can fault, so the skipped intermediate states are unobservable.
func fuseALURun(ins []Inst, end uint32) blockUnit {
	live := liveAll // flags are observable after the run: assume all live
	need := make([]bool, len(ins))
	for k := len(ins) - 1; k >= 0; k-- {
		w, r := aluFlagUse(ins[k].Op)
		need[k] = w&live != 0
		live = (live &^ w) | r
	}
	var cost uint64
	ops := make([]func(*CPU), len(ins))
	for k := range ins {
		ops[k] = aluMicro(ins[k], need[k])
		cost += uint64(ins[k].Cost())
	}
	switch len(ops) {
	case 2:
		f0, f1 := ops[0], ops[1]
		return blockUnit{run: func(c *CPU) *isa.Event {
			f0(c)
			f1(c)
			c.EIP = end
			c.Clk.Advance(cost)
			return nil
		}}
	case 3:
		f0, f1, f2 := ops[0], ops[1], ops[2]
		return blockUnit{run: func(c *CPU) *isa.Event {
			f0(c)
			f1(c)
			f2(c)
			c.EIP = end
			c.Clk.Advance(cost)
			return nil
		}}
	case 4:
		f0, f1, f2, f3 := ops[0], ops[1], ops[2], ops[3]
		return blockUnit{run: func(c *CPU) *isa.Event {
			f0(c)
			f1(c)
			f2(c)
			f3(c)
			c.EIP = end
			c.Clk.Advance(cost)
			return nil
		}}
	}
	return blockUnit{run: func(c *CPU) *isa.Event {
		for _, f := range ops {
			f(c)
		}
		c.EIP = end
		c.Clk.Advance(cost)
		return nil
	}}
}

// aluMicro builds the body closure for one run member: the architectural
// effect minus EIP/clock (the run retires those once) and minus flag updates
// when withFlags is false. Callers guarantee aluCanMicro(in).
func aluMicro(in Inst, withFlags bool) func(*CPU) {
	r1, r2 := in.R1, in.R2
	imm := uint32(in.Imm)
	rr := in.Format == FRR
	switch in.Op {
	case OpNOP:
		return func(c *CPU) {}
	case OpMOV:
		if rr {
			return func(c *CPU) { c.Regs[r1] = c.Regs[r2] }
		}
		return func(c *CPU) { c.Regs[r1] = imm }
	case OpADD:
		if rr {
			if withFlags {
				return func(c *CPU) {
					a, b := c.Regs[r1], c.Regs[r2]
					c.Regs[r1] = a + b
					c.setFlagsAdd(a, b, a+b)
				}
			}
			return func(c *CPU) { c.Regs[r1] += c.Regs[r2] }
		}
		if withFlags {
			return func(c *CPU) {
				a := c.Regs[r1]
				c.Regs[r1] = a + imm
				c.setFlagsAdd(a, imm, a+imm)
			}
		}
		return func(c *CPU) { c.Regs[r1] += imm }
	case OpSUB:
		if rr {
			if withFlags {
				return func(c *CPU) {
					a, b := c.Regs[r1], c.Regs[r2]
					c.Regs[r1] = a - b
					c.setFlagsSub(a, b, a-b)
				}
			}
			return func(c *CPU) { c.Regs[r1] -= c.Regs[r2] }
		}
		if withFlags {
			return func(c *CPU) {
				a := c.Regs[r1]
				c.Regs[r1] = a - imm
				c.setFlagsSub(a, imm, a-imm)
			}
		}
		return func(c *CPU) { c.Regs[r1] -= imm }
	case OpAND:
		if rr {
			if withFlags {
				return func(c *CPU) { c.Regs[r1] &= c.Regs[r2]; c.setFlagsLogic(c.Regs[r1]) }
			}
			return func(c *CPU) { c.Regs[r1] &= c.Regs[r2] }
		}
		if withFlags {
			return func(c *CPU) { c.Regs[r1] &= imm; c.setFlagsLogic(c.Regs[r1]) }
		}
		return func(c *CPU) { c.Regs[r1] &= imm }
	case OpOR:
		if rr {
			if withFlags {
				return func(c *CPU) { c.Regs[r1] |= c.Regs[r2]; c.setFlagsLogic(c.Regs[r1]) }
			}
			return func(c *CPU) { c.Regs[r1] |= c.Regs[r2] }
		}
		if withFlags {
			return func(c *CPU) { c.Regs[r1] |= imm; c.setFlagsLogic(c.Regs[r1]) }
		}
		return func(c *CPU) { c.Regs[r1] |= imm }
	case OpXOR:
		if rr {
			if withFlags {
				return func(c *CPU) { c.Regs[r1] ^= c.Regs[r2]; c.setFlagsLogic(c.Regs[r1]) }
			}
			return func(c *CPU) { c.Regs[r1] ^= c.Regs[r2] }
		}
		if withFlags {
			return func(c *CPU) { c.Regs[r1] ^= imm; c.setFlagsLogic(c.Regs[r1]) }
		}
		return func(c *CPU) { c.Regs[r1] ^= imm }
	case OpCMP:
		if !withFlags {
			return func(c *CPU) {} // compare with dead flags is a no-op
		}
		if rr {
			return func(c *CPU) {
				a, b := c.Regs[r1], c.Regs[r2]
				c.setFlagsSub(a, b, a-b)
			}
		}
		return func(c *CPU) {
			a := c.Regs[r1]
			c.setFlagsSub(a, imm, a-imm)
		}
	case OpTEST:
		if !withFlags {
			return func(c *CPU) {}
		}
		if rr {
			return func(c *CPU) { c.setFlagsLogic(c.Regs[r1] & c.Regs[r2]) }
		}
		return func(c *CPU) { c.setFlagsLogic(c.Regs[r1] & imm) }
	case OpIMUL:
		src := func(c *CPU) uint32 { return imm }
		if rr {
			src = func(c *CPU) uint32 { return c.Regs[r2] }
		}
		if withFlags {
			return func(c *CPU) {
				c.Regs[r1] = uint32(int32(c.Regs[r1]) * int32(src(c)))
				c.setFlagsLogic(c.Regs[r1])
			}
		}
		return func(c *CPU) { c.Regs[r1] = uint32(int32(c.Regs[r1]) * int32(src(c))) }
	case OpSHL:
		src := func(c *CPU) uint32 { return imm }
		if rr {
			src = func(c *CPU) uint32 { return c.Regs[r2] }
		}
		if withFlags {
			return func(c *CPU) { c.Regs[r1] <<= src(c) & 31; c.setFlagsLogic(c.Regs[r1]) }
		}
		return func(c *CPU) { c.Regs[r1] <<= src(c) & 31 }
	case OpSHR:
		src := func(c *CPU) uint32 { return imm }
		if rr {
			src = func(c *CPU) uint32 { return c.Regs[r2] }
		}
		if withFlags {
			return func(c *CPU) { c.Regs[r1] >>= src(c) & 31; c.setFlagsLogic(c.Regs[r1]) }
		}
		return func(c *CPU) { c.Regs[r1] >>= src(c) & 31 }
	case OpSAR:
		src := func(c *CPU) uint32 { return imm }
		if rr {
			src = func(c *CPU) uint32 { return c.Regs[r2] }
		}
		if withFlags {
			return func(c *CPU) {
				c.Regs[r1] = uint32(int32(c.Regs[r1]) >> (src(c) & 31))
				c.setFlagsLogic(c.Regs[r1])
			}
		}
		return func(c *CPU) { c.Regs[r1] = uint32(int32(c.Regs[r1]) >> (src(c) & 31)) }
	case OpNEG:
		if withFlags {
			return func(c *CPU) { c.Regs[r1] = -c.Regs[r1]; c.setFlagsLogic(c.Regs[r1]) }
		}
		return func(c *CPU) { c.Regs[r1] = -c.Regs[r1] }
	case OpNOT:
		return func(c *CPU) { c.Regs[r1] = ^c.Regs[r1] }
	case OpINC:
		if withFlags {
			return func(c *CPU) { c.Regs[r1]++; c.flagsIncDec(c.Regs[r1], true) }
		}
		return func(c *CPU) { c.Regs[r1]++ }
	case OpDEC:
		if withFlags {
			return func(c *CPU) { c.Regs[r1]--; c.flagsIncDec(c.Regs[r1], false) }
		}
		return func(c *CPU) { c.Regs[r1]-- }
	case OpXCHG:
		return func(c *CPU) { c.Regs[r1], c.Regs[r2] = c.Regs[r2], c.Regs[r1] }
	case OpXCHGA:
		return func(c *CPU) { c.Regs[EAX], c.Regs[r1] = c.Regs[r1], c.Regs[EAX] }
	case OpSETCC:
		cc := uint8(imm) & 0xF
		return func(c *CPU) {
			if c.Cond(cc) {
				c.Regs[r1] = 1
			} else {
				c.Regs[r1] = 0
			}
		}
	case OpMOVZX8:
		return func(c *CPU) { c.Regs[r1] = c.Regs[r2] & 0xFF }
	case OpMOVSX8:
		return func(c *CPU) { c.Regs[r1] = uint32(int32(int8(c.Regs[r2]))) }
	case OpMOVZX16:
		return func(c *CPU) { c.Regs[r1] = c.Regs[r2] & 0xFFFF }
	case OpMOVSX16:
		return func(c *CPU) { c.Regs[r1] = uint32(int32(int16(c.Regs[r2]))) }
	case OpLEA:
		disp := uint32(in.Disp)
		return func(c *CPU) { c.Regs[r1] = c.Regs[r2] + disp }
	case OpLEAIDX:
		idx, scale, disp := in.Idx, in.Scale, uint32(in.Disp)
		return func(c *CPU) { c.Regs[r1] = c.Regs[r2] + c.Regs[idx]<<scale + disp }
	case OpMOVRSEG:
		if r2 == 0 {
			return func(c *CPU) { c.Regs[r1] = c.FS }
		}
		return func(c *CPU) { c.Regs[r1] = c.GS }
	case OpSTR:
		return func(c *CPU) { c.Regs[r1] = c.TR }
	}
	// Unreachable while aluCanMicro and this switch agree; degrade to a NOP
	// body would be unsound, so replicate via exec semantics instead.
	inst := in
	return func(c *CPU) {
		saved := c.EIP
		c.exec(&inst)
		c.EIP = saved
	}
}

// --- Remaining superinstructions and single-op units -----------------------

func isFusableLoad(op Op) bool {
	switch op {
	case OpLD32, OpLD16ZX, OpLD16SX, OpLD8ZX, OpLD8SX, OpLD32IDX, OpLDABS:
		return true
	default:
		return false
	}
}

// isFusableALU reports register/immediate ops safe to chain behind a load.
func isFusableALU(in *Inst) bool {
	if in.Format != FRR && in.Format != FRI8 && in.Format != FRI32 && in.Format != FOpReg {
		return false
	}
	switch in.Op {
	case OpMOV, OpADD, OpSUB, OpAND, OpOR, OpXOR, OpCMP, OpTEST,
		OpINC, OpDEC, OpNOT, OpNEG, OpMOVZX8, OpMOVSX8, OpMOVZX16, OpMOVSX16:
		return true
	default:
		return false
	}
}

// chainUnits runs two units as one closure. The first must not store (there
// is no generation recheck between them).
func chainUnits(a, b blockUnit) blockUnit {
	ar, br := a.run, b.run
	return blockUnit{
		stores: a.stores || b.stores,
		run: func(c *CPU) *isa.Event {
			if ev := ar(c); ev != nil {
				return ev
			}
			return br(c)
		},
	}
}

// fuseCmpJcc builds the compare+branch superinstruction. Both halves are
// fault-free (register/immediate operands only), so flags are written
// architecturally and the clock advances in one step.
func fuseCmpJcc(cmp, jcc Inst, cmpPC uint32) blockUnit {
	var (
		isRR   = cmp.Format == FRR
		isTest = cmp.Op == OpTEST
		r1, r2 = cmp.R1, cmp.R2
		imm    = uint32(cmp.Imm)
		cc     = jcc.Cc
		fall   = cmpPC + uint32(cmp.Len) + uint32(jcc.Len)
		taken  = fall + uint32(jcc.Imm)
		cost   = uint64(cmp.Cost()) + uint64(jcc.Cost())
	)
	return blockUnit{run: func(c *CPU) *isa.Event {
		a, b := c.Regs[r1], imm
		if isRR {
			b = c.Regs[r2]
		}
		if isTest {
			c.setFlagsLogic(a & b)
		} else {
			c.setFlagsSub(a, b, a-b)
		}
		if c.Cond(cc) {
			c.EIP = taken
		} else {
			c.EIP = fall
		}
		c.Clk.Advance(cost)
		return nil
	}}
}

// fusePushRun fuses a run of single-byte push instructions. Fault semantics
// are per-instruction: EIP and the clock advance only after each push
// retires, and ESP stays decremented on a faulting store (the push helper's
// behavior). Because the run stores more than once, it revalidates the
// executing page's generation itself after every store — a push through a
// corrupted ESP can rewrite the very bytes of a later push in the run.
func fusePushRun(regs []uint8, page uint32, gen uint64) blockUnit {
	return blockUnit{stores: true, run: func(c *CPU) *isa.Event {
		for _, r := range regs {
			c.Regs[ESP] -= 4
			if f := c.store(c.Regs[ESP], 4, c.Regs[r]); f != nil {
				return faultEv(c, f)
			}
			c.EIP++
			c.Clk.Advance(2)
			if c.Mem.PageGen(page) != gen {
				// Self-modifying store into this code page: stop; the
				// dispatcher re-dispatches at the current EIP.
				return nil
			}
		}
		return nil
	}}
}

// fusePopRun fuses a run of single-byte pop instructions (loads only).
func fusePopRun(regs []uint8) blockUnit {
	return blockUnit{run: func(c *CPU) *isa.Event {
		for _, r := range regs {
			v, f := c.pop()
			if f != nil {
				return faultEv(c, f)
			}
			c.Regs[r] = v
			c.EIP++
			c.Clk.Advance(2)
		}
		return nil
	}}
}

// unitFor builds the closure for one instruction. Hot register/memory ops
// get specialized closures that skip the exec switch and Inst copy; the
// rest run through exec with Step's exact advance protocol.
func unitFor(in Inst, pc uint32) blockUnit {
	next := pc + uint32(in.Len)
	cost := uint64(in.Cost())
	switch {
	case in.Op == OpMOV && in.Format == FRR:
		d, s := in.R1, in.R2
		return blockUnit{run: func(c *CPU) *isa.Event {
			c.Regs[d] = c.Regs[s]
			c.EIP = next
			c.Clk.Advance(cost)
			return nil
		}}
	case in.Op == OpMOV && (in.Format == FRI8 || in.Format == FRI32):
		d, imm := in.R1, uint32(in.Imm)
		return blockUnit{run: func(c *CPU) *isa.Event {
			c.Regs[d] = imm
			c.EIP = next
			c.Clk.Advance(cost)
			return nil
		}}
	case in.Op == OpADD && in.Format == FRR:
		d, s := in.R1, in.R2
		return blockUnit{run: func(c *CPU) *isa.Event {
			a, b := c.Regs[d], c.Regs[s]
			c.Regs[d] = a + b
			c.setFlagsAdd(a, b, a+b)
			c.EIP = next
			c.Clk.Advance(cost)
			return nil
		}}
	case in.Op == OpADD && (in.Format == FRI8 || in.Format == FRI32):
		d, imm := in.R1, uint32(in.Imm)
		return blockUnit{run: func(c *CPU) *isa.Event {
			a := c.Regs[d]
			c.Regs[d] = a + imm
			c.setFlagsAdd(a, imm, a+imm)
			c.EIP = next
			c.Clk.Advance(cost)
			return nil
		}}
	case in.Op == OpSUB && (in.Format == FRI8 || in.Format == FRI32):
		d, imm := in.R1, uint32(in.Imm)
		return blockUnit{run: func(c *CPU) *isa.Event {
			a := c.Regs[d]
			c.Regs[d] = a - imm
			c.setFlagsSub(a, imm, a-imm)
			c.EIP = next
			c.Clk.Advance(cost)
			return nil
		}}
	case in.Op == OpINC && in.Format == FOpReg:
		d := in.R1
		return blockUnit{run: func(c *CPU) *isa.Event {
			c.Regs[d]++
			c.flagsIncDec(c.Regs[d], true)
			c.EIP = next
			c.Clk.Advance(cost)
			return nil
		}}
	case in.Op == OpDEC && in.Format == FOpReg:
		d := in.R1
		return blockUnit{run: func(c *CPU) *isa.Event {
			c.Regs[d]--
			c.flagsIncDec(c.Regs[d], false)
			c.EIP = next
			c.Clk.Advance(cost)
			return nil
		}}
	case in.Op == OpLEA && in.Format == FMem8:
		d, b, disp := in.R1, in.R2, uint32(in.Disp)
		return blockUnit{run: func(c *CPU) *isa.Event {
			c.Regs[d] = c.Regs[b] + disp
			c.EIP = next
			c.Clk.Advance(cost)
			return nil
		}}
	case in.Op == OpLD32 && (in.Format == FMem8 || in.Format == FMem32):
		d, b, disp := in.R1, in.R2, uint32(in.Disp)
		return blockUnit{run: func(c *CPU) *isa.Event {
			v, f := c.load(c.Regs[b]+disp, 4)
			if f != nil {
				return faultEv(c, f)
			}
			c.Regs[d] = v
			c.EIP = next
			c.Clk.Advance(cost)
			return nil
		}}
	case in.Op == OpST32 && (in.Format == FMem8 || in.Format == FMem32):
		s, b, disp := in.R1, in.R2, uint32(in.Disp)
		return blockUnit{stores: true, run: func(c *CPU) *isa.Event {
			if f := c.store(c.Regs[b]+disp, 4, c.Regs[s]); f != nil {
				return faultEv(c, f)
			}
			c.EIP = next
			c.Clk.Advance(cost)
			return nil
		}}
	case in.Op == OpPUSH && in.Format == FOpReg:
		s := in.R1
		return blockUnit{stores: true, run: func(c *CPU) *isa.Event {
			if f := c.push(c.Regs[s]); f != nil {
				return faultEv(c, f)
			}
			c.EIP = next
			c.Clk.Advance(cost)
			return nil
		}}
	case in.Op == OpPOP && in.Format == FOpReg:
		d := in.R1
		return blockUnit{run: func(c *CPU) *isa.Event {
			v, f := c.pop()
			if f != nil {
				return faultEv(c, f)
			}
			c.Regs[d] = v
			c.EIP = next
			c.Clk.Advance(cost)
			return nil
		}}
	case in.Op == OpJMP && (in.Format == FRel8 || in.Format == FRel32):
		target := next + uint32(in.Imm)
		return blockUnit{run: func(c *CPU) *isa.Event {
			c.EIP = target
			c.Clk.Advance(cost)
			return nil
		}}
	case in.Op == OpJCC:
		cc := in.Cc
		target := next + uint32(in.Imm)
		return blockUnit{run: func(c *CPU) *isa.Event {
			if c.Cond(cc) {
				c.EIP = target
			} else {
				c.EIP = next
			}
			c.Clk.Advance(cost)
			return nil
		}}
	case in.Op == OpCALL:
		target := next + uint32(in.Imm)
		return blockUnit{stores: true, run: func(c *CPU) *isa.Event {
			if f := c.push(next); f != nil {
				return faultEv(c, f)
			}
			c.EIP = target
			c.Clk.Advance(cost)
			return nil
		}}
	case in.Op == OpRET:
		return blockUnit{run: func(c *CPU) *isa.Event {
			v, f := c.pop()
			if f != nil {
				return faultEv(c, f)
			}
			c.EIP = v
			c.Clk.Advance(cost)
			return nil
		}}
	}
	// Generic unit: Step's protocol minus fetch/decode and the (guaranteed
	// unarmed) debug checks. exec never mutates the Inst.
	return blockUnit{stores: opStores(in.Op), run: func(c *CPU) *isa.Event {
		ev := c.exec(&in)
		if ev.Kind == isa.EvException {
			e := ev
			return &e
		}
		c.Clk.Advance(cost)
		if ev.Kind != isa.EvNone {
			e := ev
			return &e
		}
		return nil
	}}
}
