package cisc

import (
	"kfi/internal/isa"
	"kfi/internal/mem"
	"kfi/internal/platform"
)

// Basic-block threaded-closure translator (platform.EngineTranslate).
//
// Straight-line guest code is decoded once into an array of fused Go
// closures — a translated basic block — keyed by page and entry offset and
// invalidated by internal/mem's per-page write-generation counters, the same
// counters that invalidate the predecode cache. Dispatch validates the
// entry page's generation before running a block, and any unit that may
// store revalidates afterwards, so guest stores and injected bit flips into
// translated code (including CISC length re-synchronization: the new byte
// stream decodes to different instructions of different lengths) drop the
// block and resume in freshly translated or interpreted code bit-identically
// to the reference interpreter.
//
// Soundness argument (DESIGN.md §18):
//   - A block only runs when PageGen(page) equals the generation it was
//     decoded against, so the bytes it was translated from are the bytes the
//     interpreter would fetch.
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
//   - Tracing and armed debug hardware (the injector's breakpoints) delegate
//     the whole RunUntil call to the interpreter, so trigger placement and
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
// page, so dispatch falls back to the interpreter without re-walking.
type tblock struct {
	units  []blockUnit
	total  uint64 // whole-block cycle cost
	ninstr int
}

// untranslatable is the shared negative-cache sentinel.
var untranslatable = &tblock{}

// tpage caches translated blocks for one guest page, keyed by entry byte
// offset (the CISC stream is variable-length: any byte can start a block).
type tpage struct {
	// gen is the mem generation the blocks were decoded against.
	gen uint64
	// okKernel/okUser record whether instruction fetch succeeds everywhere
	// in this page for each mode (flags are uniform across a page and cannot
	// change without a generation bump).
	okKernel, okUser bool
	nblocks          int
	blocks           [mem.PageSize]*tblock
}

const (
	// translateMaxPages bounds the translator footprint; exceeding it drops
	// the whole cache (corrupted control flow can execute anywhere).
	translateMaxPages = 48
	// translateMaxInstrs caps a block's instruction count.
	translateMaxInstrs = 64
)

// translator is the EngineTranslate implementation for the P4 core.
type translator struct {
	cpu      *CPU
	pages    map[uint32]*tpage
	last     *tpage
	lastPage uint32
	stats    platform.EngineStats
}

func newTranslator(cpu *CPU) *translator {
	// Fallback stepping goes through the predecode cache: outcomes are
	// identical either way and untranslatable stretches stay fast.
	cpu.SetPredecode(true)
	return &translator{cpu: cpu}
}

func (t *translator) Kind() platform.EngineKind { return platform.EngineTranslate }

func (t *translator) Stats() platform.EngineStats { return t.stats }
func (t *translator) ResetStats()                 { t.stats = platform.EngineStats{} }

// faultEv boxes a memory fault into the unit return protocol. Faults end the
// dispatch (and almost always the run), so the allocation is off the hot path.
func faultEv(c *CPU, f *mem.Fault) *isa.Event {
	ev := c.memFault(f)
	return &ev
}

// RunUntil dispatches translated blocks until the clock reaches limit or an
// instruction produces an event.
func (t *translator) RunUntil(limit uint64) isa.Event {
	c := t.cpu
	// Anything the block dispatcher cannot reproduce step-for-step —
	// tracing, armed debug hardware — delegates the whole call to the
	// interpreter. The armed state only changes between RunUntil calls
	// (hooks and the injector run with the machine paused), so checking
	// once up front is exact.
	if c.Trace != nil || c.Debug.Armed(isa.BreakInstruction) || c.Debug.Armed(isa.BreakData) {
		t.stats.Fallbacks++
		return c.RunUntil(limit)
	}
	// Step clears the pending data-break slot before each instruction; with
	// data breakpoints unarmed no unit can set it, so clearing once here
	// matches the interpreter's per-step reset.
	c.dbSlot = -1
	for c.Clk.Cycles() < limit {
		page, blk := t.lookup()
		if blk == nil || len(blk.units) == 0 {
			t.stats.Fallbacks++
			if ev := c.Step(); ev.Kind != isa.EvNone {
				return ev
			}
			continue
		}
		if c.Clk.Cycles()+blk.total > limit {
			// The block would overrun the cycle horizon: take one
			// interpreter step and re-dispatch (not a translation failure,
			// so not counted as a fallback).
			if ev := c.Step(); ev.Kind != isa.EvNone {
				return ev
			}
			continue
		}
		t.stats.Hits++
		pg := t.last
		for i := range blk.units {
			u := &blk.units[i]
			if ev := u.run(c); ev != nil {
				return *ev
			}
			if u.stores && c.Mem.PageGen(page) != pg.gen {
				// The guest stored into the executing code page (or an
				// injected flip landed there): abandon the rest of the
				// block and re-dispatch at the current EIP, which is
				// exactly the interpreter's refetch.
				break
			}
		}
	}
	return isa.Event{}
}

// lookup validates the page under EIP and returns its block (translating on
// first use), nil when the translator must not run here.
func (t *translator) lookup() (uint32, *tblock) {
	c := t.cpu
	if c.EIP >= c.Mem.Size() {
		return 0, nil
	}
	page := c.EIP / mem.PageSize
	pg := t.last
	if pg == nil || t.lastPage != page {
		pg = t.pageFor(page)
		t.last, t.lastPage = pg, page
	}
	if g := c.Mem.PageGen(page); pg.gen != g {
		t.resetPage(pg, page, g)
	}
	if u := c.user(); u && !pg.okUser || !u && !pg.okKernel {
		return page, nil
	}
	off := c.EIP & (mem.PageSize - 1)
	blk := pg.blocks[off]
	if blk == nil {
		blk = t.translate(c.EIP, pg.gen)
		pg.blocks[off] = blk
		pg.nblocks++
		if len(blk.units) > 0 {
			t.stats.Translated++
		}
	}
	return page, blk
}

func (t *translator) pageFor(page uint32) *tpage {
	pg := t.pages[page]
	if pg == nil {
		if t.pages == nil || len(t.pages) >= translateMaxPages {
			t.pages = make(map[uint32]*tpage, translateMaxPages)
		}
		pg = &tpage{gen: ^uint64(0)} // impossible generation: reset on first use
		t.pages[page] = pg
	}
	return pg
}

// resetPage drops a page's blocks and revalidates its fetchability for
// generation gen.
func (t *translator) resetPage(pg *tpage, page uint32, gen uint64) {
	if pg.nblocks > 0 {
		t.stats.Invalidations++
	}
	*pg = tpage{
		gen:      gen,
		okKernel: t.cpu.Mem.PageFetchable(page, false),
		okUser:   t.cpu.Mem.PageFetchable(page, true),
	}
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

// translate decodes the straight-line run starting at addr (whose page is at
// generation gen) into a block of fused closures. Decoding stops at a block
// terminator, an undecodable byte, a page-straddling instruction, or the
// instruction cap; an immediately-undecodable entry yields the negative
// sentinel so dispatch falls back without re-walking.
func (t *translator) translate(addr uint32, gen uint64) *tblock {
	c := t.cpu
	page := addr / mem.PageSize
	var (
		ins []Inst
		pcs []uint32
	)
	for len(ins) < translateMaxInstrs {
		off := addr & (mem.PageSize - 1)
		b := c.Mem.PeekBytes(addr, 1)
		if b == nil {
			break
		}
		e := &opTable[b[0]]
		if e.op == OpInvalid {
			break // undecodable byte: the interpreter raises the fault
		}
		n := uint32(e.format.Length())
		if off+n > mem.PageSize {
			break // straddler: cross-page fault ordering stays interpreted
		}
		raw := c.Mem.PeekBytes(addr, n)
		if raw == nil {
			break
		}
		dec, err := Decode(raw)
		if err != nil {
			break
		}
		ins = append(ins, dec)
		pcs = append(pcs, addr)
		addr += n
		if ciscTerminator(dec.Op) || addr/mem.PageSize != page {
			break
		}
	}
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
