package risc

import (
	"encoding/binary"

	"kfi/internal/isa"
	"kfi/internal/mem"
	"kfi/internal/platform"
)

// Basic-block threaded-closure translator, the G4 core's execution engine.
//
// The translator keeps the G4 core's decoded guest code in the shared
// platform.CodeCache: per guest page, the instruction decoded at each word
// a single step ran (a slot) and the block translated from each entry word,
// all invalidated by internal/mem's per-page write-generation counters.
// Straight-line guest code becomes an array of fused Go closures — a
// translated basic block — decoded by the slots' decoder; anything the
// blocks cannot run takes single steps with CPU.Step's phases, decoding
// through the slots. The fixed-width stream makes translation simpler than
// on the CISC core (no length re-synchronization), so the RISC translator
// leans harder on specialization: most ops compile to closures that capture
// their operand indices and immediates and skip the exec switch entirely,
// and maximal runs of fault-free register ops fuse into single closures
// that retire the PC and clock once for the whole run (legal because
// nothing inside such a run can fault or raise an event, so no
// intermediate PC or cycle count is architecturally observable).
//
// The soundness argument is the CISC translator's (see
// internal/cisc/translate.go and DESIGN.md §18), with two extra
// preconditions owned by this ISA: instruction translation must be on
// (MSR[IR], otherwise Step machine-checks) and the PC must be word-aligned
// (unaligned fetches can straddle pages and always take the reference
// sequence). MSR is constant within a block — mtmsr, rfi, and sc all
// terminate blocks — so both are checked once per dispatch.

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
// cache entry: the entry word is undecodable, so dispatch steps without
// re-walking.
type tblock struct {
	units  []blockUnit
	total  uint64 // whole-block cycle cost
	ninstr int
}

// untranslatable is the shared negative-cache sentinel.
var untranslatable = &tblock{}

// Slot decode states.
const (
	slotEmpty uint8 = iota
	slotValid
	slotInvalid // an illegal-instruction decode outcome
)

// tslot is the instruction decoded at one word of a cached page.
type tslot struct {
	state uint8
	cost  uint8
	inst  Inst
}

const (
	// translateMaxPages is the G4's page bound of the shared code cache.
	translateMaxPages = 128
	// translateMaxInstrs caps a block's instruction count.
	translateMaxInstrs = 64
)

// translator is the G4 core's execution engine: its dispatch loop, slot
// decoding and block building over the shared code cache, keyed by word
// index (every instruction is one aligned 32-bit word).
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

// RunUntil dispatches translated blocks until the clock reaches limit or an
// instruction produces an event. Where no block may run it takes single
// steps: CPU.Step's phases, with the decode served from PC's slot.
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
						// of the block and re-dispatch at the current PC,
						// which is exactly the interpreter's refetch.
						break
					}
				}
				continue
			}
		}
		if s := c.instrBreak(); s >= 0 {
			return isa.Event{Kind: isa.EvInstrBreak, Slot: s, BreakAddr: c.PC}
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
			ev = c.exception(isa.CauseIllegalInstr, c.PC)
		}
		if ev.Kind != isa.EvNone {
			return ev
		}
	}
	return isa.Event{}
}

// slot returns the decoded slot at PC, nil when the reference fetch must
// serve it instead (see page).
func (t *translator) slot() *tslot {
	c := t.cpu
	pg := t.page()
	if pg == nil {
		return nil
	}
	sl := pg.Slot((c.PC & (mem.PageSize - 1)) >> 2)
	if sl.state == slotEmpty {
		t.decode(sl, c.PC)
	}
	return sl
}

// lookup returns the block at PC (translating on first use) and its page,
// nil when the translator must not run here.
func (t *translator) lookup() (*platform.CodePage[tslot, tblock], *tblock) {
	c := t.cpu
	pg := t.page()
	if pg == nil {
		return nil, nil
	}
	i := (c.PC & (mem.PageSize - 1)) >> 2
	blk := pg.Block(i)
	if blk == nil {
		blk = t.translate(c.PC)
		t.AddBlock(pg, i, blk)
		if len(blk.units) > 0 {
			t.Counters.Translated++
		}
	}
	return pg, blk
}

// page returns the validated cache page under PC, nil when the slots must
// not serve this fetch: instruction translation off (MSR[IR] clear, so Step
// machine-checks), an unaligned PC (the fetch can straddle pages), or see
// CodeCache.Page. The reference sequence then reports the fetch.
func (t *translator) page() *platform.CodePage[tslot, tblock] {
	c := t.cpu
	if c.MSR&MSRIR == 0 || c.PC&3 != 0 {
		return nil
	}
	return t.Page(c.PC, c.user())
}

// decode fills the empty slot sl of the aligned word addr, in a validated
// page the current mode can fetch from.
func (t *translator) decode(sl *tslot, addr uint32) {
	dec, err := Decode(binary.BigEndian.Uint32(t.cpu.Mem.PeekBytes(addr, 4)))
	if err != nil {
		sl.state = slotInvalid
		return
	}
	sl.inst, sl.cost, sl.state = dec, costOf(dec.Op), slotValid
}

// riscTerminator reports ops that end a basic block: control transfers,
// event-raising ops, and mtmsr/rfi, which can change the translation and
// privilege state the dispatch preconditions were checked under.
func riscTerminator(op Op) bool {
	switch op {
	case OpB, OpBC, OpBCLR, OpBCCTR, OpSC, OpRFI, OpMTMSR, OpCTXSW, OpHALT:
		return true
	default:
		return false
	}
}

// opStores reports ops that may write guest memory.
func opStores(op Op) bool {
	switch op {
	case OpSTW, OpSTWU, OpSTB, OpSTH, OpSTWX, OpSTBX, OpSTHX:
		return true
	default:
		return false
	}
}

// faultEv boxes an event into the unit return protocol. Events end the
// dispatch (and almost always the run), so the allocation is off the hot
// path.
func faultEv(ev isa.Event) *isa.Event { return &ev }

// translate decodes the straight-line run starting at addr (word-aligned)
// with the slots' decoder into a block of fused closures. Decoding stops at
// a block terminator, an undecodable word, the page boundary, or the
// instruction cap; an immediately-undecodable entry yields the negative
// sentinel so dispatch steps without re-walking. As on the CISC core the
// decoded words are not kept as slots: code that runs as blocks needs none.
func (t *translator) translate(addr uint32) *tblock {
	page := addr / mem.PageSize
	ins, pcs := t.ins[:0], t.pcs[:0]
	for len(ins) < translateMaxInstrs {
		var sl tslot
		t.decode(&sl, addr)
		if sl.state != slotValid {
			break // illegal word: the step path raises the fault
		}
		ins = append(ins, sl.inst)
		pcs = append(pcs, addr)
		addr += 4
		if riscTerminator(sl.inst.Op) || addr/mem.PageSize != page {
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
		// Superinstruction: CR0 compare + conditional branch.
		if isCmpCR0(in) && i+1 < len(ins) && ins[i+1].Op == OpBC {
			blk.units = append(blk.units, fuseCmpBc(*in, ins[i+1], pcs[i]))
			i += 2
			continue
		}
		// Superinstruction: a maximal run of fault-free register ops fuses
		// into one closure with a single PC/clock retire.
		if j := microRunEnd(ins, i); j-i >= 2 {
			blk.units = append(blk.units, fuseMicroRun(ins[i:j], pcs[j-1]+4))
			i = j
			continue
		}
		u := unitFor(*in, pcs[i])
		// Superinstruction: load followed by a fault-free register op.
		if !u.stores && isFusableLoad(in.Op) && i+1 < len(ins) && isFusableALU(ins[i+1].Op) {
			blk.units = append(blk.units, chainUnits(u, unitFor(ins[i+1], pcs[i+1])))
			i += 2
			continue
		}
		blk.units = append(blk.units, u)
		i++
	}
	return blk
}

func isCmpCR0(in *Inst) bool {
	switch in.Op {
	case OpCMPWI, OpCMPLWI, OpCMPW, OpCMPLW:
		return true
	default:
		return false
	}
}

func isFusableLoad(op Op) bool {
	switch op {
	case OpLWZ, OpLBZ, OpLHZ, OpLHA, OpLWZX, OpLBZX, OpLHZX, OpLHAX:
		return true
	default:
		return false
	}
}

// isFusableALU reports fault-free register ops safe to chain behind a load.
func isFusableALU(op Op) bool {
	switch op {
	case OpADDI, OpADDIS, OpMULLI, OpORI, OpORIS, OpXORI, OpANDIRc, OpRLWINM,
		OpCMPWI, OpCMPLWI, OpCMPW, OpCMPLW,
		OpADD, OpSUBF, OpNEG, OpMULLW, OpAND, OpOR, OpXOR, OpNOR,
		OpSLW, OpSRW, OpSRAW, OpSRAWI, OpEXTSB, OpEXTSH, OpMFCR, OpMTCRF:
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

// --- Fault-free register-run fusion ---------------------------------------

// microRunEnd returns the end of the maximal riscMicro-eligible run starting
// at i. A trailing CR0 compare directly before a bc is left out so the
// compare+branch superinstruction still fires.
func microRunEnd(ins []Inst, i int) int {
	j := i
	for j < len(ins) && riscMicro(ins[j]) != nil {
		j++
	}
	if j > i && j < len(ins) && ins[j].Op == OpBC && isCmpCR0(&ins[j-1]) {
		j--
	}
	return j
}

// fuseMicroRun compiles ins (all riscMicro-eligible) into one closure: the
// bodies run back to back, then the PC and the clock retire once. Nothing in
// the run can fault or raise an event, so the skipped intermediate PC and
// cycle values are unobservable.
func fuseMicroRun(ins []Inst, end uint32) blockUnit {
	var cost uint64
	ops := make([]func(*CPU), len(ins))
	for k := range ins {
		ops[k] = riscMicro(ins[k])
		cost += uint64(ins[k].Cost())
	}
	switch len(ops) {
	case 2:
		f0, f1 := ops[0], ops[1]
		return blockUnit{run: func(c *CPU) *isa.Event {
			f0(c)
			f1(c)
			c.PC = end
			c.Clk.Advance(cost)
			return nil
		}}
	case 3:
		f0, f1, f2 := ops[0], ops[1], ops[2]
		return blockUnit{run: func(c *CPU) *isa.Event {
			f0(c)
			f1(c)
			f2(c)
			c.PC = end
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
			c.PC = end
			c.Clk.Advance(cost)
			return nil
		}}
	}
	return blockUnit{run: func(c *CPU) *isa.Event {
		for _, f := range ops {
			f(c)
		}
		c.PC = end
		c.Clk.Advance(cost)
		return nil
	}}
}

// riscMicro builds the body closure for one run member — the architectural
// effect minus PC/clock, which the enclosing run retires once — or nil when
// the op is not a fault-free register op. It doubles as the run-membership
// predicate: every non-nil body is safe to fuse.
func riscMicro(in Inst) func(*CPU) {
	switch in.Op {
	case OpADDI:
		d, a, imm := in.RD, in.RA, uint32(in.SIMM)
		if a == 0 {
			return func(c *CPU) { c.R[d] = imm }
		}
		return func(c *CPU) { c.R[d] = c.R[a] + imm }
	case OpADDIS:
		d, a, imm := in.RD, in.RA, uint32(in.SIMM)<<16
		if a == 0 {
			return func(c *CPU) { c.R[d] = imm }
		}
		return func(c *CPU) { c.R[d] = c.R[a] + imm }
	case OpMULLI:
		d, a, imm := in.RD, in.RA, in.SIMM
		return func(c *CPU) { c.R[d] = uint32(int32(c.R[a]) * imm) }
	case OpORI:
		a, s, imm := in.RA, in.RD, in.UIMM
		return func(c *CPU) { c.R[a] = c.R[s] | imm }
	case OpORIS:
		a, s, imm := in.RA, in.RD, in.UIMM<<16
		return func(c *CPU) { c.R[a] = c.R[s] | imm }
	case OpXORI:
		a, s, imm := in.RA, in.RD, in.UIMM
		return func(c *CPU) { c.R[a] = c.R[s] ^ imm }
	case OpANDIRc:
		a, s, imm := in.RA, in.RD, in.UIMM
		return func(c *CPU) {
			c.R[a] = c.R[s] & imm
			c.setCR0(int32(c.R[a]))
		}
	case OpRLWINM:
		a, s, sh, rc := in.RA, in.RD, uint32(in.SH&31), in.Rc
		mask := maskMBME(in.MB, in.ME)
		return func(c *CPU) {
			v := c.R[s]
			rot := v
			if sh != 0 {
				rot = v<<sh | v>>(32-sh)
			}
			c.R[a] = rot & mask
			if rc {
				c.setCR0(int32(c.R[a]))
			}
		}
	case OpCMPWI, OpCMPLWI, OpCMPW, OpCMPLW:
		in := in
		return func(c *CPU) { cmpCR0(c, &in) }
	case OpADD:
		d, a, b := in.RD, in.RA, in.RB
		return func(c *CPU) { c.R[d] = c.R[a] + c.R[b] }
	case OpSUBF:
		d, a, b := in.RD, in.RA, in.RB
		return func(c *CPU) { c.R[d] = c.R[b] - c.R[a] }
	case OpNEG:
		d, a := in.RD, in.RA
		return func(c *CPU) { c.R[d] = -c.R[a] }
	case OpMULLW:
		d, a, b := in.RD, in.RA, in.RB
		return func(c *CPU) { c.R[d] = uint32(int32(c.R[a]) * int32(c.R[b])) }
	case OpAND:
		a, s, b := in.RA, in.RD, in.RB
		return func(c *CPU) { c.R[a] = c.R[s] & c.R[b] }
	case OpOR:
		a, s, b := in.RA, in.RD, in.RB
		return func(c *CPU) { c.R[a] = c.R[s] | c.R[b] }
	case OpXOR:
		a, s, b := in.RA, in.RD, in.RB
		return func(c *CPU) { c.R[a] = c.R[s] ^ c.R[b] }
	case OpNOR:
		a, s, b := in.RA, in.RD, in.RB
		return func(c *CPU) { c.R[a] = ^(c.R[s] | c.R[b]) }
	case OpSLW:
		a, s, b := in.RA, in.RD, in.RB
		return func(c *CPU) {
			sh := c.R[b] & 63
			if sh > 31 {
				c.R[a] = 0
			} else {
				c.R[a] = c.R[s] << sh
			}
		}
	case OpSRW:
		a, s, b := in.RA, in.RD, in.RB
		return func(c *CPU) {
			sh := c.R[b] & 63
			if sh > 31 {
				c.R[a] = 0
			} else {
				c.R[a] = c.R[s] >> sh
			}
		}
	case OpSRAW:
		a, s, b := in.RA, in.RD, in.RB
		return func(c *CPU) {
			sh := c.R[b] & 63
			if sh > 31 {
				sh = 31
			}
			c.R[a] = uint32(int32(c.R[s]) >> sh)
		}
	case OpSRAWI:
		a, s, sh := in.RA, in.RD, in.SH&31
		return func(c *CPU) { c.R[a] = uint32(int32(c.R[s]) >> sh) }
	case OpEXTSB:
		a, s := in.RA, in.RD
		return func(c *CPU) { c.R[a] = uint32(int32(int8(c.R[s]))) }
	case OpEXTSH:
		a, s := in.RA, in.RD
		return func(c *CPU) { c.R[a] = uint32(int32(int16(c.R[s]))) }
	case OpMFCR:
		d := in.RD
		return func(c *CPU) { c.R[d] = c.CR }
	case OpMTCRF:
		s := in.RD
		return func(c *CPU) { c.CR = c.R[s] }
	case OpISYNC, OpSYNC:
		return func(c *CPU) {}
	case OpMFSPR:
		d := in.RD
		switch in.SPR {
		case SprXER:
			return func(c *CPU) { c.R[d] = c.XER }
		case SprLR:
			return func(c *CPU) { c.R[d] = c.LR }
		case SprCTR:
			return func(c *CPU) { c.R[d] = c.CTR }
		}
	case OpMTSPR:
		s := in.RD
		switch in.SPR {
		case SprXER:
			return func(c *CPU) { c.XER = c.R[s] }
		case SprLR:
			return func(c *CPU) { c.LR = c.R[s] }
		case SprCTR:
			return func(c *CPU) { c.CTR = c.R[s] }
		}
	}
	return nil
}

// cmpCR0 applies one of the four CR0 compare forms.
func cmpCR0(c *CPU, in *Inst) {
	switch in.Op {
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
	}
}

// fuseCmpBc builds the compare+branch superinstruction. The compare is
// fault-free and retires fully (its cycle is charged) before the branch
// runs with the interpreter's exact bc protocol, including the CTR
// decrement forms and the invalid-BTIC taken-branch exception.
func fuseCmpBc(cmp, bc Inst, cmpPC uint32) blockUnit {
	bcPC := cmpPC + 4
	next := bcPC + 4
	target := bcPC + uint32(bc.SIMM)
	if bc.AA {
		target = uint32(bc.SIMM)
	}
	cmpCost := uint64(cmp.Cost())
	bcCost := uint64(bc.Cost())
	bo, bi, lk := bc.BO, bc.BI, bc.LK
	return blockUnit{run: func(c *CPU) *isa.Event {
		cmpCR0(c, &cmp)
		c.PC = bcPC
		c.Clk.Advance(cmpCost)
		taken := c.branchTaken(bo, bi)
		if lk {
			c.LR = next
		}
		if taken {
			if ev := c.branchTo(target); ev != nil {
				return ev
			}
		} else {
			c.PC = next
		}
		c.Clk.Advance(bcCost)
		return nil
	}}
}

// unitFor builds the closure for one instruction. The fixed-width ISA makes
// specialization pay: almost every op compiles to a closure over its operand
// indices and immediates, skipping the exec switch and the Inst copy. The
// few privileged or rarely-executed ops run through exec with Step's exact
// advance protocol.
func unitFor(in Inst, pc uint32) blockUnit {
	next := pc + 4
	cost := uint64(in.Cost())
	// Fault-free register ops share their bodies with the run fuser.
	if body := riscMicro(in); body != nil {
		return blockUnit{run: func(c *CPU) *isa.Event {
			body(c)
			c.PC = next
			c.Clk.Advance(cost)
			return nil
		}}
	}
	switch in.Op {
	// Loads (D-form and indexed).
	case OpLWZ, OpLBZ, OpLHZ, OpLHA:
		d, a, disp := in.RD, in.RA, uint32(in.SIMM)
		size := uint32(4)
		switch in.Op {
		case OpLBZ:
			size = 1
		case OpLHZ, OpLHA:
			size = 2
		}
		signExt := in.Op == OpLHA
		return blockUnit{run: func(c *CPU) *isa.Event {
			addr := disp
			if a != 0 {
				addr += c.R[a]
			}
			v, ev := c.load(addr, size)
			if ev != nil {
				return ev
			}
			if signExt {
				v = uint32(int32(int16(v)))
			}
			c.R[d] = v
			c.PC = next
			c.Clk.Advance(cost)
			return nil
		}}
	case OpLWZX, OpLBZX, OpLHZX, OpLHAX:
		d, a, b := in.RD, in.RA, in.RB
		size := uint32(4)
		switch in.Op {
		case OpLBZX:
			size = 1
		case OpLHZX, OpLHAX:
			size = 2
		}
		signExt := in.Op == OpLHAX
		return blockUnit{run: func(c *CPU) *isa.Event {
			addr := c.R[b]
			if a != 0 {
				addr += c.R[a]
			}
			v, ev := c.load(addr, size)
			if ev != nil {
				return ev
			}
			if signExt {
				v = uint32(int32(int16(v)))
			}
			c.R[d] = v
			c.PC = next
			c.Clk.Advance(cost)
			return nil
		}}

	// Stores (D-form, update form, and indexed).
	case OpSTW, OpSTB, OpSTH:
		s, a, disp := in.RD, in.RA, uint32(in.SIMM)
		size := uint32(4)
		switch in.Op {
		case OpSTB:
			size = 1
		case OpSTH:
			size = 2
		}
		return blockUnit{stores: true, run: func(c *CPU) *isa.Event {
			addr := disp
			if a != 0 {
				addr += c.R[a]
			}
			if ev := c.store(addr, size, c.R[s]); ev != nil {
				return ev
			}
			c.PC = next
			c.Clk.Advance(cost)
			return nil
		}}
	case OpSTWU:
		s, a, disp := in.RD, in.RA, uint32(in.SIMM)
		return blockUnit{stores: true, run: func(c *CPU) *isa.Event {
			addr := c.R[a] + disp
			if ev := c.store(addr, 4, c.R[s]); ev != nil {
				return ev
			}
			c.R[a] = addr
			c.PC = next
			c.Clk.Advance(cost)
			return nil
		}}
	case OpSTWX, OpSTBX, OpSTHX:
		s, a, b := in.RD, in.RA, in.RB
		size := uint32(4)
		switch in.Op {
		case OpSTBX:
			size = 1
		case OpSTHX:
			size = 2
		}
		return blockUnit{stores: true, run: func(c *CPU) *isa.Event {
			addr := c.R[b]
			if a != 0 {
				addr += c.R[a]
			}
			if ev := c.store(addr, size, c.R[s]); ev != nil {
				return ev
			}
			c.PC = next
			c.Clk.Advance(cost)
			return nil
		}}

	// Branches (block terminators) replicate exec's ordering exactly: the
	// LR update happens even for untaken conditional branches, branchTo runs
	// after the link update, and its BTIC exception returns with the PC
	// already redirected and the clock not yet advanced.
	case OpB:
		target := next - 4 + uint32(in.SIMM)
		if in.AA {
			target = uint32(in.SIMM)
		}
		lk := in.LK
		return blockUnit{run: func(c *CPU) *isa.Event {
			if lk {
				c.LR = next
			}
			if ev := c.branchTo(target); ev != nil {
				return ev
			}
			c.Clk.Advance(cost)
			return nil
		}}
	case OpBC:
		target := next - 4 + uint32(in.SIMM)
		if in.AA {
			target = uint32(in.SIMM)
		}
		bo, bi, lk := in.BO, in.BI, in.LK
		return blockUnit{run: func(c *CPU) *isa.Event {
			taken := c.branchTaken(bo, bi)
			if lk {
				c.LR = next
			}
			if taken {
				if ev := c.branchTo(target); ev != nil {
					return ev
				}
			} else {
				c.PC = next
			}
			c.Clk.Advance(cost)
			return nil
		}}
	case OpBCLR:
		bo, bi, lk := in.BO, in.BI, in.LK
		return blockUnit{run: func(c *CPU) *isa.Event {
			taken := c.branchTaken(bo, bi)
			target := c.LR
			if lk {
				c.LR = next
			}
			if taken {
				if ev := c.branchTo(target); ev != nil {
					return ev
				}
			} else {
				c.PC = next
			}
			c.Clk.Advance(cost)
			return nil
		}}
	case OpBCCTR:
		bo, bi, lk := in.BO|4, in.BI, in.LK // CTR forms are invalid for bcctr
		return blockUnit{run: func(c *CPU) *isa.Event {
			taken := c.branchTaken(bo, bi)
			if lk {
				c.LR = next
			}
			if taken {
				if ev := c.branchTo(c.CTR); ev != nil {
					return ev
				}
			} else {
				c.PC = next
			}
			c.Clk.Advance(cost)
			return nil
		}}
	}
	// Generic unit: Step's protocol minus fetch/decode and the (guaranteed
	// unarmed) debug checks — privileged SPR/MSR access, traps, sc, rfi,
	// the simulator extensions. exec never mutates the Inst.
	return blockUnit{stores: opStores(in.Op), run: func(c *CPU) *isa.Event {
		ev := c.exec(&in)
		if ev.Kind == isa.EvException {
			return faultEv(ev)
		}
		c.Clk.Advance(cost)
		if ev.Kind != isa.EvNone {
			return faultEv(ev)
		}
		return nil
	}}
}
