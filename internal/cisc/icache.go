package cisc

import (
	"kfi/internal/isa"
	"kfi/internal/mem"
)

// Decoded-instruction cache (predecode cache).
//
// The interpreter's hot loop used to fetch and decode every instruction on
// every Step. This cache keeps one decoded slot per byte offset of a page —
// the CISC stream is variable-length, so any byte can start an instruction,
// which is exactly what lets an injected bit flip re-synchronize the stream
// into a different valid sequence — and fills slots lazily as offsets are
// first executed. A hit copies the decoded Inst and skips fetch+decode.
//
// Correctness under fault injection is the contract: the cache revalidates
// its page against internal/mem's per-page write-generation counter on every
// Step, so any store, injected bit flip, baseline restore, reboot, or
// protection change made since the page was predecoded drops the page's
// slots before they can be used. Instructions that straddle a page boundary
// and offsets whose decode depends on bytes beyond the page are never
// cached; they take the uncached path each time, keeping cross-page fault
// ordering byte-identical to the reference interpreter.

// Slot states.
const (
	slotEmpty uint8 = iota
	slotValid
	// slotInvalid records an invalid-opcode outcome whose cause lies
	// entirely within the page, so the exception replays without a fetch.
	slotInvalid
)

type islot struct {
	state uint8
	cost  uint8
	inst  Inst
}

type icachePage struct {
	// gen is the mem generation the slots were decoded against.
	gen uint64
	// okKernel/okUser record whether instruction fetch succeeds everywhere
	// in this page for each mode (page flags are uniform across a page and
	// cannot change without a generation bump). When the current mode's
	// flag is false the fast path is skipped so faults are reported by the
	// reference sequence.
	okKernel, okUser bool
	slots            mem.PageTable[islot]
}

// icacheMaxPages bounds the cache footprint: corrupted control flow can
// execute from arbitrary pages. Each cached page costs a slot chunk per
// 64-byte stretch it executed from (mem.PageTable). Exceeding the bound
// drops the whole cache (refill is cheap and rare).
const icacheMaxPages = 64

// SetPredecode enables or disables the decoded-instruction cache. Disabling
// yields the reference interpreter (fetch+decode every Step) and drops the
// cache; the equivalence tests and benchmarks run both modes.
func (c *CPU) SetPredecode(on bool) {
	c.NoPredecode = !on
	c.FlushPredecode()
}

// FlushPredecode drops every predecoded instruction; subsequent Steps refill
// lazily from RAM. Never required for correctness — generation checks already
// invalidate stale slots — but useful to bound memory or establish a cold
// cache.
func (c *CPU) FlushPredecode() {
	c.icache = nil
	c.icLast = nil
}

// icachePageFor returns (creating if needed) the cache page for a page index.
func (c *CPU) icachePageFor(page uint32) *icachePage {
	pg := c.icache[page]
	if pg == nil {
		if c.icache == nil || len(c.icache) >= icacheMaxPages {
			c.icache = make(map[uint32]*icachePage, icacheMaxPages)
		}
		pg = new(icachePage)
		pg.gen = ^uint64(0) // impossible generation: force a reset on first use
		c.icache[page] = pg
	}
	return pg
}

// icacheReset drops a page's slots and revalidates its fetchability for the
// generation gen.
func (c *CPU) icacheReset(pg *icachePage, page uint32, gen uint64) {
	pg.gen = gen
	pg.okKernel = c.Mem.PageFetchable(page, false)
	pg.okUser = c.Mem.PageFetchable(page, true)
	pg.slots.Clear()
}

// fetchDecode produces the instruction at EIP and its cycle cost. ok=false
// means the returned event is the fetch/decode outcome (memory fault or
// invalid opcode) exactly as the reference sequence reports it.
func (c *CPU) fetchDecode(in *Inst, cost *uint8) (isa.Event, bool) {
	if c.NoPredecode {
		return c.fetchDecodeSlow(in, cost)
	}
	page := c.EIP / mem.PageSize
	pg := c.icLast
	if pg == nil || c.icLastPage != page {
		if c.EIP >= c.Mem.Size() {
			return c.fetchDecodeSlow(in, cost)
		}
		pg = c.icachePageFor(page)
		c.icLast, c.icLastPage = pg, page
	}
	// Revalidate on every step: a store retired one instruction ago may have
	// rewritten the bytes this fetch is about to observe.
	if g := c.Mem.PageGen(page); pg.gen != g {
		c.icacheReset(pg, page, g)
	}
	user := c.user()
	if user && !pg.okUser || !user && !pg.okKernel {
		return c.fetchDecodeSlow(in, cost)
	}
	off := c.EIP & (mem.PageSize - 1)
	sl := pg.slots.At(off)
	switch sl.state {
	case slotValid:
		*in, *cost = sl.inst, sl.cost
		return isa.Event{}, true
	case slotInvalid:
		return c.exception(isa.CauseInvalidInstr, c.EIP), false
	}
	// Miss: run the reference sequence once, caching outcomes that depend
	// only on bytes inside this page.
	first, f := c.Mem.Fetch(c.EIP, 1, user)
	if f != nil {
		return c.memFault(f), false
	}
	e := &opTable[first[0]]
	if e.op == OpInvalid {
		sl.state = slotInvalid // determined by byte 0 alone, always in-page
		return c.exception(isa.CauseInvalidInstr, c.EIP), false
	}
	n := uint32(e.format.Length())
	raw, f := c.Mem.Fetch(c.EIP, n, user)
	if f != nil {
		return c.memFault(f), false // straddles into a faulting page: uncacheable
	}
	dec, err := Decode(raw)
	inPage := off+n <= mem.PageSize
	if err != nil {
		if inPage {
			sl.state = slotInvalid
		}
		return c.exception(isa.CauseInvalidInstr, c.EIP), false
	}
	if inPage {
		sl.inst, sl.cost, sl.state = dec, e.cost, slotValid
	}
	*in, *cost = dec, e.cost
	return isa.Event{}, true
}

// fetchDecodeSlow is the reference fetch+decode sequence (the pre-cache Step
// body): one byte for the opcode, then the full instruction.
func (c *CPU) fetchDecodeSlow(in *Inst, cost *uint8) (isa.Event, bool) {
	first, f := c.Mem.Fetch(c.EIP, 1, c.user())
	if f != nil {
		return c.memFault(f), false
	}
	e := &opTable[first[0]]
	if e.op == OpInvalid {
		return c.exception(isa.CauseInvalidInstr, c.EIP), false
	}
	n := uint32(e.format.Length())
	raw, f := c.Mem.Fetch(c.EIP, n, c.user())
	if f != nil {
		return c.memFault(f), false
	}
	dec, err := Decode(raw)
	if err != nil {
		return c.exception(isa.CauseInvalidInstr, c.EIP), false
	}
	*in, *cost = dec, e.cost
	return isa.Event{}, true
}
