package risc

import (
	"kfi/internal/isa"
	"kfi/internal/mem"
)

// Decoded-instruction cache (predecode cache).
//
// RISC instructions are fixed-width words, so the cache keeps one decoded
// slot per word of a page, filled lazily as words are first executed. A hit
// copies the decoded Inst (and its precomputed cycle cost) and skips the
// fetch+decode of the reference interpreter.
//
// Invalidation is generation-based: every Step revalidates the page against
// internal/mem's per-page write-generation counter, so stores, injected bit
// flips, baseline restores, reboots, and protection changes are observed
// exactly as by the uncached interpreter. Unaligned PCs (reachable only
// through corruption) bypass the cache entirely, since an unaligned fetch can
// straddle a page boundary.

// Slot states.
const (
	slotEmpty uint8 = iota
	slotValid
	// slotInvalid records an illegal-instruction decode outcome.
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
	// in this page for each mode; false routes to the reference sequence so
	// faults (bad area vs machine check) are classified there.
	okKernel, okUser bool
	slots            mem.PageTable[islot] // by word index
}

// icacheMaxPages bounds the cache footprint (corrupted control flow can
// execute from arbitrary pages). Exceeding it drops the whole cache.
const icacheMaxPages = 128

// SetPredecode enables or disables the decoded-instruction cache. Disabling
// yields the reference interpreter and drops the cache.
func (c *CPU) SetPredecode(on bool) {
	c.NoPredecode = !on
	c.FlushPredecode()
}

// FlushPredecode drops every predecoded instruction; subsequent Steps refill
// lazily from RAM. Generation checks already invalidate stale slots, so this
// is a memory/benchmark control, not a correctness requirement.
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

// fetchDecode produces the instruction at PC and its cycle cost. ok=false
// means the returned event is the fetch/decode outcome exactly as the
// reference sequence reports it.
func (c *CPU) fetchDecode(in *Inst, cost *uint8) (isa.Event, bool) {
	if c.NoPredecode || c.PC&3 != 0 {
		return c.fetchDecodeSlow(in, cost)
	}
	page := c.PC / mem.PageSize
	pg := c.icLast
	if pg == nil || c.icLastPage != page {
		if c.PC >= c.Mem.Size() {
			return c.fetchDecodeSlow(in, cost)
		}
		pg = c.icachePageFor(page)
		c.icLast, c.icLastPage = pg, page
	}
	// Revalidate on every step: a store retired one instruction ago may have
	// rewritten the word this fetch is about to observe.
	if g := c.Mem.PageGen(page); pg.gen != g {
		c.icacheReset(pg, page, g)
	}
	user := c.user()
	if user && !pg.okUser || !user && !pg.okKernel {
		return c.fetchDecodeSlow(in, cost)
	}
	sl := pg.slots.At((c.PC & (mem.PageSize - 1)) >> 2)
	switch sl.state {
	case slotValid:
		*in, *cost = sl.inst, sl.cost
		return isa.Event{}, true
	case slotInvalid:
		return c.exception(isa.CauseIllegalInstr, c.PC), false
	}
	// Miss: run the reference sequence once and cache the outcome (an
	// aligned word never leaves the page).
	ev, ok := c.fetchDecodeSlow(in, cost)
	switch {
	case ok:
		sl.inst, sl.cost, sl.state = *in, *cost, slotValid
	case ev.Cause == isa.CauseIllegalInstr:
		sl.state = slotInvalid
	}
	return ev, ok
}

// fetchDecodeSlow is the reference fetch+decode sequence (the pre-cache Step
// body).
func (c *CPU) fetchDecodeSlow(in *Inst, cost *uint8) (isa.Event, bool) {
	rawBytes, f := c.Mem.Fetch(c.PC, 4, c.user())
	if f != nil {
		if f.Kind == mem.FaultBus {
			return c.exception(isa.CauseMachineCheck, f.Addr), false
		}
		return c.exception(isa.CauseBadArea, f.Addr), false
	}
	raw := uint32(rawBytes[0])<<24 | uint32(rawBytes[1])<<16 | uint32(rawBytes[2])<<8 | uint32(rawBytes[3])
	dec, err := Decode(raw)
	if err != nil {
		return c.exception(isa.CauseIllegalInstr, c.PC), false
	}
	*in, *cost = dec, costOf(dec.Op)
	return isa.Event{}, true
}
