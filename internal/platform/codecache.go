package platform

import "kfi/internal/mem"

// translateMaxBlocks bounds the cached blocks across all pages; exceeding it
// drops every block but keeps the decoded slots. The kernel's working set is
// a few hundred blocks, while a flip that sends control flow through data
// translates thousands, and those would otherwise stay live until their
// pages change.
const translateMaxBlocks = 2048

// CodeCache is the decoded-code cache both translators share: per guest
// page, a slot S for each instruction position a single step decoded and a
// block B for each entry a dispatch translated. What a slot or block holds,
// how a position is indexed (byte offset on the P4, word index on the G4)
// and when the cache may serve a fetch at all are the ISA's; the policy here
// is common to both:
//
//   - A page is used only at the mem write generation its slots and blocks
//     were decoded against. Page revalidates on every use and drops both
//     when the generation moved, so guest stores and injected bit flips
//     into cached code resume in freshly decoded code, bit-identically to
//     the reference interpreter.
//   - Per-mode fetchability (a fetch succeeds everywhere in the page) is
//     re-read at each generation; a page the current mode cannot fetch from
//     is not served, so the reference sequence reports the fault.
//   - The page bound (per ISA) drops the whole cache: corrupted control
//     flow can execute anywhere. The block bound drops every block and
//     keeps the slots.
//
// The hit path — Page, then Block — makes no closure or interface call and
// allocates nothing once the page's tables exist; decoding and translation
// happen in the caller, only on a miss.
type CodeCache[S, B any] struct {
	mem      *mem.Memory
	maxPages int
	pages    map[uint32]*CodePage[S, B]
	last     *CodePage[S, B] // the page Page looked up last
	nblocks  int             // cached blocks across all pages
	// Counters are the engine's observability counters: the cache counts
	// Invalidations, the translator Translated, Hits and Fallbacks.
	Counters EngineStats
}

// CodePage caches the decoded code of one guest page.
type CodePage[S, B any] struct {
	// gen is the mem generation the slots and blocks were decoded against.
	gen  uint64
	page uint32 // the guest page index
	// okKernel/okUser record whether instruction fetch succeeds everywhere
	// in this page for each mode (flags are uniform across a page and cannot
	// change without a generation bump).
	okKernel, okUser bool
	nblocks          int
	slots            mem.PageTable[S]  // instructions single steps decoded
	blocks           mem.PageTable[*B] // blocks by entry, nil until first dispatched
}

// NewCodeCache returns an empty cache over m holding at most maxPages pages.
func NewCodeCache[S, B any](m *mem.Memory, maxPages int) CodeCache[S, B] {
	return CodeCache[S, B]{mem: m, maxPages: maxPages}
}

// Stats returns the counters since construction or the last ResetStats.
func (cc *CodeCache[S, B]) Stats() EngineStats { return cc.Counters }

// ResetStats zeroes the counters.
func (cc *CodeCache[S, B]) ResetStats() { cc.Counters = EngineStats{} }

// Page returns the validated cache page holding addr, nil when addr is
// outside RAM or the mode (user or kernel) cannot fetch everywhere in the
// page.
func (cc *CodeCache[S, B]) Page(addr uint32, user bool) *CodePage[S, B] {
	if addr >= cc.mem.Size() {
		return nil
	}
	page := addr / mem.PageSize
	pg := cc.last
	if pg == nil || pg.page != page {
		pg = cc.pageFor(page)
		cc.last = pg
	}
	// Revalidate on every use: a store retired one instruction ago may have
	// rewritten the bytes this fetch is about to observe.
	if g := cc.mem.PageGen(page); pg.gen != g {
		cc.reset(pg, g)
	}
	if user && !pg.okUser || !user && !pg.okKernel {
		return nil
	}
	return pg
}

// Stale reports whether pg was written since Page validated it: a block
// that may store checks its page after each storing unit and abandons the
// rest of the block when it was.
func (cc *CodeCache[S, B]) Stale(pg *CodePage[S, B]) bool {
	return cc.mem.PageGen(pg.page) != pg.gen
}

// Slot returns the slot at position i of pg, zero until the caller decodes
// into it.
func (pg *CodePage[S, B]) Slot(i uint32) *S { return pg.slots.At(i) }

// Block returns the block cached at entry i of pg, nil on a miss.
func (pg *CodePage[S, B]) Block(i uint32) *B { return *pg.blocks.At(i) }

// AddBlock caches b at entry i of pg, first dropping every block when the
// cache already holds translateMaxBlocks of them.
func (cc *CodeCache[S, B]) AddBlock(pg *CodePage[S, B], i uint32, b *B) {
	if cc.nblocks >= translateMaxBlocks {
		for _, p := range cc.pages {
			p.blocks.Clear()
			p.nblocks = 0
		}
		cc.nblocks = 0
	}
	*pg.blocks.At(i) = b
	pg.nblocks++
	cc.nblocks++
}

func (cc *CodeCache[S, B]) pageFor(page uint32) *CodePage[S, B] {
	pg := cc.pages[page]
	if pg == nil {
		if cc.pages == nil || len(cc.pages) >= cc.maxPages {
			cc.pages, cc.nblocks = make(map[uint32]*CodePage[S, B], cc.maxPages), 0
		}
		pg = &CodePage[S, B]{gen: ^uint64(0), page: page} // impossible generation: reset on first use
		cc.pages[page] = pg
	}
	return pg
}

// reset drops a page's slots and blocks and re-reads its fetchability for
// generation gen.
func (cc *CodeCache[S, B]) reset(pg *CodePage[S, B], gen uint64) {
	if pg.nblocks > 0 {
		cc.Counters.Invalidations++
		pg.blocks.Clear()
		cc.nblocks -= pg.nblocks
		pg.nblocks = 0
	}
	pg.slots.Clear()
	pg.gen = gen
	pg.okKernel = cc.mem.PageFetchable(pg.page, false)
	pg.okUser = cc.mem.PageFetchable(pg.page, true)
}
