package platform

import (
	"encoding/binary"
	"testing"

	"kfi/internal/mem"
)

// testSlot and testBlock stand in for an ISA's decoded instruction and
// translated block.
type (
	testSlot  struct{ v uint32 }
	testBlock struct{ v uint32 }
)

// codeCacheMem returns a 16-page memory whose pages 1..15 are mapped
// kernel-only and present.
func codeCacheMem() *mem.Memory {
	m := mem.New(16*mem.PageSize, binary.LittleEndian)
	m.Map(mem.PageSize, 15*mem.PageSize, mem.Present)
	return m
}

func pageAt(t *testing.T, cc *CodeCache[testSlot, testBlock], page uint32) *CodePage[testSlot, testBlock] {
	t.Helper()
	pg := cc.Page(page*mem.PageSize, false)
	if pg == nil {
		t.Fatalf("page %d not served in kernel mode", page)
	}
	return pg
}

// TestCodeCachePolicy pins the cache policy both translators share: the page
// bound, the block bound, generation revalidation and per-mode
// fetchability.
func TestCodeCachePolicy(t *testing.T) {
	t.Run("page bound drops the whole cache", func(t *testing.T) {
		const maxPages = 4
		cc := NewCodeCache[testSlot, testBlock](codeCacheMem(), maxPages)
		for p := uint32(1); p <= maxPages; p++ {
			pg := pageAt(t, &cc, p)
			pg.Slot(8).v = p
			cc.AddBlock(pg, 8, &testBlock{p})
		}
		if len(cc.pages) != maxPages || cc.nblocks != maxPages {
			t.Fatalf("cache holds %d pages, %d blocks; want %d of each", len(cc.pages), cc.nblocks, maxPages)
		}
		pageAt(t, &cc, maxPages+1)
		if len(cc.pages) != 1 || cc.nblocks != 0 {
			t.Fatalf("after page %d: %d pages, %d blocks cached; want 1 and 0", maxPages+1, len(cc.pages), cc.nblocks)
		}
		if pg := pageAt(t, &cc, 1); pg.Slot(8).v != 0 || pg.Block(8) != nil {
			t.Errorf("page 1 kept its slot %+v or block %v across the drop", *pg.Slot(8), pg.Block(8))
		}
		if cc.Counters.Invalidations != 0 {
			t.Errorf("a bound drop counted %d invalidations", cc.Counters.Invalidations)
		}
	})

	t.Run("block bound drops blocks and keeps slots", func(t *testing.T) {
		cc := NewCodeCache[testSlot, testBlock](codeCacheMem(), 8)
		// Fill the bound over two pages, each entry with its slot decoded.
		for i := uint32(0); i < translateMaxBlocks; i++ {
			pg := pageAt(t, &cc, 1+i%2)
			pg.Slot(i / 2).v = i + 1
			cc.AddBlock(pg, i/2, &testBlock{i + 1})
		}
		if cc.nblocks != translateMaxBlocks {
			t.Fatalf("cache holds %d blocks, want %d", cc.nblocks, translateMaxBlocks)
		}
		pg3 := pageAt(t, &cc, 3)
		nb := &testBlock{0xB}
		cc.AddBlock(pg3, 5, nb)
		if cc.nblocks != 1 || pg3.Block(5) != nb {
			t.Fatalf("after one more block: %d cached, new block %v; want only the new one", cc.nblocks, pg3.Block(5))
		}
		for i := uint32(0); i < translateMaxBlocks; i++ {
			pg := pageAt(t, &cc, 1+i%2)
			if pg.Block(i/2) != nil {
				t.Fatalf("block %d survived the block bound", i)
			}
			if pg.Slot(i/2).v != i+1 {
				t.Fatalf("slot %d dropped with the blocks: %+v", i, *pg.Slot(i / 2))
			}
		}
		if len(cc.pages) != 3 || cc.Counters.Invalidations != 0 {
			t.Errorf("pages %d, invalidations %d; want 3 and 0", len(cc.pages), cc.Counters.Invalidations)
		}
	})

	t.Run("generation bump clears a page", func(t *testing.T) {
		m := codeCacheMem()
		cc := NewCodeCache[testSlot, testBlock](m, 8)
		pg := pageAt(t, &cc, 2)
		pg.Slot(3).v = 1
		cc.AddBlock(pg, 3, &testBlock{1})
		other := pageAt(t, &cc, 5)
		cc.AddBlock(other, 0, &testBlock{2})

		m.RawWrite(2*mem.PageSize+64, 4, 0x90909090)
		pg = pageAt(t, &cc, 2)
		if pg.Slot(3).v != 0 || pg.Block(3) != nil {
			t.Fatalf("written page kept slot %+v / block %v", *pg.Slot(3), pg.Block(3))
		}
		if cc.Counters.Invalidations != 1 || cc.nblocks != 1 {
			t.Fatalf("invalidations %d, blocks %d; want 1 and 1 (page 5's)", cc.Counters.Invalidations, cc.nblocks)
		}
		if pageAt(t, &cc, 5).Block(0) == nil {
			t.Fatal("an unwritten page lost its block")
		}

		// Stale watches its page, and only that page.
		pg = pageAt(t, &cc, 2)
		m.RawWrite(5*mem.PageSize, 4, 1)
		if cc.Stale(pg) {
			t.Fatal("a write to another page makes the page stale")
		}
		m.RawWrite(2*mem.PageSize, 4, 1)
		if !cc.Stale(pg) {
			t.Fatal("Stale misses a write to the page")
		}

		// A page holding only slots drops them without counting.
		pg = pageAt(t, &cc, 2)
		pg.Slot(3).v = 7
		m.RawWrite(2*mem.PageSize, 1, 0)
		if pg = pageAt(t, &cc, 2); pg.Slot(3).v != 0 {
			t.Fatalf("slot survived a generation bump: %+v", *pg.Slot(3))
		}
		if cc.Counters.Invalidations != 1 {
			t.Errorf("a slots-only page counted an invalidation: %d", cc.Counters.Invalidations)
		}
	})

	t.Run("fetchability per mode and generation", func(t *testing.T) {
		m := codeCacheMem()
		cc := NewCodeCache[testSlot, testBlock](m, 8)
		addr := uint32(4 * mem.PageSize)
		if cc.Page(addr, true) != nil || cc.Page(addr, false) == nil {
			t.Fatal("kernel-only page: want served in kernel mode only")
		}
		m.Map(addr, mem.PageSize, mem.Present|mem.UserOK)
		if cc.Page(addr, true) == nil || cc.Page(addr, false) == nil {
			t.Fatal("user page after remap: want served in both modes")
		}
		m.Map(addr, mem.PageSize, 0)
		if cc.Page(addr, true) != nil || cc.Page(addr, false) != nil {
			t.Fatal("unmapped page: want served in neither mode")
		}
		if cc.Page(0, false) != nil {
			t.Fatal("the NULL page is served")
		}
		if cc.Page(m.Size(), false) != nil {
			t.Fatal("an address past RAM is served")
		}
	})
}
