package mem

// Per-page write-generation counters.
//
// Every path that can change what an instruction fetch from a page would
// observe — data writes, raw host writes, injected bit flips, baseline
// restores, reboots, and page-protection changes — advances that page's
// generation. The counters are monotone and never reset, so a consumer that
// recorded a page's generation can later detect *any* intervening mutation
// with one compare. The decoded-code cache both translators share
// (platform.CodeCache) is the consumer: it revalidates a page's decoded
// instructions and blocks against its generation on every step and
// dispatch, which is what keeps a bit flip injected into kernel code
// (including a CISC flip that re-synchronizes the variable-length stream
// into a different valid instruction sequence) observable exactly as in an
// uncached interpreter.

// PageGen returns the write-generation counter of the given page index.
// It panics for out-of-range pages; callers index pages they have already
// validated against the RAM size.
func (m *Memory) PageGen(page uint32) uint64 { return m.gens[page] }

// PageFetchable reports whether a 1-byte instruction fetch would succeed at
// *every* address of the given page in the given mode. It is false when the
// unclaimed bus window overlaps the page, since then no single answer covers
// the whole page. The result is valid until the page's generation changes:
// every path that alters protection flags or the bus window bumps
// generations.
func (m *Memory) PageFetchable(page uint32, user bool) bool {
	base := page * PageSize
	if m.busHi > m.busLo && base < m.busHi && base+PageSize > m.busLo {
		return false
	}
	return m.check(base, 1, false, user) == nil
}

// bumpGen advances the generation of every page overlapping [addr, addr+size).
// Same clipping discipline as touch: callers have bounds-checked the access.
func (m *Memory) bumpGen(addr, size uint32) {
	if size == 0 {
		return
	}
	end := addr + size - 1
	if end < addr || end >= m.size {
		end = m.size - 1
	}
	for p := addr / PageSize; p <= end/PageSize; p++ {
		m.gens[p]++
	}
}

// bumpAllGens advances every page's generation (reboot, bus-window change).
func (m *Memory) bumpAllGens() {
	for i := range m.gens {
		m.gens[i]++
	}
}
