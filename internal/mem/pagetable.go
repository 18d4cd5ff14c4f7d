package mem

// tableChunk is how many entries a PageTable allocates at a time.
const tableChunk = 64

// PageTable is a sparse table of up to PageSize entries indexed by an
// instruction's position in its page (byte offset on CISC, word index on
// RISC), for the per-page decoded instructions and translated blocks of the
// translators' shared code cache (platform.CodeCache). Entries are
// allocated tableChunk at a time on first use, so a page entered at a
// handful of offsets — the usual case, and the only one when corrupted
// control flow wanders through data — costs a few hundred bytes rather than
// a full PageSize-entry array. A cache's footprint then follows the code it
// ran, not the number of pages it touched.
type PageTable[T any] struct {
	chunks [PageSize / tableChunk]*[tableChunk]T
}

// At returns entry i (i < PageSize), allocating its chunk zeroed on first
// use. The pointer stays valid until the table is dropped.
func (t *PageTable[T]) At(i uint32) *T {
	c := t.chunks[i/tableChunk]
	if c == nil {
		c = new([tableChunk]T)
		t.chunks[i/tableChunk] = c
	}
	return &c[i%tableChunk]
}

// Clear zeroes every entry and keeps the allocated chunks for reuse.
func (t *PageTable[T]) Clear() {
	for _, c := range t.chunks {
		if c != nil {
			clear(c[:])
		}
	}
}
