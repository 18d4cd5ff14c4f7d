package mem

import (
	"bytes"
	"math/bits"
)

// Copy-on-write-style restore baselines.
//
// A baseline is a RAM image registered with the memory so that restoring
// back to it costs O(dirty pages) instead of O(memory size): once a baseline
// is armed, every write path marks the pages it touches in a dirty bitmap,
// and RestoreBaseline copies back only those pages. SyncBaseline goes the
// other way — it advances the baseline to the current RAM contents, again
// touching only dirty pages — which is what lets the campaign scheduler chain
// incremental checkpoints along the golden run. This is the memory half of
// the snapshot subsystem (see internal/snapshot); CPU state is captured
// separately.

// Image is a copy of RAM kept page by page with all-zero pages left out.
// Most of a guest's RAM is zero at boot and at every checkpoint, so an image
// costs the pages the kernel and workload use rather than the whole RAM.
// The sealed boot image and every restore baseline are Images.
type Image struct {
	pages []*[PageSize]byte // one entry per RAM page; nil reads as zeros
}

// zeroPage backs reads of unallocated RAM pages; it is never written.
var zeroPage [PageSize]byte

// CopyImage copies the current RAM contents into a new Image. Only
// allocated RAM pages are visited; the others are zero and left out.
func (m *Memory) CopyImage() *Image {
	img := &Image{pages: make([]*[PageSize]byte, len(m.pages))}
	for i, p := range m.pages {
		if p != nil {
			img.store(i, p)
		}
	}
	return img
}

// store copies src into page i; a page stays left out while it is zero.
func (img *Image) store(i int, src *[PageSize]byte) {
	if img.pages[i] == nil {
		if bytes.Equal(src[:], zeroPage[:]) {
			return
		}
		img.pages[i] = new([PageSize]byte)
	}
	*img.pages[i] = *src
}

// load copies page i of img into RAM. A non-zero image page allocates the
// RAM page; a left-out one clears the RAM page in place if it is allocated
// and leaves it unallocated otherwise.
func (m *Memory) load(img *Image, i int) {
	if src := img.pages[i]; src != nil {
		*m.pageAt(uint32(i)) = *src
	} else if p := m.pages[i]; p != nil {
		clear(p[:])
	}
}

// ramPage returns RAM page i for reading: the shared zero page when it is
// unallocated.
func (m *Memory) ramPage(i int) *[PageSize]byte {
	if p := m.pages[i]; p != nil {
		return p
	}
	return &zeroPage
}

// SetBaseline arms image as the restore baseline. The image must have been
// copied from a memory of the same size; SetBaseline panics otherwise (a
// snapshot from a different machine configuration). When synced is true the
// image is promised to equal the current RAM contents and the dirty bitmap
// starts empty; otherwise every page starts dirty, so the first
// RestoreBaseline performs a full copy and subsequent ones are incremental.
//
// The memory retains (aliases) image: it changes only through SyncBaseline
// while the baseline is armed.
func (m *Memory) SetBaseline(image *Image, synced bool) {
	if len(image.pages) != len(m.pages) {
		panic("mem: baseline image size mismatch")
	}
	m.baseline = image
	m.dirty = make([]uint64, (len(m.pages)+63)/64)
	if !synced {
		m.markAllDirty()
	}
}

// Baseline returns the armed baseline image (nil when none is armed). The
// snapshot layer uses pointer identity to recognize that its own image is
// the armed baseline.
func (m *Memory) Baseline() *Image { return m.baseline }

// ClearBaseline disarms baseline tracking; write paths stop paying the
// dirty-marking cost.
func (m *Memory) ClearBaseline() {
	m.baseline = nil
	m.dirty = nil
}

// RestoreBaseline copies every dirty page of the baseline back into RAM and
// clears the dirty bitmap, returning the number of pages copied. It panics
// when no baseline is armed.
func (m *Memory) RestoreBaseline() int {
	if m.baseline == nil {
		panic("mem: RestoreBaseline without a baseline")
	}
	return m.forEachDirtyPage(func(page int) {
		m.load(m.baseline, page)
		m.gens[page]++
	})
}

// SyncBaseline advances the baseline to the current RAM contents by copying
// every dirty page from RAM into the baseline image, clearing the dirty
// bitmap. It returns the number of pages copied and panics when no baseline
// is armed. This is the incremental re-checkpoint primitive.
func (m *Memory) SyncBaseline() int {
	if m.baseline == nil {
		panic("mem: SyncBaseline without a baseline")
	}
	return m.forEachDirtyPage(func(page int) {
		m.baseline.store(page, m.ramPage(page))
	})
}

// DirtyPages returns the number of pages currently marked dirty.
func (m *Memory) DirtyPages() int {
	n := 0
	m.visitDirty(func(int) { n++ })
	return n
}

// forEachDirtyPage runs fn for each dirty page index, clears the bitmap, and
// returns the page count.
func (m *Memory) forEachDirtyPage(fn func(page int)) int {
	n := 0
	m.visitDirty(func(page int) {
		fn(page)
		n++
	})
	for i := range m.dirty {
		m.dirty[i] = 0
	}
	return n
}

// visitDirty calls fn with each dirty page index, skipping bits beyond the
// last real page (markAllDirty sets whole words).
func (m *Memory) visitDirty(fn func(page int)) {
	pages := len(m.pages)
	for wi, w := range m.dirty {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &^= 1 << bit
			page := wi*64 + bit
			if page < pages {
				fn(page)
			}
		}
	}
}

func (m *Memory) markAllDirty() {
	for i := range m.dirty {
		m.dirty[i] = ^uint64(0)
	}
}

// touch marks every page overlapping [addr, addr+size) dirty. Callers have
// already bounds-checked the access; out-of-range bytes are clipped anyway so
// a stale caller cannot corrupt the bitmap.
func (m *Memory) touch(addr, size uint32) {
	if m.dirty == nil || size == 0 {
		return
	}
	end := addr + size - 1
	if end < addr || end >= m.size {
		end = m.size - 1
	}
	for p := addr / PageSize; p <= end/PageSize; p++ {
		m.dirty[p>>6] |= 1 << (p & 63)
	}
}
