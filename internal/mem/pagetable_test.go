package mem

import "testing"

func TestPageTableSparse(t *testing.T) {
	var tab PageTable[uint64]
	offs := []uint32{0, 63, 64, PageSize - 1}
	for i, off := range offs {
		if got := *tab.At(off); got != 0 {
			t.Fatalf("fresh entry %d = %d, want 0", off, got)
		}
		*tab.At(off) = uint64(i + 1)
	}
	for i, off := range offs {
		if got := *tab.At(off); got != uint64(i+1) {
			t.Fatalf("entry %d = %d, want %d", off, got, i+1)
		}
	}
	// Offsets 0 and 63 share a chunk: three chunks back four entries.
	if n := tab.allocated(); n != 3 {
		t.Fatalf("%d chunks allocated, want 3", n)
	}

	tab.Clear()
	for _, off := range offs {
		if got := *tab.At(off); got != 0 {
			t.Fatalf("entry %d = %d after Clear, want 0", off, got)
		}
	}
	// Clear keeps the chunks, so refilling the same offsets allocates nothing.
	if n := testing.AllocsPerRun(100, func() {
		for _, off := range offs {
			*tab.At(off)++
		}
		tab.Clear()
	}); n != 0 {
		t.Fatalf("refill after Clear allocates %v times, want 0", n)
	}
	if n := tab.allocated(); n != 3 {
		t.Fatalf("%d chunks allocated after Clear, want 3", n)
	}
}

func (t *PageTable[T]) allocated() int {
	n := 0
	for _, c := range t.chunks {
		if c != nil {
			n++
		}
	}
	return n
}
