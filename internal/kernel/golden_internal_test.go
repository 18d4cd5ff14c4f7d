package kernel

import (
	"testing"

	"kfi/internal/isa"
)

// TestTouchWordsMatchesHitData: an access touches exactly the words whose
// 4-byte data watchpoint would fire for it, so an unaligned or 2-byte access
// that spans two words touches both, and a word keeps its earliest touch.
func TestTouchWordsMatchesHitData(t *testing.T) {
	const base = 0x2000
	newSeen := func() []uint64 { return make([]uint64, 2*base/4/64) }
	for addr := uint32(base - 6); addr < base+6; addr++ {
		for _, size := range []uint32{1, 2, 4} {
			first := map[uint32]uint64{}
			touchWords(first, newSeen(), addr, size, 7)
			for w := uint32(base - 16); w < base+16; w += 4 {
				var d isa.DebugUnit
				d.Set(0, isa.Breakpoint{Kind: isa.BreakData, Addr: w, Len: 4})
				_, got := first[w]
				if want := d.HitData(addr, size) >= 0; got != want {
					t.Errorf("access %#x+%d: word %#x touched=%v, HitData says %v", addr, size, w, got, want)
				}
			}
		}
	}
	first, seen := map[uint32]uint64{}, newSeen()
	touchWords(first, seen, 0x1003, 2, 5)
	touchWords(first, seen, 0x1004, 4, 9)
	if first[0x1000] != 5 || first[0x1004] != 5 || len(first) != 2 {
		t.Errorf("first touches = %v, want 0x1000 and 0x1004 at cycle 5", first)
	}
}
