package mem

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func newTestMem() *Memory {
	m := New(1<<20, binary.LittleEndian)
	m.Map(0x1000, 0x4000, Present|Writable)
	m.Map(0x8000, 0x1000, Present) // read-only
	return m
}

func TestNewRoundsToPages(t *testing.T) {
	m := New(PageSize+1, binary.BigEndian)
	if m.Size() != 2*PageSize {
		t.Errorf("Size() = %d, want %d", m.Size(), 2*PageSize)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		size uint32
		val  uint32
	}{
		{"byte", 1, 0xab},
		{"half", 2, 0xbeef},
		{"word", 4, 0xdeadbeef},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := newTestMem()
			if f := m.Write(0x1100, tt.size, tt.val, false); f != nil {
				t.Fatalf("Write: %v", f)
			}
			got, f := m.Read(0x1100, tt.size, false)
			if f != nil {
				t.Fatalf("Read: %v", f)
			}
			if got != tt.val {
				t.Errorf("round trip = 0x%x, want 0x%x", got, tt.val)
			}
		})
	}
}

func TestByteOrder(t *testing.T) {
	le := New(1<<16, binary.LittleEndian)
	le.Map(0x1000, 0x1000, Present|Writable)
	be := New(1<<16, binary.BigEndian)
	be.Map(0x1000, 0x1000, Present|Writable)

	if f := le.Write(0x1000, 4, 0x11223344, false); f != nil {
		t.Fatal(f)
	}
	if f := be.Write(0x1000, 4, 0x11223344, false); f != nil {
		t.Fatal(f)
	}
	if got := le.RawRead(0x1000, 1); got != 0x44 {
		t.Errorf("little-endian first byte = 0x%x, want 0x44", got)
	}
	if got := be.RawRead(0x1000, 1); got != 0x11 {
		t.Errorf("big-endian first byte = 0x%x, want 0x11", got)
	}
}

func TestFaultClassification(t *testing.T) {
	m := newTestMem()
	tests := []struct {
		name  string
		addr  uint32
		write bool
		want  FaultKind
	}{
		{"null read", 0x10, false, FaultNull},
		{"null write", 0xffc, true, FaultNull},
		{"unmapped", 0x7000, false, FaultUnmapped},
		{"read-only write", 0x8000, true, FaultProtection},
		{"beyond physical", 0x7fffffff, false, FaultUnmapped},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var f *Fault
			if tt.write {
				f = m.Write(tt.addr, 4, 0, false)
			} else {
				_, f = m.Read(tt.addr, 4, false)
			}
			if f == nil {
				t.Fatal("expected fault, got none")
			}
			if f.Kind != tt.want {
				t.Errorf("fault kind = %v, want %v", f.Kind, tt.want)
			}
			if f.Write != tt.write {
				t.Errorf("fault write = %v, want %v", f.Write, tt.write)
			}
		})
	}
}

func TestUserModeProtection(t *testing.T) {
	m := New(1<<16, binary.LittleEndian)
	m.Map(0x1000, 0x1000, Present|Writable) // kernel-only
	m.Map(0x2000, 0x1000, Present|Writable|UserOK)

	if _, f := m.Read(0x1000, 4, true); f == nil || f.Kind != FaultProtection {
		t.Errorf("user read of kernel page: fault = %v, want protection", f)
	}
	if _, f := m.Read(0x2000, 4, true); f != nil {
		t.Errorf("user read of user page faulted: %v", f)
	}
	if _, f := m.Read(0x1000, 4, false); f != nil {
		t.Errorf("kernel read of kernel page faulted: %v", f)
	}
}

func TestMapNullPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mapping the NULL page did not panic")
		}
	}()
	m := New(1<<16, binary.LittleEndian)
	m.Map(0, PageSize, Present)
}

func TestFetch(t *testing.T) {
	m := newTestMem()
	m.RawWrite(0x1000, 4, 0x01020304)
	b, f := m.Fetch(0x1000, 4, false)
	if f != nil {
		t.Fatalf("Fetch: %v", f)
	}
	if len(b) != 4 {
		t.Fatalf("Fetch returned %d bytes, want 4", len(b))
	}
	if _, f := m.Fetch(0x7000, 4, false); f == nil {
		t.Error("Fetch from unmapped page did not fault")
	}
}

func TestFlipBit(t *testing.T) {
	m := newTestMem()
	m.RawWrite(0x1000, 1, 0b0100)
	old := m.FlipBit(0x1000, 2)
	if old != 0b0100 {
		t.Errorf("FlipBit returned old=0x%x, want 0x4", old)
	}
	if got := m.RawRead(0x1000, 1); got != 0 {
		t.Errorf("after flip, byte = 0x%x, want 0", got)
	}
	m.FlipBit(0x1000, 2)
	if got := m.RawRead(0x1000, 1); got != 0b0100 {
		t.Errorf("double flip is not identity: 0x%x", got)
	}
}

func TestFlipBitOutOfRange(t *testing.T) {
	m := newTestMem()
	if got := m.FlipBit(0xffffffff, 0); got != 0 {
		t.Errorf("out-of-range FlipBit returned 0x%x, want 0", got)
	}
}

func TestSealReboot(t *testing.T) {
	m := newTestMem()
	m.RawWrite(0x1234, 4, 0xcafe)
	m.Seal()
	kept := 0
	for _, p := range m.pristine.pages {
		if p != nil {
			kept++
		}
	}
	if kept != 1 {
		t.Errorf("Seal kept %d pages, want only the one non-zero page", kept)
	}
	m.RawWrite(0x1234, 4, 0x1111)
	m.RawWrite(0x2000, 4, 0x2222)
	m.Reboot()
	if got := m.RawRead(0x1234, 4); got != 0xcafe {
		t.Errorf("after reboot, word = 0x%x, want 0xcafe", got)
	}
	if got := m.RawRead(0x2000, 4); got != 0 {
		t.Errorf("after reboot, scribbled word = 0x%x, want 0", got)
	}
}

func TestRebootBeforeSealPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Reboot before Seal did not panic")
		}
	}()
	newTestMem().Reboot()
}

func TestRegions(t *testing.T) {
	m := newTestMem()
	m.AddRegion(Region{Name: "text", Kind: KindCode, Start: 0x1000, End: 0x2000})
	m.AddRegion(Region{Name: "data", Kind: KindData, Start: 0x2000, End: 0x3000})
	m.AddRegion(Region{Name: "stack0", Kind: KindStack, Start: 0x3000, End: 0x4000})

	if r, ok := m.RegionAt(0x1fff); !ok || r.Name != "text" {
		t.Errorf("RegionAt(0x1fff) = %v %v, want text", r, ok)
	}
	if _, ok := m.RegionAt(0x9000); ok {
		t.Error("RegionAt(0x9000) found a region in a gap")
	}
	if r, ok := m.RegionByName("data"); !ok || r.Kind != KindData {
		t.Errorf("RegionByName(data) = %v %v", r, ok)
	}
	if got := m.Regions(KindStack); len(got) != 1 || got[0].Name != "stack0" {
		t.Errorf("Regions(KindStack) = %v", got)
	}
	if got := m.Regions(); len(got) != 3 {
		t.Errorf("Regions() = %d entries, want 3", len(got))
	}
}

func TestRegionOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overlapping region did not panic")
		}
	}()
	m := newTestMem()
	m.AddRegion(Region{Name: "a", Kind: KindData, Start: 0x1000, End: 0x2000})
	m.AddRegion(Region{Name: "b", Kind: KindData, Start: 0x1800, End: 0x2800})
}

func TestEmptyRegionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty region did not panic")
		}
	}()
	newTestMem().AddRegion(Region{Name: "e", Start: 5, End: 5})
}

// Property: raw write then raw read round-trips for any in-range address and
// any value, at every access size, independent of protection flags.
func TestRawRoundTripProperty(t *testing.T) {
	m := New(1<<18, binary.BigEndian)
	f := func(addr uint32, val uint32, sizeSel uint8) bool {
		size := []uint32{1, 2, 4}[sizeSel%3]
		addr %= m.Size() - 4
		m.RawWrite(addr, size, val)
		got := m.RawRead(addr, size)
		mask := uint32(0xffffffff)
		if size == 1 {
			mask = 0xff
		} else if size == 2 {
			mask = 0xffff
		}
		return got == val&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a double bit flip restores the original byte everywhere.
func TestFlipBitInvolutionProperty(t *testing.T) {
	m := New(1<<16, binary.LittleEndian)
	f := func(addr uint32, bit uint8, val byte) bool {
		addr %= m.Size()
		m.RawWrite(addr, 1, uint32(val))
		m.FlipBit(addr, uint(bit))
		m.FlipBit(addr, uint(bit))
		return byte(m.RawRead(addr, 1)) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: checked Read never succeeds on an unmapped page and never
// reports FaultBus for in-range addresses.
func TestCheckedReadProperty(t *testing.T) {
	m := newTestMem()
	f := func(addr uint32) bool {
		addr %= m.Size() - 4
		v, fault := m.Read(addr, 4, false)
		mapped := m.flags[addr/PageSize]&Present != 0 && m.flags[(addr+3)/PageSize]&Present != 0
		if mapped {
			return fault == nil && v == m.RawRead(addr, 4)
		}
		return fault != nil && fault.Kind != FaultBus
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Kind: FaultNull, Addr: 0x8, Size: 4, Write: true}
	want := "memory fault: null write of 4 bytes at 0x00000008"
	if got := f.Error(); got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}

// TestImageBaseline: an Image leaves zero pages out, and restoring or
// syncing a baseline through a left-out page behaves as a full copy would.
func TestImageBaseline(t *testing.T) {
	m := newTestMem()
	m.RawWrite(0x1000, 4, 0xaaaa)
	img := m.CopyImage()
	if img.pages[1] == nil || img.pages[2] != nil {
		t.Fatalf("CopyImage kept page 1: %v, page 2: %v; want only page 1",
			img.pages[1] != nil, img.pages[2] != nil)
	}
	m.SetBaseline(img, true)
	m.RawWrite(0x2000, 4, 0xbbbb) // into a left-out page
	if n := m.SyncBaseline(); n != 1 {
		t.Fatalf("SyncBaseline copied %d pages, want 1", n)
	}
	m.RawWrite(0x1000, 4, 0x1111)
	m.RawWrite(0x2000, 4, 0x2222)
	m.RawWrite(0x3000, 4, 0x3333) // still left out of the image
	if n := m.RestoreBaseline(); n != 3 {
		t.Fatalf("RestoreBaseline copied %d pages, want 3", n)
	}
	for addr, want := range map[uint32]uint32{0x1000: 0xaaaa, 0x2000: 0xbbbb, 0x3000: 0} {
		if got := m.RawRead(addr, 4); got != want {
			t.Errorf("after restore, word at 0x%x = 0x%x, want 0x%x", addr, got, want)
		}
	}
}
