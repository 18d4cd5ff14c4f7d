package mem

// Edge-case tests for the checked-access layer: bus windows, fill mapping,
// raw accessors, and the descriptive helpers the tools print.

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestSetBusWindowClassification(t *testing.T) {
	m := New(1<<20, binary.LittleEndian)
	m.SetBusWindow(0xF0000000, 0xF8000000)

	if _, f := m.Read(0xF0000000, 4, false); f == nil || f.Kind != FaultBus {
		t.Errorf("window start: %+v, want bus fault", f)
	}
	if _, f := m.Read(0xF7FFFFFC, 4, false); f == nil || f.Kind != FaultBus {
		t.Errorf("last word in window: %+v, want bus fault", f)
	}
	// One past the window: an ordinary unmapped fault, not a machine check.
	if _, f := m.Read(0xF8000000, 4, false); f == nil || f.Kind != FaultUnmapped {
		t.Errorf("past window: %+v, want unmapped", f)
	}
	if _, f := m.Read(0xEFFFFFF0, 4, false); f == nil || f.Kind != FaultUnmapped {
		t.Errorf("before window: %+v, want unmapped", f)
	}
	// Writes inside the window are bus faults too.
	if f := m.Write(0xF4000000, 4, 1, false); f == nil || f.Kind != FaultBus {
		t.Errorf("write in window: %+v, want bus fault", f)
	}
}

func TestBusWindowDisabledByDefault(t *testing.T) {
	m := New(1<<20, binary.LittleEndian)
	if _, f := m.Read(0xF4000000, 4, false); f == nil || f.Kind != FaultUnmapped {
		t.Errorf("no window configured: %+v, want unmapped", f)
	}
}

func TestMapFillPreservesExistingMappings(t *testing.T) {
	m := New(1<<20, binary.LittleEndian)
	// A read-only code page inside the fill range must keep its protection.
	m.Map(0x4000, PageSize, Present)
	m.MapFill(0, 0x10000, Present|Writable)

	if f := m.Write(0x4000, 4, 1, false); f == nil || f.Kind != FaultProtection {
		t.Errorf("fill overwrote a read-only mapping: %+v", f)
	}
	// Previously-unmapped pages become writable.
	if f := m.Write(0x8000, 4, 1, false); f != nil {
		t.Errorf("filled page not writable: %+v", f)
	}
	// The NULL page range stays unmapped even when the fill starts at 0.
	if _, f := m.Read(0x10, 4, false); f == nil || f.Kind != FaultNull {
		t.Errorf("fill mapped the NULL page: %+v", f)
	}
}

func TestCheckAgreesWithReadWrite(t *testing.T) {
	m := New(1<<20, binary.BigEndian)
	m.Map(0x4000, PageSize, Present) // read-only
	m.Map(0x5000, PageSize, Present|Writable)
	m.SetBusWindow(0xF0000000, 0xF8000000)

	// Property: Check(addr) and the actual access report identical faults.
	f := func(addr uint32, szSel uint8, write bool) bool {
		size := []uint32{1, 2, 4}[szSel%3]
		want := m.Check(addr, size, write, false)
		var got *Fault
		if write {
			got = m.Write(addr, size, 0xAB, false)
		} else {
			_, got = m.Read(addr, size, false)
		}
		if (want == nil) != (got == nil) {
			return false
		}
		if want != nil && (want.Kind != got.Kind || want.Addr != got.Addr) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestWriteBytes(t *testing.T) {
	m := New(1<<20, binary.LittleEndian)
	if !m.WriteBytes(0x100, []byte{0xAA, 0xBB}) {
		t.Fatal("in-range WriteBytes was rejected")
	}
	if got := m.RawRead(0x100, 2); got != 0xBBAA {
		t.Errorf("WriteBytes not visible to reads: read 0x%X", got)
	}
	// A copy across a page boundary lands on both pages.
	if !m.WriteBytes(PageSize-1, []byte{0x11, 0x22}) {
		t.Fatal("page-straddling WriteBytes was rejected")
	}
	if got := m.RawRead(PageSize-1, 2); got != 0x2211 {
		t.Errorf("straddling WriteBytes: read 0x%X, want 0x2211", got)
	}
	if m.WriteBytes(uint32(1<<20)-4, make([]byte, 8)) {
		t.Error("out-of-range WriteBytes should be rejected")
	}
	if m.WriteBytes(0xFFFFFFFF, make([]byte, 8)) {
		t.Error("wrapping WriteBytes should be rejected")
	}
	if got := m.RawRead(uint32(1<<20)-4, 4); got != 0 {
		t.Errorf("rejected WriteBytes wrote 0x%X", got)
	}
}

func TestRawReadWriteOutOfRange(t *testing.T) {
	m := New(1<<20, binary.LittleEndian)
	if got := m.RawRead(uint32(1<<20)-2, 4); got != 0 {
		t.Errorf("out-of-range RawRead = 0x%X", got)
	}
	m.RawWrite(uint32(1<<20)-2, 4, 0xDEAD) // must not panic or write
	if got := m.RawRead(uint32(1<<20)-4, 2); got != 0 {
		t.Errorf("truncated RawWrite leaked bytes: 0x%X", got)
	}
	// Wrapping address arithmetic is rejected, not wrapped.
	m.RawWrite(0xFFFFFFFE, 4, 0xBEEF)
	if got := m.RawRead(0, 2); got != 0 {
		t.Errorf("wrapping RawWrite hit low memory: 0x%X", got)
	}
}

func TestOrderReflectsConstruction(t *testing.T) {
	if m := New(1<<16, binary.BigEndian); m.Order() != binary.BigEndian {
		t.Error("big-endian machine reports wrong order")
	}
	if m := New(1<<16, binary.LittleEndian); m.Order() != binary.LittleEndian {
		t.Error("little-endian machine reports wrong order")
	}
}

func TestFaultKindStrings(t *testing.T) {
	cases := map[FaultKind]string{
		FaultNull:       "null",
		FaultUnmapped:   "unmapped",
		FaultProtection: "protection",
		FaultBus:        "bus",
		FaultKind(99):   "FaultKind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestRegionKindStringsAndSize(t *testing.T) {
	names := map[RegionKind]string{
		KindCode: "code", KindData: "data", KindBSS: "bss",
		KindStack: "stack", KindHeap: "heap", KindUser: "user",
		KindDevice: "device", RegionKind(42): "RegionKind(42)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q", int(k), got)
		}
	}
	r := Region{Name: "x", Start: 0x1000, End: 0x1800}
	if r.Size() != 0x800 {
		t.Errorf("Size = 0x%X", r.Size())
	}
	if !r.Contains(0x1000) || r.Contains(0x1800) {
		t.Error("Contains must be half-open [Start, End)")
	}
}
