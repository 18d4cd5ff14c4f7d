package mem

import (
	"encoding/binary"
	"testing"
)

// The emulator hot loop calls Fetch/Read/Write once or more per simulated
// instruction; a single heap allocation on any of these paths would dominate
// campaign time. These tests pin the zero-allocation property.

func newAllocMem(t testing.TB) *Memory {
	t.Helper()
	m := New(1<<16, binary.LittleEndian)
	m.Map(NullLimit, 1<<16-NullLimit, Present|Writable)
	return m
}

func TestFetchNoAlloc(t *testing.T) {
	m := newAllocMem(t)
	var sink []byte
	if n := testing.AllocsPerRun(1000, func() {
		sink, _ = m.Fetch(0x1234, 9, false)
	}); n != 0 {
		t.Fatalf("Fetch allocates %v times per call, want 0", n)
	}
	_ = sink
}

func TestReadWriteNoAlloc(t *testing.T) {
	m := newAllocMem(t)
	var sink uint32
	if n := testing.AllocsPerRun(1000, func() {
		m.Write(0x2000, 4, 0xDEADBEEF, false)
		sink, _ = m.Read(0x2000, 4, false)
	}); n != 0 {
		t.Fatalf("Read+Write allocate %v times per call, want 0", n)
	}
	_ = sink
}

// TestWriteNoAllocBaselineArmed covers the campaign configuration: dirty-page
// tracking and generation bumps active on every store.
func TestWriteNoAllocBaselineArmed(t *testing.T) {
	m := newAllocMem(t)
	m.SetBaseline(m.CopyImage(), true)
	defer m.ClearBaseline()
	if n := testing.AllocsPerRun(1000, func() {
		m.Write(0x3000, 4, 0xCAFEF00D, false)
		m.Write(0x3004, 1, 0x42, false)
	}); n != 0 {
		t.Fatalf("baseline-armed Write allocates %v times per call, want 0", n)
	}
}

func TestFlipBitNoAlloc(t *testing.T) {
	m := newAllocMem(t)
	if n := testing.AllocsPerRun(1000, func() {
		m.FlipBit(0x4000, 3)
	}); n != 0 {
		t.Fatalf("FlipBit allocates %v times per call, want 0", n)
	}
}
