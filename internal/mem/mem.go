// Package mem implements the physical memory and page-protection model shared
// by both simulated machines: a page-sparse RAM image, page-granular
// present/writable flags (the MMU), a named region map (kernel code, data,
// per-process kernel stacks, user space), and raw host-side access paths used
// by the loader and the fault injector.
//
// Address-space conventions follow the paper's target kernels: page 0 is never
// mapped, so accesses below 4 KiB classify as NULL-pointer dereferences;
// accesses to unmapped pages are "bad paging" (P4) or "bad area" (G4);
// accesses beyond physical memory are bus/machine-check errors.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the MMU page granularity.
const PageSize = 4096

// NullLimit is the exclusive upper bound of the never-mapped NULL page range.
// Faulting accesses below this limit classify as NULL-pointer dereferences.
const NullLimit = PageSize

// Flags describe the protection state of one page.
type Flags uint8

// Page protection flags.
const (
	// Present marks the page as mapped; absent pages fault on any access.
	Present Flags = 1 << iota
	// Writable permits stores; reads are always allowed on present pages.
	Writable
	// UserOK permits user-mode access; kernel-only pages fault in user mode.
	UserOK
)

// FaultKind classifies a failed memory access. The execution engines map
// these onto platform crash causes (NULL pointer / bad paging / general
// protection on the CISC machine; bad area / machine check on the RISC one).
type FaultKind int

// Fault kinds.
const (
	// FaultNull is an access within the never-mapped NULL page range.
	FaultNull FaultKind = iota + 1
	// FaultUnmapped is an access to a non-present page.
	FaultUnmapped
	// FaultProtection is a store to a read-only page or a user-mode access
	// to a kernel-only page.
	FaultProtection
	// FaultBus is an access beyond physical memory (processor-local bus).
	FaultBus
)

// String returns the fault-kind name.
func (k FaultKind) String() string {
	switch k {
	case FaultNull:
		return "null"
	case FaultUnmapped:
		return "unmapped"
	case FaultProtection:
		return "protection"
	case FaultBus:
		return "bus"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault describes a failed memory access.
type Fault struct {
	Kind  FaultKind
	Addr  uint32
	Size  uint32
	Write bool
}

// Error implements the error interface.
func (f *Fault) Error() string {
	op := "read"
	if f.Write {
		op = "write"
	}
	return fmt.Sprintf("memory fault: %s %s of %d bytes at 0x%08x", f.Kind, op, f.Size, f.Addr)
}

// Memory is the physical memory of one simulated machine plus its page
// protection table. The zero value is unusable; construct with New.
type Memory struct {
	// pages holds RAM one page at a time. An entry stays nil until the page
	// is first written and a nil page reads as zeros, so a guest costs the
	// pages it has written rather than its whole RAM. Once allocated, a page
	// is cleared in place by restores and reboots, never dropped.
	pages    []*[PageSize]byte
	size     uint32
	pristine *Image // boot-time image for fast reboot
	flags    []Flags
	order    binary.ByteOrder
	regions  []Region

	// busLo/busHi delimit an unclaimed bus window: accesses inside it hang
	// the bus and machine-check. Everything else beyond RAM is merely
	// unmapped. Both zero disables the window.
	busLo, busHi uint32

	// baseline/dirty implement the copy-on-write restore baseline used by
	// the snapshot subsystem (see baseline.go). dirty is a page bitmap; both
	// are nil when no baseline is armed.
	baseline *Image
	dirty    []uint64

	// gens holds the per-page write-generation counters (see gen.go). Unlike
	// the dirty bitmap they are always on and never reset: the translators'
	// decoded-code caches depend on them for invalidation.
	gens []uint64

	// sealGen counts Seal calls, so a result derived from one sealed image
	// can tell when a later Seal replaced it.
	sealGen uint64

	// rawObs, when non-nil, observes every in-range RawRead and RawWrite
	// (see SetRawObserver).
	rawObs func(addr, size uint32)

	// scratch serves Fetch and PeekBytes ranges that cross a page; word
	// assembles loads and stores that do.
	scratch [16]byte
	word    [4]byte
}

// New creates a memory of the given size (rounded up to a whole number of
// pages) with the given byte order. All pages start unmapped and zero; none
// is allocated until it is written.
func New(size uint32, order binary.ByteOrder) *Memory {
	pages := (size + PageSize - 1) / PageSize
	return &Memory{
		pages: make([]*[PageSize]byte, pages),
		size:  pages * PageSize,
		flags: make([]Flags, pages),
		gens:  make([]uint64, pages),
		order: order,
	}
}

// SetBusWindow configures the unclaimed bus window [lo, hi): accesses there
// raise bus errors (machine checks on the G4); all other beyond-RAM accesses
// fault as unmapped pages. This models a processor-local bus where only a
// narrow unclaimed region hangs, as on the paper's G4 (machine checks are a
// small fraction of its crashes).
func (m *Memory) SetBusWindow(lo, hi uint32) {
	m.busLo, m.busHi = lo, hi
	// The window changes which fetches fault, so cached per-page
	// fetchability answers must be revalidated.
	m.bumpAllGens()
}

// Size returns the physical memory size in bytes.
func (m *Memory) Size() uint32 { return m.size }

// Order returns the machine byte order.
func (m *Memory) Order() binary.ByteOrder { return m.order }

// Map sets the protection flags for all pages overlapping [start, start+size).
// The NULL page range is never mappable: Map panics if asked to map it, since
// that would silently break the fault taxonomy.
func (m *Memory) Map(start, size uint32, f Flags) {
	if start < NullLimit && f&Present != 0 {
		panic("mem: attempt to map the NULL page range")
	}
	first := start / PageSize
	last := (start + size + PageSize - 1) / PageSize
	for p := first; p < last && p < uint32(len(m.flags)); p++ {
		m.flags[p] = f
		m.gens[p]++
	}
}

// MapFill maps every still-unmapped page overlapping [start, start+size)
// with the given flags, leaving already-configured pages untouched. The
// kernel uses it to create the linear RAM map around its named sections.
func (m *Memory) MapFill(start, size uint32, f Flags) {
	first := start / PageSize
	if first == 0 {
		first = 1 // the NULL page stays unmapped
	}
	last := (start + size + PageSize - 1) / PageSize
	for p := first; p < last && p < uint32(len(m.flags)); p++ {
		if m.flags[p] == 0 {
			m.flags[p] = f
			m.gens[p]++
		}
	}
}

// check validates an access and returns a fault or nil. user selects the
// user-mode permission check.
func (m *Memory) check(addr, size uint32, write, user bool) *Fault {
	end := addr + size
	if m.busHi > m.busLo && addr >= m.busLo && addr < m.busHi {
		return &Fault{Kind: FaultBus, Addr: addr, Size: size, Write: write}
	}
	if end < addr || end > m.size {
		return &Fault{Kind: FaultUnmapped, Addr: addr, Size: size, Write: write}
	}
	// All our accesses are at most 4 bytes and the engines enforce natural
	// alignment or split accesses, so one page check suffices except when an
	// access straddles a boundary; check both pages in that rare case.
	for p := addr / PageSize; p <= (end-1)/PageSize; p++ {
		f := m.flags[p]
		if f&Present == 0 {
			kind := FaultUnmapped
			if addr < NullLimit {
				kind = FaultNull
			}
			return &Fault{Kind: kind, Addr: addr, Size: size, Write: write}
		}
		if write && f&Writable == 0 {
			return &Fault{Kind: FaultProtection, Addr: addr, Size: size, Write: write}
		}
		if user && f&UserOK == 0 {
			return &Fault{Kind: FaultProtection, Addr: addr, Size: size, Write: write}
		}
	}
	return nil
}

// Check validates an access without performing it, returning the fault that
// Read/Write would report. Execution engines use it to order translation
// faults ahead of alignment checks, as the hardware does.
func (m *Memory) Check(addr, size uint32, write, user bool) *Fault {
	return m.check(addr, size, write, user)
}

// Read performs a checked load of size 1, 2, or 4 bytes in machine byte
// order. user selects user-mode permission checking.
func (m *Memory) Read(addr, size uint32, user bool) (uint32, *Fault) {
	if f := m.check(addr, size, false, user); f != nil {
		return 0, f
	}
	return m.rawRead(addr, size), nil
}

// Write performs a checked store of size 1, 2, or 4 bytes in machine byte
// order.
func (m *Memory) Write(addr, size, val uint32, user bool) *Fault {
	if f := m.check(addr, size, true, user); f != nil {
		return f
	}
	m.rawWrite(addr, size, val)
	return nil
}

// Fetch performs a checked instruction fetch of n bytes starting at addr and
// returns a read-only slice of them (callers must not write through it or
// retain it across writes, and must be done with it before the next Fetch or
// PeekBytes). Execution from any present page is permitted, as on the paper's
// targets, so corrupted control flow can land in data.
func (m *Memory) Fetch(addr, n uint32, user bool) ([]byte, *Fault) {
	if f := m.check(addr, n, false, user); f != nil {
		return nil, f
	}
	return m.view(addr, n), nil
}

// view returns [addr, addr+n), already range-checked, for reading. A range
// inside one page aliases it (or the shared zero page when it is nil); one
// that crosses a page is gathered into the scratch buffer.
func (m *Memory) view(addr, n uint32) []byte {
	off := addr % PageSize
	if off+n > PageSize {
		buf := m.scratch[:]
		if n > uint32(len(buf)) {
			buf = make([]byte, n)
		}
		for i := range buf[:n] {
			buf[i] = m.byteAt(addr + uint32(i))
		}
		return buf[:n]
	}
	if n == 0 {
		return zeroPage[:0]
	}
	if p := m.pages[addr/PageSize]; p != nil {
		return p[off : off+n]
	}
	return zeroPage[off : off+n]
}

// byteAt reads one in-range byte.
func (m *Memory) byteAt(addr uint32) byte {
	if p := m.pages[addr/PageSize]; p != nil {
		return p[addr%PageSize]
	}
	return 0
}

// pageAt returns page i, allocating it zeroed on first use.
func (m *Memory) pageAt(i uint32) *[PageSize]byte {
	p := m.pages[i]
	if p == nil {
		p = new([PageSize]byte)
		m.pages[i] = p
	}
	return p
}

func (m *Memory) rawRead(addr, size uint32) uint32 {
	off := addr % PageSize
	if off+size > PageSize {
		return m.readSplit(addr, size)
	}
	p := m.pages[addr/PageSize]
	if p == nil {
		return 0
	}
	switch size {
	case 1:
		return uint32(p[off])
	case 2:
		return uint32(m.order.Uint16(p[off:]))
	default:
		return m.order.Uint32(p[off:])
	}
}

func (m *Memory) rawWrite(addr, size, val uint32) {
	m.touch(addr, size)
	m.bumpGen(addr, size)
	off := addr % PageSize
	if off+size > PageSize {
		m.writeSplit(addr, size, val)
		return
	}
	p := m.pageAt(addr / PageSize)
	switch size {
	case 1:
		p[off] = byte(val)
	case 2:
		m.order.PutUint16(p[off:], uint16(val))
	default:
		m.order.PutUint32(p[off:], val)
	}
}

// readSplit assembles a 2- or 4-byte load that crosses a page bytewise.
func (m *Memory) readSplit(addr, size uint32) uint32 {
	w := m.word[:size]
	for i := range w {
		w[i] = m.byteAt(addr + uint32(i))
	}
	if size == 2 {
		return uint32(m.order.Uint16(w))
	}
	return m.order.Uint32(w)
}

// writeSplit stores a 2- or 4-byte value that crosses a page bytewise.
func (m *Memory) writeSplit(addr, size, val uint32) {
	w := m.word[:size]
	if size == 2 {
		m.order.PutUint16(w, uint16(val))
	} else {
		m.order.PutUint32(w, val)
	}
	for i, b := range w {
		a := addr + uint32(i)
		m.pageAt(a / PageSize)[a%PageSize] = b
	}
}

// RawRead reads without protection checks (host/loader/injector path).
// It returns 0 for out-of-range addresses.
func (m *Memory) RawRead(addr, size uint32) uint32 {
	if addr+size > m.size || addr+size < addr {
		return 0
	}
	if m.rawObs != nil {
		m.rawObs(addr, size)
	}
	return m.rawRead(addr, size)
}

// RawWrite writes without protection checks (host/loader/injector path).
// Out-of-range writes are ignored.
func (m *Memory) RawWrite(addr, size, val uint32) {
	if addr+size > m.size || addr+size < addr {
		return
	}
	if m.rawObs != nil {
		m.rawObs(addr, size)
	}
	m.rawWrite(addr, size, val)
}

// SetRawObserver installs fn (nil removes it) to observe every in-range
// RawRead and RawWrite before it happens. The host-side trap glue (context
// switches, interrupt stack lookup) reaches guest memory only through these
// two calls, bypassing the debug unit's data breakpoints; the golden-run
// first-touch trace counts them as accesses all the same.
func (m *Memory) SetRawObserver(fn func(addr, size uint32)) { m.rawObs = fn }

// WriteBytes copies b into RAM at addr without checks (the image loader
// path), marking the range dirty and bumping its write generations. It
// writes nothing and returns false when the range is out of range.
func (m *Memory) WriteBytes(addr uint32, b []byte) bool {
	n := uint32(len(b))
	if addr+n > m.size || addr+n < addr {
		return false
	}
	m.touch(addr, n)
	m.bumpGen(addr, n)
	for len(b) > 0 {
		off := addr % PageSize
		k := copy(m.pageAt(addr / PageSize)[off:], b)
		b = b[k:]
		addr += uint32(k)
	}
	return true
}

// PeekBytes returns a read-only view of [addr, addr+n) without checks,
// without dirtying baselines, and without bumping write generations, or nil
// if out of range. Callers must not write through it, and a view that
// crosses a page is valid only until the next Fetch or PeekBytes: it exists
// for consumers that only decode from RAM — the basic-block translators,
// which would otherwise invalidate the very page they are translating, and
// the disassemblers.
func (m *Memory) PeekBytes(addr, n uint32) []byte {
	if addr+n > m.size || addr+n < addr {
		return nil
	}
	return m.view(addr, n)
}

// FlipBit flips bit (0..7) of the byte at addr, emulating a single-bit
// transient error, and returns the previous byte value. Out-of-range flips
// are ignored and return 0.
func (m *Memory) FlipBit(addr uint32, bit uint) byte {
	if addr >= m.size {
		return 0
	}
	m.touch(addr, 1)
	m.bumpGen(addr, 1)
	p := m.pageAt(addr / PageSize)
	old := p[addr%PageSize]
	p[addr%PageSize] = old ^ (1 << (bit & 7))
	return old
}

// Seal records the current RAM contents as the pristine boot image used by
// Reboot. The machine calls it once after loading the kernel and workload.
func (m *Memory) Seal() {
	m.pristine = m.CopyImage()
	m.sealGen++
}

// SealGen returns the number of Seal calls so far. It changes exactly when
// Seal replaces the pristine image Reboot restores.
func (m *Memory) SealGen() uint64 { return m.sealGen }

// Reboot restores the pristine boot image recorded by Seal. Page flags and
// regions are retained (they are part of the boot configuration). The whole
// image changes, so any armed baseline sees every page as dirty.
func (m *Memory) Reboot() {
	if m.pristine == nil {
		panic("mem: Reboot before Seal")
	}
	m.markAllDirty()
	m.bumpAllGens()
	for i := range m.pages {
		m.load(m.pristine, i)
	}
}
