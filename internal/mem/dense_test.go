package mem

// Differential test of the page-sparse RAM against a dense model: one op
// sequence drives a Memory and a plain []byte kept here, and every byte read,
// every fault and the RAM contents after each op must match. The sequence is
// decoded from a byte string, so the seeded table test and the fuzz target
// share one driver.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

const (
	denseModelPages = 8
	denseModelSize  = denseModelPages * PageSize
	// The bus window sits just beyond RAM, as on the G4.
	denseBusLo = denseModelSize + PageSize
	denseBusHi = denseBusLo + PageSize
)

// denseModel is the reference: RAM as one flat slice, images as flat copies.
type denseModel struct {
	ram      []byte
	flags    []Flags
	order    binary.ByteOrder
	images   [][]byte // parallel to the Memory images the driver holds
	baseline int      // index into images; -1 when none is armed
	sealed   []byte
}

func (d *denseModel) check(addr, size uint32, write, user bool) *Fault {
	end := addr + size
	if addr >= denseBusLo && addr < denseBusHi {
		return &Fault{Kind: FaultBus, Addr: addr, Size: size, Write: write}
	}
	if end < addr || end > uint32(len(d.ram)) {
		return &Fault{Kind: FaultUnmapped, Addr: addr, Size: size, Write: write}
	}
	for p := addr / PageSize; p <= (end-1)/PageSize; p++ {
		f := d.flags[p]
		switch {
		case f&Present == 0 && addr < NullLimit:
			return &Fault{Kind: FaultNull, Addr: addr, Size: size, Write: write}
		case f&Present == 0:
			return &Fault{Kind: FaultUnmapped, Addr: addr, Size: size, Write: write}
		case write && f&Writable == 0, user && f&UserOK == 0:
			return &Fault{Kind: FaultProtection, Addr: addr, Size: size, Write: write}
		}
	}
	return nil
}

func (d *denseModel) inRange(addr, n uint32) bool {
	return addr+n >= addr && addr+n <= uint32(len(d.ram))
}

func (d *denseModel) get(addr, size uint32) uint32 {
	b := d.ram[addr : addr+size]
	switch size {
	case 1:
		return uint32(b[0])
	case 2:
		return uint32(d.order.Uint16(b))
	default:
		return d.order.Uint32(b)
	}
}

func (d *denseModel) put(addr, size, val uint32) {
	b := d.ram[addr : addr+size]
	switch size {
	case 1:
		b[0] = byte(val)
	case 2:
		d.order.PutUint16(b, uint16(val))
	default:
		d.order.PutUint32(b, val)
	}
}

// opReader decodes op arguments from the input; an exhausted input reads
// as zeros and ends the sequence.
type opReader struct{ b []byte }

func (r *opReader) u8() uint8 {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *opReader) u32() uint32 {
	return uint32(r.u8()) | uint32(r.u8())<<8 | uint32(r.u8())<<16 | uint32(r.u8())<<24
}

// addr picks an address that is page-straddling, anywhere in RAM, just past
// its end, in the bus window, or near the top of the address space.
func (r *opReader) addr() uint32 {
	k := r.u8()
	switch k % 5 {
	case 0:
		return uint32(k/5%(denseModelPages+1))*PageSize - uint32(r.u8()%16)
	case 1:
		return r.u32() % denseModelSize
	case 2:
		return denseModelSize - uint32(r.u8()%8)
	case 3:
		return denseBusLo + r.u32()%PageSize
	default:
		return -uint32(r.u8() % 16)
	}
}

func (r *opReader) size() uint32 { return [3]uint32{1, 2, 4}[r.u8()%3] }

// runDenseModel drives one op sequence, decoded from ops, on a fresh Memory
// and on the dense model, failing at the first divergence.
func runDenseModel(t *testing.T, order binary.ByteOrder, ops []byte) {
	t.Helper()
	m := New(denseModelSize, order)
	m.SetBusWindow(denseBusLo, denseBusHi)
	d := &denseModel{
		ram:      make([]byte, denseModelSize),
		flags:    make([]Flags, denseModelPages),
		order:    order,
		baseline: -1,
	}
	var imgs []*Image
	r := &opReader{b: ops}
	for step := 0; len(r.b) > 0; step++ {
		op := r.u8() % 17
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d (op %d): %s", step, op, fmt.Sprintf(format, args...))
		}
		sameFault := func(got, want *Fault) {
			t.Helper()
			if (got == nil) != (want == nil) || got != nil && *got != *want {
				fail("fault %+v, model %+v", got, want)
			}
		}
		switch op {
		case 0: // Read
			addr, size, user := r.addr(), r.size(), r.u8()&1 == 1
			v, f := m.Read(addr, size, user)
			want := d.check(addr, size, false, user)
			sameFault(f, want)
			if want == nil && v != d.get(addr, size) {
				fail("Read(0x%x, %d) = 0x%x, model 0x%x", addr, size, v, d.get(addr, size))
			}
		case 1: // Write
			addr, size, val, user := r.addr(), r.size(), r.u32(), r.u8()&1 == 1
			want := d.check(addr, size, true, user)
			sameFault(m.Write(addr, size, val, user), want)
			if want == nil {
				d.put(addr, size, val)
			}
		case 2: // Fetch
			addr, n, user := r.addr(), uint32(r.u8()%15)+1, r.u8()&1 == 1
			b, f := m.Fetch(addr, n, user)
			want := d.check(addr, n, false, user)
			sameFault(f, want)
			if want == nil && !bytes.Equal(b, d.ram[addr:addr+n]) {
				fail("Fetch(0x%x, %d) = %x, model %x", addr, n, b, d.ram[addr:addr+n])
			}
		case 3: // PeekBytes
			addr, n := r.addr(), uint32(r.u8()%15)+1
			b := m.PeekBytes(addr, n)
			switch {
			case !d.inRange(addr, n):
				if b != nil {
					fail("out-of-range PeekBytes(0x%x, %d) = %x", addr, n, b)
				}
			case !bytes.Equal(b, d.ram[addr:addr+n]):
				fail("PeekBytes(0x%x, %d) = %x, model %x", addr, n, b, d.ram[addr:addr+n])
			}
		case 4: // RawRead
			addr, size := r.addr(), r.size()
			var want uint32
			if d.inRange(addr, size) {
				want = d.get(addr, size)
			}
			if v := m.RawRead(addr, size); v != want {
				fail("RawRead(0x%x, %d) = 0x%x, model 0x%x", addr, size, v, want)
			}
		case 5: // RawWrite
			addr, size, val := r.addr(), r.size(), r.u32()
			m.RawWrite(addr, size, val)
			if d.inRange(addr, size) {
				d.put(addr, size, val)
			}
		case 6: // FlipBit
			addr, bit := r.addr(), uint(r.u8())
			var want byte
			if d.inRange(addr, 1) {
				want = d.ram[addr]
				d.ram[addr] ^= 1 << (bit & 7)
			}
			if old := m.FlipBit(addr, bit); old != want {
				fail("FlipBit(0x%x) = 0x%x, model 0x%x", addr, old, want)
			}
		case 7, 8: // Map, MapFill
			start := uint32(r.u8()%(denseModelPages+1))*PageSize + uint32(r.u8())
			size := uint32(r.u8()) * 64
			f := Flags(r.u8() & 7)
			first, last := start/PageSize, (start+size+PageSize-1)/PageSize
			if op == 7 {
				if start < NullLimit && f&Present != 0 {
					continue // Map refuses the NULL page range
				}
				m.Map(start, size, f)
			} else {
				m.MapFill(start, size, f)
				first = max(first, 1)
			}
			for p := first; p < last && p < denseModelPages; p++ {
				if op == 7 || d.flags[p] == 0 {
					d.flags[p] = f
				}
			}
		case 9: // CopyImage, armed as a synced baseline half the time
			img := m.CopyImage()
			if got := imageBytes(img); !bytes.Equal(got, d.ram) {
				fail("CopyImage differs from the model's RAM")
			}
			if len(imgs) == 4 {
				if d.baseline >= 0 {
					continue // keep the armed baseline's slot
				}
				imgs, d.images = imgs[1:], d.images[1:]
			}
			imgs, d.images = append(imgs, img), append(d.images, bytes.Clone(d.ram))
			if r.u8()&1 == 1 {
				m.SetBaseline(img, true)
				d.baseline = len(imgs) - 1
			}
		case 10: // SetBaseline, unsynced, on any held image
			if len(imgs) == 0 {
				continue
			}
			k := int(r.u8()) % len(imgs)
			m.SetBaseline(imgs[k], false)
			d.baseline = k
		case 11: // RestoreBaseline
			if d.baseline < 0 {
				continue
			}
			m.RestoreBaseline()
			copy(d.ram, d.images[d.baseline])
		case 12: // SyncBaseline
			if d.baseline < 0 {
				continue
			}
			m.SyncBaseline()
			copy(d.images[d.baseline], d.ram)
			if got := imageBytes(imgs[d.baseline]); !bytes.Equal(got, d.ram) {
				fail("synced baseline differs from the model's RAM")
			}
		case 13: // ClearBaseline
			m.ClearBaseline()
			d.baseline = -1
		case 14: // Seal
			m.Seal()
			d.sealed = bytes.Clone(d.ram)
		case 15: // Reboot
			if d.sealed == nil {
				continue
			}
			m.Reboot()
			copy(d.ram, d.sealed)
		case 16: // WriteBytes
			addr := r.addr()
			b := make([]byte, r.u8()%24)
			for i := range b {
				b[i] = r.u8()
			}
			ok := d.inRange(addr, uint32(len(b)))
			if m.WriteBytes(addr, b) != ok {
				fail("WriteBytes(0x%x, %d bytes) accepted = %v, model %v", addr, len(b), !ok, ok)
			}
			if ok {
				copy(d.ram[addr:], b)
			}
		}
		for p := range denseModelPages {
			got, want := m.ramPage(p)[:], d.ram[p*PageSize:(p+1)*PageSize]
			if !bytes.Equal(got, want) {
				fail("RAM page %d differs from the model", p)
			}
		}
	}
}

// imageBytes flattens an Image.
func imageBytes(img *Image) []byte {
	out := make([]byte, 0, len(img.pages)*PageSize)
	for _, p := range img.pages {
		if p == nil {
			p = &zeroPage
		}
		out = append(out, p[:]...)
	}
	return out
}

var denseOrders = []struct {
	name  string
	order binary.ByteOrder
}{{"le", binary.LittleEndian}, {"be", binary.BigEndian}}

func TestDenseModel(t *testing.T) {
	for _, c := range []struct {
		seed int64
		n    int // input bytes
	}{
		{1, 4096}, {2, 4096}, {3, 16384}, {4, 16384}, {5, 65536}, {6, 65536},
	} {
		ops := make([]byte, c.n)
		rand.New(rand.NewSource(c.seed)).Read(ops)
		for _, o := range denseOrders {
			t.Run(fmt.Sprintf("seed%d/%s", c.seed, o.name), func(t *testing.T) {
				runDenseModel(t, o.order, ops)
			})
		}
	}
}

func FuzzDenseModel(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, o := range denseOrders {
			runDenseModel(t, o.order, ops)
		}
	})
}
