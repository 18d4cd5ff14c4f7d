package cc

import (
	"encoding/binary"
	"fmt"
	"testing"

	"kfi/internal/cisc"
	"kfi/internal/isa"
	"kfi/internal/kir"
	"kfi/internal/mem"
	"kfi/internal/risc"
)

// Test address-space layout.
var testBases = Bases{Code: 0x10000, Data: 0x40000, BSS: 0x60000}

const (
	testStackBase = 0x80000
	testStackSize = 0x8000
	testRetSentry = 0xDEAD0000 // unmapped, 4-aligned: reaching it ends the run
	testMemSize   = 1 << 20
	testStepLimit = 5_000_000
)

// guest wraps a compiled image with enough machinery to call functions.
type guest struct {
	im   *Image
	mc   *mem.Memory
	cCPU *cisc.CPU
	rCPU *risc.CPU
}

func loadGuest(t *testing.T, im *Image) *guest {
	t.Helper()
	order := binary.ByteOrder(binary.LittleEndian)
	if im.Platform == isa.RISC {
		order = binary.BigEndian
	}
	m := mem.New(testMemSize, order)
	m.Map(im.CodeBase, uint32(len(im.Code)), mem.Present)
	m.Map(im.DataBase, uint32(len(im.Data))+mem.PageSize, mem.Present|mem.Writable)
	m.Map(im.BSSBase, im.BSSSize+mem.PageSize, mem.Present|mem.Writable)
	m.Map(testStackBase, testStackSize, mem.Present|mem.Writable)
	m.WriteBytes(im.CodeBase, im.Code)
	m.WriteBytes(im.DataBase, im.Data)
	g := &guest{im: im, mc: m}
	if im.Platform == isa.CISC {
		g.cCPU = cisc.NewCPU(m)
	} else {
		g.rCPU = risc.NewCPU(m)
	}
	return g
}

// call executes fn(args...) and returns the result register.
func (g *guest) call(t *testing.T, fn string, args ...uint32) (uint32, error) {
	t.Helper()
	entry := g.im.Sym(fn)
	if g.cCPU != nil {
		c := g.cCPU
		c.Regs[cisc.ESP] = testStackBase + testStackSize
		// Push args right to left, then the sentinel return address.
		for i := len(args) - 1; i >= 0; i-- {
			c.Regs[cisc.ESP] -= 4
			c.Mem.RawWrite(c.Regs[cisc.ESP], 4, args[i])
		}
		c.Regs[cisc.ESP] -= 4
		c.Mem.RawWrite(c.Regs[cisc.ESP], 4, testRetSentry)
		c.EIP = entry
		for i := 0; i < testStepLimit; i++ {
			if c.EIP == testRetSentry {
				return c.Regs[cisc.EAX], nil
			}
			if ev := c.Step(); ev.Kind != isa.EvNone {
				return 0, fmt.Errorf("cisc event %+v at eip=0x%x", ev, c.EIP)
			}
		}
		return 0, fmt.Errorf("cisc step limit")
	}
	c := g.rCPU
	c.R[risc.SP] = testStackBase + testStackSize - 16
	for i, v := range args {
		c.R[3+i] = v
	}
	c.LR = testRetSentry
	c.PC = entry
	for i := 0; i < testStepLimit; i++ {
		if c.PC == testRetSentry&^3 {
			return c.R[3], nil
		}
		if ev := c.Step(); ev.Kind != isa.EvNone {
			return 0, fmt.Errorf("risc event %+v at pc=0x%x", ev, c.PC)
		}
	}
	return 0, fmt.Errorf("risc step limit")
}

// compileBoth compiles the program for both platforms.
func compileBoth(t *testing.T, p *kir.Program) map[isa.Platform]*Image {
	t.Helper()
	out := make(map[isa.Platform]*Image, 2)
	for _, plat := range []isa.Platform{isa.CISC, isa.RISC} {
		im, err := Compile(p, plat, testBases)
		if err != nil {
			t.Fatalf("Compile(%v): %v", plat, err)
		}
		out[plat] = im
	}
	return out
}

// checkAgainstInterp runs fn on the interpreter and both compiled guests for
// each argument tuple and requires identical results.
func checkAgainstInterp(t *testing.T, p *kir.Program, fn string, argSets [][]uint32) {
	t.Helper()
	images := compileBoth(t, p)
	for _, plat := range []isa.Platform{isa.CISC, isa.RISC} {
		ip, err := kir.NewInterp(p, kir.NewLayout(plat))
		if err != nil {
			t.Fatal(err)
		}
		g := loadGuest(t, images[plat])
		for _, args := range argSets {
			want, err := ip.Call(fn, args...)
			if err != nil {
				t.Fatalf("interp %s%v: %v", fn, args, err)
			}
			got, err := g.call(t, fn, args...)
			if err != nil {
				t.Fatalf("[%v] %s%v: %v", plat, fn, args, err)
			}
			if got != want {
				t.Errorf("[%v] %s%v = %d, want %d (interp)", plat, fn, args, got, want)
			}
			// Reload for the next argument set so global state matches a
			// fresh interpreter... globals persist across calls in both
			// worlds, so only reset when the test says so.
		}
	}
}
