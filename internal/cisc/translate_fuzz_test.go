package cisc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"kfi/internal/isa"
	"kfi/internal/mem"
)

// Differential fuzzer: random programs run under the block translator and
// the reference interpreter in lockstep (same cycle-horizon ladder), and
// every rung must agree on the full architectural state, the cycle count,
// and any raised event — including the crash cause when the program faults,
// and including runs where a bit flip lands mid-execution in already
// translated pages. This is the executable form of the translator's
// soundness argument, and it exercises the aluCanMicro/aluMicro pairing the
// run fuser depends on.

const (
	fuzzMemSize  = 1 << 17
	fuzzCode     = 0x2000
	fuzzCodeSize = 2 * mem.PageSize
	fuzzData     = 0x8000
	fuzzStack    = 0xA000
)

// genStructured emits a random but mostly well-formed program: register ops
// the run fuser fuses, loads/stores into a mapped data page, stack traffic,
// compare+branch pairs over random labels, self-modifying stores into the
// code page, and occasional wild accesses and divides that must fault with
// identical causes on both engines.
func genStructured(rng *rand.Rand) []byte {
	a := NewAsm()
	n := 40 + rng.Intn(160)
	gpr := func() uint8 { // steer clear of ESP so the stack mostly survives
		r := uint8(rng.Intn(numRegs))
		if r == ESP {
			r = EAX
		}
		return r
	}
	label := func() string { return fmt.Sprintf("L%d", rng.Intn(n+1)) }
	cc := func() uint8 { return uint8(rng.Intn(16)) }

	a.MovRI(6, fuzzData)
	a.MovRI(7, fuzzCode)
	a.MovRI(ESP, fuzzStack+mem.PageSize)
	rrOps := []func(d, s uint8){a.AddRR, a.SubRR, a.AndRR, a.OrRR, a.XorRR,
		a.MovRR, a.ImulRR, a.CmpRR, a.TestRR, a.XchgRR}
	riOps := []func(r uint8, imm int32){a.MovRI, a.AddRI, a.SubRI, a.AndRI,
		a.OrRI, a.XorRI, a.CmpRI, a.ImulRI}
	wilds := []int32{0x0, 0x40, 0x1F000, 0x7FFFFF0}
	for i := 0; i < n; i++ {
		a.Label(fmt.Sprintf("L%d", i))
		switch k := rng.Intn(36); {
		case k < 9:
			rrOps[rng.Intn(len(rrOps))](gpr(), gpr())
		case k < 14:
			riOps[rng.Intn(len(riOps))](gpr(), rng.Int31())
		case k < 15:
			sh := []func(r uint8, n int8){a.ShlRI, a.ShrRI, a.SarRI}
			sh[rng.Intn(len(sh))](gpr(), int8(rng.Intn(32)))
		case k < 16:
			un := []func(r uint8){a.IncR, a.DecR, a.NegR, a.NotR}
			un[rng.Intn(len(un))](gpr())
		case k < 17:
			mv := []func(d, s uint8){a.Movzx8, a.Movsx8, a.Movzx16, a.Movsx16}
			mv[rng.Intn(len(mv))](gpr(), gpr())
		case k < 18:
			a.SetCC(gpr(), cc())
		case k < 19:
			a.Lea(gpr(), 6, int32(rng.Intn(128)))
		case k < 22:
			switch rng.Intn(3) {
			case 0:
				a.Ld32(gpr(), 6, int32(rng.Intn(1000)*4))
			case 1:
				a.Ld8zx(gpr(), 6, int32(rng.Intn(1000)*4))
			default:
				a.Ld16zx(gpr(), 6, int32(rng.Intn(128))) // disp8-only form
			}
		case k < 25:
			switch rng.Intn(3) {
			case 0:
				a.St32(6, int32(rng.Intn(1000)*4), gpr())
			case 1:
				a.St8(6, int32(rng.Intn(1000)*4), gpr())
			default:
				a.St16(6, int32(rng.Intn(128)), gpr()) // disp8-only form
			}
		case k < 26:
			// Self-modifying store into the executing code region: the
			// translator must invalidate and re-decode exactly like the
			// interpreter's refetch.
			a.St32(7, int32(rng.Intn(fuzzCodeSize-4)), gpr())
		case k < 27:
			r := gpr()
			a.MovRI(r, wilds[rng.Intn(len(wilds))])
			a.Ld32(gpr(), r, 0)
		case k < 29:
			if rng.Intn(2) == 0 {
				a.PushR(gpr())
			} else {
				a.PopR(gpr())
			}
		case k < 30:
			a.PushI(rng.Int31())
		case k < 32:
			a.CmpRI(gpr(), int32(rng.Intn(64)))
			a.Jcc(cc(), label())
		case k < 33:
			a.Jcc(cc(), label())
		case k < 34:
			a.IdivRR(gpr(), gpr())
		case k < 35:
			a.Nop()
		default:
			a.JmpSym(label())
		}
	}
	a.Label(fmt.Sprintf("L%d", n))
	a.Hlt()
	code, err := a.Link(fuzzCode, nil)
	if err != nil {
		panic(err)
	}
	return code
}

// genBytes emits pure random bytes: decode faults, wild control flow, and
// page-straddling instructions — the negative-cache and fallback paths.
func genBytes(rng *rand.Rand) []byte {
	b := make([]byte, 64+rng.Intn(512))
	rng.Read(b)
	return b
}

// runDiff executes prog under the reference interpreter and the block
// translator on separate but identical machines, advancing both through the
// same random cycle-horizon ladder and comparing after every rung. When
// flip is set, one random bit of the code region flips mid-run on both.
func runDiff(t *testing.T, rng *rand.Rand, prog []byte, flip, wantTranslated bool) {
	t.Helper()
	build := func() (*CPU, *mem.Memory) {
		m := mem.New(fuzzMemSize, binary.LittleEndian)
		m.Map(fuzzCode, fuzzCodeSize, mem.Present|mem.Writable)
		m.Map(fuzzData, mem.PageSize, mem.Present|mem.Writable)
		m.Map(fuzzStack, mem.PageSize, mem.Present|mem.Writable)
		m.WriteBytes(fuzzCode, prog)
		c := NewCPU(m)
		c.EIP = fuzzCode
		c.Regs[ESP] = fuzzStack + mem.PageSize
		c.Regs[6] = fuzzData
		c.Regs[7] = fuzzCode
		return c, m
	}
	ref, refMem := build()
	tx, txMem := build()
	tr := newTranslator(tx)

	state := func(c *CPU) string {
		return fmt.Sprint(c.Regs, c.EIP, c.Flags, c.CR0, c.CR2, c.Mode, c.Clk.Cycles())
	}
	flipAt := -1
	if flip {
		flipAt = rng.Intn(30)
	}
	var limit uint64
	for rung := 0; rung < 60; rung++ {
		limit += uint64(1 + rng.Intn(400))
		evR := ref.RunUntil(limit)
		evT := tr.RunUntil(limit)
		if evR != evT {
			t.Fatalf("rung %d: events diverge:\n  interp:    %+v\n  translate: %+v", rung, evR, evT)
		}
		if sr, st := state(ref), state(tx); sr != st {
			t.Fatalf("rung %d: state diverges:\n  interp:    %s\n  translate: %s", rung, sr, st)
		}
		if evR.Kind != isa.EvNone {
			break
		}
		if rung == flipAt {
			addr := fuzzCode + uint32(rng.Intn(len(prog)))
			bit := uint(rng.Intn(8))
			refMem.FlipBit(addr, bit)
			txMem.FlipBit(addr, bit)
		}
	}
	if !bytes.Equal(refMem.PeekBytes(0, refMem.Size()), txMem.PeekBytes(0, txMem.Size())) {
		t.Fatal("memory images diverge")
	}
	if wantTranslated && tr.Counters.Translated == 0 {
		t.Fatal("translator never translated a block — the fuzzer is only testing fallback paths")
	}
}

func TestTranslatorDifferentialFuzz(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("structured/%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xC15C + seed))
			runDiff(t, rng, genStructured(rng), seed%2 == 0, true)
		})
	}
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("raw/%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xBEEF + seed))
			runDiff(t, rng, genBytes(rng), seed%2 == 1, false)
		})
	}
}
