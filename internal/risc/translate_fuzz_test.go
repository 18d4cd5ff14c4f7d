package risc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"kfi/internal/isa"
	"kfi/internal/mem"
)

// Differential fuzzer: the RISC twin of the CISC translator fuzzer. Random
// programs run under the block translator and the reference interpreter in
// lockstep over the same cycle-horizon ladder, and every rung must agree on
// the full architectural state (GPRs, PC, CR, LR/CTR/XER, MSR, the SPR
// file), the cycle count, and any raised event — including the crash cause
// when the program faults, and including runs where a bit flip lands
// mid-execution in already translated pages.

const (
	fuzzMemSize  = 1 << 17
	fuzzCode     = 0x2000
	fuzzCodeSize = 2 * mem.PageSize
	fuzzData     = 0x8000
)

// genStructured emits a random but mostly well-formed program: register ops
// the micro-run fuser fuses, loads/stores into a mapped data page,
// compare+branch pairs over random labels, LR/CTR round-trips through
// mfspr/mtspr, self-modifying stores into the code page, and occasional
// wild accesses, divides, traps, and syscalls that must raise identical
// events on both engines.
func genStructured(rng *rand.Rand) []byte {
	a := NewAsm()
	n := 40 + rng.Intn(160)
	gpr := func() uint8 { // keep the base registers alive most of the time
		r := uint8(2 + rng.Intn(18))
		return r
	}
	src := func() uint8 { return uint8(rng.Intn(NumRegs)) }
	label := func() string { return fmt.Sprintf("L%d", rng.Intn(n+1)) }

	a.Li32(20, fuzzData)
	a.Li32(21, fuzzCode)
	xOps := []func(ra, rs, rb uint8){a.And, a.Or, a.Xor, a.Nor, a.Slw, a.Srw, a.Sraw}
	dOps := []func(d, ra uint8, imm int32){a.Addi, a.Addis, a.Mulli}
	uOps := []func(ra, rs uint8, imm uint16){a.Ori, a.Oris, a.Xori, a.AndiRc}
	sprs := []uint16{SprLR, SprCTR, SprXER}
	wilds := []int32{0x0, 0x40, 0x1F000, 0x7FFFFF0}
	for i := 0; i < n; i++ {
		a.Label(fmt.Sprintf("L%d", i))
		switch k := rng.Intn(40); {
		case k < 6:
			xOps[rng.Intn(len(xOps))](gpr(), src(), src())
		case k < 9:
			switch rng.Intn(3) {
			case 0:
				a.Add(gpr(), src(), src())
			case 1:
				a.Subf(gpr(), src(), src())
			default:
				a.Mullw(gpr(), src(), src())
			}
		case k < 13:
			dOps[rng.Intn(len(dOps))](gpr(), src(), int32(int16(rng.Int31())))
		case k < 16:
			uOps[rng.Intn(len(uOps))](gpr(), src(), uint16(rng.Int31()))
		case k < 17:
			a.Rlwinm(gpr(), src(), uint8(rng.Intn(32)), uint8(rng.Intn(32)), uint8(rng.Intn(32)))
		case k < 18:
			a.Srawi(gpr(), src(), uint8(rng.Intn(32)))
		case k < 19:
			if rng.Intn(2) == 0 {
				a.Extsb(gpr(), src())
			} else {
				a.Extsh(gpr(), src())
			}
		case k < 20:
			a.Neg(gpr(), src())
		case k < 21:
			if rng.Intn(2) == 0 {
				a.Mfcr(gpr())
			} else {
				a.Mtcrf(src())
			}
		case k < 23:
			if rng.Intn(2) == 0 {
				a.Mfspr(gpr(), sprs[rng.Intn(len(sprs))])
			} else {
				a.Mtspr(sprs[rng.Intn(len(sprs))], src())
			}
		case k < 26:
			switch rng.Intn(4) {
			case 0:
				a.Lwz(gpr(), 20, int32(rng.Intn(1000)*4))
			case 1:
				a.Lbz(gpr(), 20, int32(rng.Intn(4000)))
			case 2:
				a.Lhz(gpr(), 20, int32(rng.Intn(2000)*2))
			default:
				a.Lha(gpr(), 20, int32(rng.Intn(2000)*2))
			}
		case k < 29:
			switch rng.Intn(3) {
			case 0:
				a.Stw(src(), 20, int32(rng.Intn(1000)*4))
			case 1:
				a.Stb(src(), 20, int32(rng.Intn(4000)))
			default:
				a.Sth(src(), 20, int32(rng.Intn(2000)*2))
			}
		case k < 30:
			// Self-modifying store into the executing code region: the
			// translator must invalidate and re-decode exactly like the
			// interpreter's refetch.
			a.Stw(src(), 21, int32(rng.Intn(fuzzCodeSize/4))*4)
		case k < 31:
			r := gpr()
			a.Li32(r, wilds[rng.Intn(len(wilds))])
			a.Lwz(gpr(), r, int32(rng.Intn(2))) // sometimes unaligned too
		case k < 34:
			a.Cmpwi(src(), int32(int16(rng.Int31())))
			br := []func(sym string){a.Beq, a.Bne, a.Blt, a.Bgt, a.Bge, a.Ble}
			br[rng.Intn(len(br))](label())
		case k < 35:
			a.Cmpw(src(), src())
			a.Bne(label())
		case k < 36:
			a.Divw(gpr(), src(), src())
		case k < 37:
			a.B(label())
		case k < 38:
			a.Bl(label())
		case k < 39:
			a.Blr() // LR may hold garbage: wild or unaligned fetch
		default:
			a.Nop()
		}
	}
	a.Label(fmt.Sprintf("L%d", n))
	a.Halt()
	code, err := a.Link(fuzzCode, nil)
	if err != nil {
		panic(err)
	}
	return code
}

// genWords emits random 32-bit words: illegal encodings, privileged ops,
// and wild control flow — the fallback and negative-cache paths.
func genWords(rng *rand.Rand) []byte {
	b := make([]byte, 4*(16+rng.Intn(128)))
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
		m := mem.New(fuzzMemSize, binary.BigEndian)
		m.Map(fuzzCode, fuzzCodeSize, mem.Present|mem.Writable)
		m.Map(fuzzData, mem.PageSize, mem.Present|mem.Writable)
		m.WriteBytes(fuzzCode, prog)
		c := NewCPU(m)
		c.PC = fuzzCode
		c.R[20] = fuzzData
		c.R[21] = fuzzCode
		return c, m
	}
	ref, refMem := build()
	tx, txMem := build()
	tr := newTranslator(tx)

	state := func(c *CPU) string {
		return fmt.Sprint(c.R, c.PC, c.CR, c.LR, c.CTR, c.XER, c.MSR, c.Clk.Cycles())
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
		if ref.SPR != tx.SPR {
			t.Fatalf("rung %d: SPR files diverge", rung)
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
			rng := rand.New(rand.NewSource(0x515C + seed))
			runDiff(t, rng, genStructured(rng), seed%2 == 0, true)
		})
	}
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("raw/%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xF00D + seed))
			runDiff(t, rng, genWords(rng), seed%2 == 1, false)
		})
	}
}
