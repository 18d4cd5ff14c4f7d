package staticsense

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"kfi/internal/cc"
	"kfi/internal/cisc"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/kir"
	"kfi/internal/workload"
)

// findOpcode locates an opcode byte for (op, format) in the dense table.
func findOpcode(t *testing.T, op cisc.Op, format cisc.Format) byte {
	t.Helper()
	for b := 0; b < 256; b++ {
		if o, f, ok := cisc.Lookup(byte(b)); ok && o == op && f == format {
			return byte(b)
		}
	}
	t.Fatalf("no opcode for op %v format %v", op, format)
	return 0
}

// ciscImage assembles a synthetic one-function CISC image.
func ciscImage(code []byte) *cc.Image {
	const base = 0x1000
	return &cc.Image{
		Platform: isa.CISC,
		Code:     code,
		CodeBase: base,
		Funcs:    []cc.FuncRange{{Name: "f", Start: base, End: base + uint32(len(code))}},
	}
}

func TestClassifyCISCSynthetic(t *testing.T) {
	movRR := findOpcode(t, cisc.OpMOV, cisc.FRR)   // 2 bytes: op, mod
	movRI := findOpcode(t, cisc.OpMOV, cisc.FRI32) // 6 bytes: op, mod, imm32
	ret := findOpcode(t, cisc.OpRET, cisc.FNone)   // 1 byte

	// mov ebx, ecx ; mov ebx, 0x11223344 ; ret
	// (FRR packs R1 in the high nibble; FRI32 keeps the register in the
	// low 3 bits of its mod byte.)
	code := []byte{movRR, 0x31, movRI, 0x03, 0x44, 0x33, 0x22, 0x11, ret}
	an, err := New(ciscImage(code))
	if err != nil {
		t.Fatal(err)
	}
	const i0, i1 = 0x1000, 0x1002

	cases := []struct {
		name    string
		addr    uint32
		byteOff uint8
		bit     uint
		class   Class
		inert   bool
	}{
		{"spare high mod bit", i0, 1, 7, ClassInertEncoding, true},
		{"spare low mod bit", i0, 1, 3, ClassInertEncoding, true},
		// Source register ecx -> eax: ebx still written, and killed by the
		// following mov ebx, imm32 before anything reads it.
		{"dead source change", i0, 1, 0, ClassDeadValue, true},
		// Destination ebx -> edx: edx is written and never overwritten
		// before the ret barrier, so the flip is live.
		{"live dest change", i0, 1, 4, ClassRegField, false},
		// Immediate byte of the second mov: ebx stays live to the caller.
		{"live immediate", i1, 2, 0, ClassImmediate, false},
	}
	for _, tc := range cases {
		p := an.ClassifyFlip(tc.addr, tc.byteOff, tc.bit)
		if p.Class != tc.class || p.Inert != tc.inert {
			t.Errorf("%s: got class=%v inert=%v (%s), want class=%v inert=%v",
				tc.name, p.Class, p.Inert, p.Detail, tc.class, tc.inert)
		}
	}
}

func TestClassifyUnknowns(t *testing.T) {
	movRR := findOpcode(t, cisc.OpMOV, cisc.FRR)
	ret := findOpcode(t, cisc.OpRET, cisc.FNone)
	an, err := New(ciscImage([]byte{movRR, 0x31, ret}))
	if err != nil {
		t.Fatal(err)
	}
	if p := an.ClassifyFlip(0x1001, 0, 0); p.Class != ClassUnknown {
		t.Errorf("mid-instruction address: got %v, want unknown", p.Class)
	}
	if p := an.ClassifyFlip(0x1000, 2, 0); p.Class != ClassUnknown {
		t.Errorf("byte offset beyond instruction: got %v, want unknown", p.Class)
	}
	if p := an.ClassifyFlip(0x9999, 0, 0); p.Class != ClassUnknown {
		t.Errorf("foreign address: got %v, want unknown", p.Class)
	}
}

// riscWord encodes instruction words for a synthetic RISC image.
func riscImage(words []uint32) *cc.Image {
	const base = 0x2000
	code := make([]byte, 4*len(words))
	for i, w := range words {
		code[4*i] = byte(w >> 24)
		code[4*i+1] = byte(w >> 16)
		code[4*i+2] = byte(w >> 8)
		code[4*i+3] = byte(w)
	}
	return &cc.Image{
		Platform: isa.RISC,
		Code:     code,
		CodeBase: base,
		Funcs:    []cc.FuncRange{{Name: "f", Start: base, End: base + uint32(len(code))}},
	}
}

func TestClassifyRISCSynthetic(t *testing.T) {
	words := []uint32{
		14<<26 | 5<<21 | 0<<16 | 1,              // addi r5, 0, 1
		31<<26 | 6<<21 | 5<<16 | 5<<11 | 266<<1, // add r6, r5, r5
		14<<26 | 6<<21 | 0<<16 | 7,              // addi r6, 0, 7
		19<<26 | 20<<21 | 16<<1,                 // blr
	}
	an, err := New(riscImage(words))
	if err != nil {
		t.Fatal(err)
	}
	const w0, w1 = 0x2000, 0x2004

	// rawBit maps an instruction bit (IBM bit 31-n) to (byteOff, bit) of
	// the big-endian memory layout.
	rawBit := func(n uint) (uint8, uint) { return uint8(3 - n/8), n % 8 }

	cases := []struct {
		name  string
		addr  uint32
		bitN  uint
		class Class
		inert bool
	}{
		// The executor never evaluates Rc on X-form ALU ops.
		{"rc bit ignored", w1, 0, ClassInertEncoding, true},
		// rb r5 -> r4: r6 is still the destination, killed by the addi.
		{"dead rb change", w1, 11, ClassDeadValue, true},
		// rd r6 -> r7: r7 survives to the blr barrier.
		{"live rd change", w1, 21, ClassRegField, false},
		// addi immediate: r5 is read by the following add.
		{"live immediate", w0, 1, ClassImmediate, false},
		// xo 266 -> 267 decodes to nothing.
		{"invalid xo", w1, 1, ClassInvalid, false},
	}
	for _, tc := range cases {
		off, bit := rawBit(tc.bitN)
		p := an.ClassifyFlip(tc.addr, off, bit)
		if p.Class != tc.class || p.Inert != tc.inert {
			t.Errorf("%s: got class=%v inert=%v (%s), want class=%v inert=%v",
				tc.name, p.Class, p.Inert, p.Detail, tc.class, tc.inert)
		}
	}
}

// buildKernelImage compiles the benchmark workload and kernel for p.
func buildKernelImage(t *testing.T, p isa.Platform) *cc.Image {
	t.Helper()
	uimg, err := cc.Compile(workload.Program(1), p, kernel.UserBases)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := kernel.BuildSystem(p, uimg, workload.StandardProcs(), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys.KernelImage
}

func TestSweepRealKernels(t *testing.T) {
	for _, p := range []isa.Platform{isa.CISC, isa.RISC} {
		an, err := New(buildKernelImage(t, p))
		if err != nil {
			t.Fatal(err)
		}
		r := an.Sweep()
		if r.Sites == 0 {
			t.Fatalf("%v: sweep found no candidate sites", p)
		}
		if r.Inert == 0 {
			t.Errorf("%v: sweep predicts no inert flips; expected some (spare encoding bits exist on both ISAs)", p)
		}
		if n := r.ByClass[ClassInertEncoding.String()]; n == 0 {
			t.Errorf("%v: no inert-encoding sites found", p)
		}
		if got := r.InertFrac(); got <= 0 || got >= 0.9 {
			t.Errorf("%v: implausible inert fraction %.3f", p, got)
		}
		sum := 0
		for _, n := range r.ByClass {
			sum += n
		}
		if sum != r.Sites {
			t.Errorf("%v: class counts sum to %d, want %d", p, sum, r.Sites)
		}
		t.Logf("\n%s", r.Render())
	}
}

// TestSweepLabelsHardenedImages: a sweep over a hardened kernel carries the
// Hardened label (derived from the synthesized detector symbol), and the
// hardening checks visibly enlarge the classified injection space.
func TestSweepLabelsHardenedImages(t *testing.T) {
	plainAn, err := New(buildKernelImage(t, isa.RISC))
	if err != nil {
		t.Fatal(err)
	}
	plain := plainAn.Sweep()
	if plain.Hardened {
		t.Fatal("unhardened sweep labeled hardened")
	}
	uimg, err := cc.Compile(workload.Program(1), isa.RISC, kernel.UserBases)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := kernel.BuildSystem(isa.RISC, uimg, workload.StandardProcs(),
		kernel.Options{Harden: kir.HardenOpts{Dup: true, CFSig: true}})
	if err != nil {
		t.Fatal(err)
	}
	an, err := New(sys.KernelImage)
	if err != nil {
		t.Fatal(err)
	}
	r := an.Sweep()
	if !r.Hardened {
		t.Error("hardened sweep not labeled hardened")
	}
	if r.Sites <= plain.Sites {
		t.Errorf("hardened sweep has %d sites, want more than the unhardened %d", r.Sites, plain.Sites)
	}
}

// TestReportJSONPlatformName: a report's JSON names its platform p4 or g4,
// not by isa.Platform's number, and reads back to the same report.
func TestReportJSONPlatformName(t *testing.T) {
	for _, p := range []isa.Platform{isa.CISC, isa.RISC} {
		r := &Report{Platform: p, Sites: 3, ByClass: map[string]int{"inert-encoding": 3}, Inert: 3,
			Targets: []*TargetReport{{Target: "code", Sites: 3, ByClass: map[string]int{"inert-encoding": 3}, Inert: 3}}}
		b, err := json.Marshal([]*Report{r})
		if err != nil {
			t.Fatal(err)
		}
		want := `[{"platform":"` + p.Short() + `","sites":3,`
		if !strings.HasPrefix(string(b), want) {
			t.Errorf("%v: JSON %s, want it to start %s", p, b, want)
		}
		var back []*Report
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if len(back) != 1 || !reflect.DeepEqual(back[0], r) {
			t.Errorf("%v: round trip gave %+v, want %+v", p, back, r)
		}
	}
	var r Report
	if err := json.Unmarshal([]byte(`{"platform":"vax","sites":1}`), &r); err == nil {
		t.Error("a report for an unknown platform decoded")
	}
}
