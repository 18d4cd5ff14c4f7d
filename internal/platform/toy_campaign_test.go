package platform_test

// End-to-end proof of the registry's extensibility claim: the toy platform
// defined in toy_test.go boots, profiles, and runs injection campaigns
// through the unmodified machine/campaign/inject/snapshot stack. Nothing in
// those layers knows the toy ISA exists — every platform-specific decision
// flows through the Descriptor registered from this _test package.

import (
	"encoding/binary"
	"reflect"
	"testing"

	"kfi/internal/campaign"
	"kfi/internal/cc"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/machine"
	"kfi/internal/platform"
)

// toyProgram assembles the toy benchmark:
//
//	toy_boot:     r1 = 0; r4 = 1; r4 += r4 (x12, so r4 = 4096);
//	              r2 = data[0]; r3 = data[1]
//	toy_loop:     r1 += r2; r1 ^= r3; r4--; loop while r4 != 0
//	toy_epilogue: data[2] = r1; SYS 0 (report r1 as the checksum)
//
// The loop retires ~16k of the run's ~16.4k instructions, so the profiler
// must attribute >95% of cycles to toy_loop and the code campaign must
// target it.
func toyProgram() []byte {
	ins := func(op, rd, n byte) []byte { return []byte{op, rd<<4 | n} }
	var code []byte
	emit := func(bs []byte) { code = append(code, bs...) }

	emit(ins(opLI, 1, 0))
	emit(ins(opLI, 4, 1))
	for i := 0; i < 12; i++ {
		emit(ins(opADD, 4, 4))
	}
	emit(ins(opLD, 2, 0))
	emit(ins(opLD, 3, 1))
	// toy_loop at toyCodeBase+0x20:
	emit(ins(opADD, 1, 2))
	emit(ins(opXOR, 1, 3))
	emit(ins(opDEC, 4, 0))
	emit(ins(opJNZ, 4, 3)) // back 4 instructions, to toy_loop
	// toy_epilogue at toyCodeBase+0x28:
	emit(ins(opST, 1, 2))
	emit(ins(opSYS, 0, 0))
	return code
}

// toyImage hand-builds the linked image the machine boots — the toy has no
// compiler, so the "kernel" is assembled above and the data section holds
// the two benchmark inputs.
func toyImage() *cc.Image {
	code := toyProgram()
	data := make([]byte, 64) // 16 data words
	binary.BigEndian.PutUint32(data[0:], 0x1234_5678)
	binary.BigEndian.PutUint32(data[4:], 0x0BAD_CAFE)
	loop := toyCodeBase + 0x20
	epi := toyCodeBase + 0x28
	end := toyCodeBase + uint32(len(code))
	return &cc.Image{
		Platform: toyID,
		Code:     code,
		CodeBase: toyCodeBase,
		Data:     data,
		DataBase: toyDataBase,
		Syms:     map[string]uint32{"kstart": toyCodeBase},
		Funcs: []cc.FuncRange{
			{Name: "toy_boot", Start: toyCodeBase, End: loop},
			{Name: "toy_loop", Start: loop, End: epi},
			{Name: "toy_epilogue", Start: epi, End: end},
		},
	}
}

// toySystem boots a sealed toy guest. Only the System fields the non-stack
// campaigns consume are populated; Src and Glue stay nil exactly because no
// consuming layer may require them for a platform that does not need them.
func toySystem(t *testing.T) *kernel.System {
	t.Helper()
	img := toyImage()
	m, err := machine.New(machine.Config{
		Platform:  toyID,
		Image:     img,
		MemSize:   0x10000,
		BootEntry: img.Sym("kstart"),
		BootSP:    toyDataBase + 0x1000,
	})
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	m.Seal()
	return &kernel.System{
		Platform:    toyID,
		Machine:     m,
		KernelImage: img,
		Procs:       make([]kernel.ProcSpec, 1),
		KStackSize:  0x400,
	}
}

// toyGoldenChecksum computes what the benchmark reports when fault-free.
func toyGoldenChecksum() uint32 {
	var r1 uint32
	for i := 0; i < 4096; i++ {
		r1 = (r1 + 0x1234_5678) ^ 0x0BAD_CAFE
	}
	return r1
}

func TestToyPlatformGoldenRun(t *testing.T) {
	sys := toySystem(t)
	golden, err := campaign.Golden(sys)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	if want := toyGoldenChecksum(); golden != want {
		t.Fatalf("golden checksum %08x, want %08x", golden, want)
	}

	profile, err := campaign.ProfileKernel(sys)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	hot := profile.Hot(0.95)
	if len(hot) != 1 || hot[0].Name != "toy_loop" {
		t.Fatalf("hot functions %v, want just toy_loop", hot)
	}
}

// TestToyPlatformDeterministicInjections pins down two hand-picked
// injections whose outcomes are fully predictable from the ISA definition.
func TestToyPlatformDeterministicInjections(t *testing.T) {
	sys := toySystem(t)
	golden, err := campaign.Golden(sys)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}

	// Flip bit 7 of the LD r2,0 opcode at +0x1C: 0x03 becomes 0x83, an
	// undecodable opcode, so the run must crash with the toy's illegal-
	// instruction cause — proving extension causes flow through the
	// machine's crash classification unmodified.
	res := inject.RunOne(sys, inject.Target{
		Campaign: inject.CampCode,
		Addr:     toyCodeBase + 0x1C,
		ByteOff:  0,
		Bit:      7,
	}, golden)
	if res.Outcome != inject.OCrash {
		t.Fatalf("code flip outcome %v, want crash (cause %v)", res.Outcome, res.Cause)
	}
	if res.Cause != toyCauseIllegal {
		t.Fatalf("code flip cause %v, want %v", res.Cause, toyCauseIllegal)
	}
	if got := res.Cause.Platform(); got != toyID {
		t.Fatalf("crash cause owner %v, want %v", got, toyID)
	}

	// Flip bit 0 of data[0]: the loop folds the corrupted word into the
	// checksum 4096 times, the run completes, and the bad result is a
	// fail-silence violation.
	res = inject.RunOne(sys, inject.Target{
		Campaign: inject.CampData,
		Addr:     toyDataBase,
		Bit:      0,
	}, golden)
	if res.Outcome != inject.OFailSilence {
		t.Fatalf("data flip outcome %v, want fail-silence", res.Outcome)
	}
	if !res.Activated {
		t.Fatal("data flip not marked activated despite the loop reading it")
	}
}

// TestToyPlatformMiniCampaign runs code, data, and sysreg campaigns twice —
// fork-from-golden and replay-from-boot — and requires identical results.
// This is the same equivalence contract the built-in platforms' golden tests
// enforce, demonstrated on a platform the campaign layer has never seen.
func TestToyPlatformMiniCampaign(t *testing.T) {
	sys := toySystem(t)
	golden, err := campaign.Golden(sys)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	profile, err := campaign.ProfileKernel(sys)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}

	specs := []campaign.Spec{
		{Campaign: inject.CampCode, N: 12, Seed: 41},
		{Campaign: inject.CampData, N: 12, Seed: 42},
		{Campaign: inject.CampSysReg, N: 6, Seed: 43},
	}
	for _, spec := range specs {
		fork, err := campaign.Run(sys, golden, profile, spec, nil)
		if err != nil {
			t.Fatalf("%v fork-from-golden: %v", spec.Campaign, err)
		}
		targets, err := campaign.Targets(sys, profile, spec)
		if err != nil {
			t.Fatalf("%v targets: %v", spec.Campaign, err)
		}
		replay := campaign.ReplayFromBoot(sys, golden, targets)
		if !reflect.DeepEqual(fork.Results, replay) {
			t.Errorf("%v: fork-from-golden and replay outcomes differ", spec.Campaign)
			for i := range fork.Results {
				if !reflect.DeepEqual(fork.Results[i], replay[i]) {
					t.Errorf("  injection %d:\n    fork:   %+v\n    replay: %+v",
						i, fork.Results[i], replay[i])
				}
			}
			continue
		}
		counts := map[inject.Outcome]int{}
		for _, r := range fork.Results {
			counts[r.Outcome]++
		}
		t.Logf("%v x%d: %v", spec.Campaign, spec.N, counts)
	}
}

// TestToyPlatformResolvesByName double-checks the registry exposes the toy
// like any built-in platform.
func TestToyPlatformResolvesByName(t *testing.T) {
	if !isa.Registered(toyID) {
		t.Fatal("toy platform not registered with isa")
	}
	if got := toyID.Short(); got != "toy" {
		t.Fatalf("toyID.Short() = %q, want \"toy\"", got)
	}
	for _, name := range []string{"toy", "toy16"} {
		d, ok := platform.ByName(name)
		if !ok || d.ID() != toyID {
			t.Errorf("platform.ByName(%q) = (%v, %v), want the toy descriptor", name, d, ok)
		}
	}
}
