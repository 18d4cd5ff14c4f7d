package kernel_test

import (
	"testing"

	"kfi/internal/isa"
)

// TestGoldenTraceMemo: a system traces its golden run once, on the first
// call, and again only after Seal replaced the sealed image. The trace
// describes the same run an untraced Run does.
func TestGoldenTraceMemo(t *testing.T) {
	sys := buildStandard(t, isa.CISC)
	first, traced, err := sys.GoldenTrace()
	if err != nil || !traced {
		t.Fatalf("first call: traced=%v err=%v, want a trace", traced, err)
	}
	run := sys.Run()
	if first.Cycles() != run.Cycles || first.Checksum() != run.Checksum {
		t.Errorf("trace: %d cycles checksum %08x; untraced run: %d cycles checksum %08x",
			first.Cycles(), first.Checksum(), run.Cycles, run.Checksum)
	}
	if _, ok := first.FirstHit(sys.KernelImage.Sym("kstart")); !ok {
		t.Error("the trace never reaches kstart")
	}
	if _, ok := first.FirstTouch(sys.KernelImage.Sym("current") + 1); !ok {
		t.Error("the trace records no touch of the word holding current")
	}
	again, traced, err := sys.GoldenTrace()
	if err != nil || traced || again != first {
		t.Errorf("second call: traced=%v err=%v same=%v, want the memo", traced, err, again == first)
	}
	// Re-seal the boot image unchanged: Seal alone must drop the memo.
	sys.Machine.Reboot()
	sys.Machine.Seal()
	resealed, traced, err := sys.GoldenTrace()
	if err != nil || !traced || resealed == first {
		t.Errorf("after Seal: traced=%v err=%v same=%v, want a new trace", traced, err, resealed == first)
	}
}
