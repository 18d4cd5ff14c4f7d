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
	first, err := sys.GoldenTrace()
	if err != nil {
		t.Fatal(err)
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
	again, err := sys.GoldenTrace()
	if err != nil || again != first {
		t.Errorf("second call: err=%v same=%v, want the memo", err, again == first)
	}
	// Re-seal the boot image unchanged: Seal alone must drop the memo.
	sys.Machine.Reboot()
	sys.Machine.Seal()
	resealed, err := sys.GoldenTrace()
	if err != nil || resealed == first {
		t.Errorf("after Seal: err=%v same=%v, want a new trace", err, resealed == first)
	}
}
