// Kfi-tracediff pinpoints where a single code injection first derails the
// kernel: it runs the benchmark clean, re-runs it with the bit flip applied
// through the same breakpoint mechanism the campaigns use, and prints the
// instruction at which the two retired-instruction streams split, with
// symbolized context on both sides — the instruction-granularity version of
// the paper's Figure 7 propagation analysis.
//
//	kfi-tracediff -platform g4 -func getblk -instr 2 -bit 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"kfi"
	"kfi/internal/cc"
	"kfi/internal/cisc"
	"kfi/internal/cli"
	"kfi/internal/inject"
	"kfi/internal/tracediff"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kfi-tracediff:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("kfi-tracediff", flag.ContinueOnError)
	var (
		platformFlag = fs.String("platform", "p4", "target platform: p4 or g4")
		fn           = fs.String("func", "", "kernel function to corrupt (required)")
		instr        = fs.Int("instr", 0, "instruction index within the function")
		byteOff      = fs.Int("byte", 0, "byte offset within the instruction")
		bit          = fs.Int("bit", 0, "bit to flip (0-7)")
		burst        = fs.Int("burst", 1, "adjacent bits to flip")
		context      = fs.Int("context", 8, "instructions of context on each side")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fn == "" {
		return fmt.Errorf("-func is required")
	}
	if *bit < 0 || *bit > 7 {
		return fmt.Errorf("-bit must be 0-7")
	}

	platform, err := cli.ParsePlatform(*platformFlag)
	if err != nil {
		return err
	}

	sys, err := kfi.BuildSystem(platform, kfi.BuildOptions{})
	if err != nil {
		return err
	}
	img := sys.Sys.KernelImage
	var fr cc.FuncRange
	found := false
	for _, f := range img.Funcs {
		if f.Name == *fn {
			fr, found = f, true
			break
		}
	}
	if !found {
		return fmt.Errorf("unknown kernel function %q (try cmd/kfi-asm -symbols)", *fn)
	}

	addr, err := instrAddr(sys, fr, *instr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%v: flipping bit %d of byte %d at %s+0x%x (0x%08X)\n\n",
		platform, *bit, *byteOff, *fn, addr-fr.Start, addr)

	d, err := tracediff.Diff(sys.Sys, inject.Target{
		Campaign: inject.CampCode,
		Addr:     addr,
		ByteOff:  uint8(*byteOff),
		Bit:      uint(*bit),
		Burst:    uint8(*burst),
		Func:     *fn,
	}, *context, 0)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, d.Render())
	return err
}

// instrAddr walks instruction boundaries to the n-th instruction start.
func instrAddr(sys *kfi.System, fr cc.FuncRange, n int) (uint32, error) {
	addr := fr.Start
	for i := 0; i < n; i++ {
		dis := sys.Sys.Machine.Disasm(addr)
		size, err := instrSize(sys, addr)
		if err != nil {
			return 0, fmt.Errorf("cannot step past %q at 0x%X: %w", dis, addr, err)
		}
		addr += size
		if addr >= fr.End {
			return 0, fmt.Errorf("-instr %d is beyond the end of %s", n, fr.Name)
		}
	}
	return addr, nil
}

func instrSize(sys *kfi.System, addr uint32) (uint32, error) {
	if sys.Sys.Machine.RISCCPU() != nil {
		return 4, nil
	}
	bs := sys.Sys.Machine.Mem.PeekBytes(addr, 9)
	if bs == nil {
		return 0, fmt.Errorf("address 0x%X out of range", addr)
	}
	in, err := cisc.Decode(bs)
	if err != nil {
		return 0, err
	}
	return uint32(in.Len), nil
}
