// Package campaign implements the NFTAPE-style control loop of the paper's
// §3.2: profile the kernel under the benchmark, pre-generate injection
// targets for each campaign (STEP 1), run one injection per reboot (STEP 2),
// and collect classified outcomes (STEP 3).
package campaign

import (
	"fmt"
	"math/rand"
	"sort"

	"kfi/internal/cc"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/mem"
	"kfi/internal/platform"
)

// Spec describes one injection campaign.
type Spec struct {
	Campaign inject.Campaign
	// N is the number of injections (the paper's "Injected" column).
	N int
	// Seed makes target generation reproducible.
	Seed int64
	// Burst widens the error model: 0 or 1 is the paper's single-bit flip,
	// k > 1 flips k adjacent bits per injection (multi-bit upset).
	Burst uint8
}

// FuncWeight is one kernel function's share of execution.
type FuncWeight struct {
	Name       string
	Start, End uint32
	Cycles     uint64
}

// Profile is the kernel usage profile measured under the benchmark
// (the paper's kernprof step).
type Profile struct {
	Funcs []FuncWeight // sorted by Cycles descending
	Total uint64
}

// ProfileKernel is the kernel profile of the system's golden run
// (System.GoldenTrace), tracing it only if no earlier call on the sealed
// image did. Each call returns a fresh Profile.
func ProfileKernel(sys *kernel.System) (*Profile, error) {
	tr, err := sys.GoldenTrace()
	if err != nil {
		return nil, err
	}
	return profileOf(sys.KernelImage, tr.TextCycles), nil
}

// profileOf attributes the cycles retired at each kernel-text PC (cycles,
// GoldenTrace.TextCycles) to the kernel function holding it.
func profileOf(im *cc.Image, cycles func(pc uint32) uint64) *Profile {
	counts := make([]uint64, len(im.Funcs))
	lo := im.CodeBase
	hi := im.CodeBase + uint32(len(im.Code))
	for pc := lo; pc < hi; pc++ {
		c := cycles(pc)
		if c == 0 {
			continue
		}
		i := sort.Search(len(im.Funcs), func(i int) bool { return im.Funcs[i].End > pc })
		if i < len(im.Funcs) && pc >= im.Funcs[i].Start {
			counts[i] += c
		}
	}
	p := &Profile{}
	for i, fr := range im.Funcs {
		if counts[i] == 0 {
			continue
		}
		p.Funcs = append(p.Funcs, FuncWeight{Name: fr.Name, Start: fr.Start, End: fr.End, Cycles: counts[i]})
		p.Total += counts[i]
	}
	sort.Slice(p.Funcs, func(i, j int) bool {
		if p.Funcs[i].Cycles != p.Funcs[j].Cycles {
			return p.Funcs[i].Cycles > p.Funcs[j].Cycles
		}
		return p.Funcs[i].Name < p.Funcs[j].Name
	})
	return p
}

// Hot returns the most-used functions covering at least the given fraction
// of kernel cycles (the paper selects functions representing >=95% of kernel
// usage).
func (p *Profile) Hot(coverage float64) []FuncWeight {
	var out []FuncWeight
	var acc uint64
	for _, f := range p.Funcs {
		out = append(out, f)
		acc += f.Cycles
		if float64(acc) >= coverage*float64(p.Total) {
			break
		}
	}
	return out
}

// Generator pre-generates injection targets (STEP 1).
type Generator struct {
	sys     *kernel.System
	profile *Profile
	rng     *rand.Rand
	// runCycles is the fault-free benchmark length, used to draw mid-run
	// injection times for stack and system-register campaigns.
	runCycles uint64
}

// NewGenerator builds a target generator. profile is required only for code
// campaigns; runCycles (the golden run length) spreads mid-run triggers.
func NewGenerator(sys *kernel.System, profile *Profile, seed int64, runCycles uint64) *Generator {
	if runCycles == 0 {
		runCycles = 2_000_000
	}
	return &Generator{sys: sys, profile: profile, rng: rand.New(rand.NewSource(seed)), runCycles: runCycles}
}

// delay draws a mid-run injection time across the benchmark's span.
func (g *Generator) delay() uint64 {
	return 5_000 + uint64(g.rng.Int63n(int64(g.runCycles)))
}

// Targets generates spec.N injection targets.
func (g *Generator) Targets(spec Spec) ([]inject.Target, error) {
	out := make([]inject.Target, 0, spec.N)
	for i := 0; i < spec.N; i++ {
		var (
			t   inject.Target
			err error
		)
		switch spec.Campaign {
		case inject.CampStack:
			t = g.stackTarget()
		case inject.CampData:
			t = g.dataTarget()
		case inject.CampSysReg:
			t = g.sysRegTarget()
		case inject.CampCode:
			t, err = g.codeTarget()
		default:
			err = fmt.Errorf("campaign: unknown campaign %v", spec.Campaign)
		}
		if err != nil {
			return nil, err
		}
		t.Burst = spec.Burst
		out = append(out, t)
	}
	return out, nil
}

func (g *Generator) stackTarget() inject.Target {
	return inject.Target{
		Campaign: inject.CampStack,
		ProcSlot: g.rng.Intn(len(g.sys.Procs)),
		StackPos: g.rng.Uint32(),
		Bit:      uint(g.rng.Intn(8)),
		Delay:    g.delay(),
	}
}

func (g *Generator) dataTarget() inject.Target {
	regions := g.sys.Machine.Mem.Regions(mem.KindData, mem.KindBSS)
	var filtered []mem.Region
	var total int
	for _, r := range regions {
		if r.Name == "percpu" {
			continue // not part of the kernel data/bss sections
		}
		filtered = append(filtered, r)
		total += int(r.Size())
	}
	off := g.rng.Intn(total)
	for _, r := range filtered {
		if off < int(r.Size()) {
			return inject.Target{
				Campaign: inject.CampData,
				Addr:     r.Start + uint32(off),
				Bit:      uint(g.rng.Intn(8)),
			}
		}
		off -= int(r.Size())
	}
	panic("campaign: data target selection out of range")
}

func (g *Generator) sysRegTarget() inject.Target {
	regs := g.sys.Machine.SystemRegisters()
	i := g.rng.Intn(len(regs))
	return inject.Target{
		Campaign: inject.CampSysReg,
		Reg:      i,
		RegName:  regs[i].Name,
		Bit:      uint(g.rng.Intn(int(regs[i].Bits))),
		Delay:    g.delay(),
	}
}

// codeTarget picks a hot function (weighted by measured cycles), an
// instruction within it, and a bit within the instruction.
func (g *Generator) codeTarget() (inject.Target, error) {
	if g.profile == nil || g.profile.Total == 0 {
		return inject.Target{}, fmt.Errorf("campaign: code campaign requires a kernel profile")
	}
	hot := g.profile.Hot(0.95)
	var total uint64
	for _, f := range hot {
		total += f.Cycles
	}
	pick := uint64(g.rng.Int63n(int64(total)))
	var fn FuncWeight
	for _, f := range hot {
		if pick < f.Cycles {
			fn = f
			break
		}
		pick -= f.Cycles
	}
	if fn.Name == "" {
		fn = hot[len(hot)-1]
	}
	instrs := g.instructionBoundaries(fn)
	if len(instrs) == 0 {
		return inject.Target{}, fmt.Errorf("campaign: function %s has no decodable instructions", fn.Name)
	}
	in := instrs[g.rng.Intn(len(instrs))]
	return inject.Target{
		Campaign: inject.CampCode,
		Addr:     in.addr,
		ByteOff:  uint8(g.rng.Intn(int(in.size))),
		Bit:      uint(g.rng.Intn(8)),
		Func:     fn.Name,
	}, nil
}

type instrRef struct {
	addr uint32
	size uint8
}

// instructionBoundaries statically decodes a compiled function's
// instructions through the platform descriptor (fixed-width words on RISC;
// variable-length decode on CISC).
func (g *Generator) instructionBoundaries(fn FuncWeight) []instrRef {
	im := g.sys.KernelImage
	code := im.Code[fn.Start-im.CodeBase : fn.End-im.CodeBase]
	refs := platform.MustGet(g.sys.Platform).InstructionBoundaries(code, fn.Start)
	out := make([]instrRef, len(refs))
	for i, r := range refs {
		out[i] = instrRef{addr: r.Addr, size: r.Size}
	}
	return out
}

// Result is a completed campaign.
type Result struct {
	Spec     Spec
	Platform isa.Platform
	Results  []inject.Result
	// EngineStats are the translator's observability counters accumulated
	// over the run (all zero on the reference interpreter, which has nothing
	// to count). Farm runs sum the per-node counters. Purely informational:
	// outcomes never depend on them.
	EngineStats platform.EngineStats
	// Executed counts the rows this run's executor ran from a snapshot;
	// Synthesized counts the rows its plan completed from the traced golden
	// run without running them (Plan.Pre). Rows resumed from a journal or
	// served by the section cache count in neither. Unlike wall time, both
	// are exact: a fixed spec and seed always give the same two numbers.
	Executed, Synthesized int
}

// Run executes a campaign: golden is the fault-free checksum; progress (may
// be nil) is called after each injection. It uses the default execution
// options; see RunWith and ExecOptions.
func Run(sys *kernel.System, golden uint32, profile *Profile, spec Spec, progress func(done, total int)) (*Result, error) {
	return RunWith(sys, golden, profile, spec, progress, ExecOptions{})
}

// Golden is the fault-free checksum of the system's golden run
// (System.GoldenTrace), tracing it only if no earlier call on the sealed
// image did; it fails if the pristine system does not complete.
func Golden(sys *kernel.System) (uint32, error) {
	tr, err := sys.GoldenTrace()
	if err != nil {
		return 0, err
	}
	return tr.Checksum(), nil
}

// profileCycles estimates the benchmark length from the profile (the sum of
// attributed kernel cycles underestimates the total; scale it up).
func profileCycles(p *Profile) uint64 {
	if p == nil {
		return 0
	}
	return p.Total * 2
}
