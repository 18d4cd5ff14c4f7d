package kernel

import (
	"fmt"

	"kfi/internal/cc"
	"kfi/internal/crashnet"
	"kfi/internal/isa"
	"kfi/internal/kir"
	"kfi/internal/machine"
	"kfi/internal/mem"
	"kfi/internal/platform"
)

// ProcSpec describes one process created at boot (process slot 0 is always
// the kernel idle process).
type ProcSpec struct {
	Name string
	// Entry is the symbol of the process entry point.
	Entry string
	// InUserImage selects which image Entry is resolved against.
	InUserImage bool
	// User runs the process in user mode (workload programs); kernel
	// daemons run privileged on their kernel stacks.
	User bool
}

// Options tune the built system.
type Options struct {
	TimerPeriod uint64
	Watchdog    uint64
	MemSize     uint32
	CrashSender crashnet.Sender
	// Prog selects kernel build variants (ablation studies).
	Prog ProgOptions
	// NoStackWrapper disables the G4 exception-entry stack check, turning
	// the G4 kernel's overflow detection off (ablation).
	NoStackWrapper bool
	// Harden applies the software fault-detection transforms (kir.Harden)
	// to the kernel image. The workload image passed to BuildSystem is
	// compiled separately by the caller and stays unhardened: the study
	// measures detection of kernel errors, mirroring the paper's
	// kernel-only injection targets.
	Harden kir.HardenOpts
}

// System is a bootable, sealed guest system ready for injection runs.
type System struct {
	Platform    isa.Platform
	Machine     *machine.Machine
	KernelImage *cc.Image
	UserImage   *cc.Image
	Src         *Source
	// Prog is the KIR program KernelImage was compiled from, with any
	// hardening passes already applied — the program whose accesses the
	// static analyzer must model, since hardening adds loads and stores.
	Prog       *kir.Program
	Procs      []ProcSpec // index 0 is the idle process
	KStackSize uint32
	Glue       Glue

	// golden memoizes the traced golden run (see GoldenTrace).
	golden goldenMemo
}

// KernelBases are the kernel image load addresses.
var KernelBases = cc.Bases{Code: KCodeBase, Data: KDataBase, BSS: KBSSBase, Heap: KHeapBase}

// UserBases are the workload image load addresses.
var UserBases = cc.Bases{Code: UCodeBase, Data: UDataBase, BSS: UBSSBase}

// KStackTop returns the top of process slot i's kernel stack.
func KStackTop(i int) uint32 { return KStackArea + uint32(i+1)*KStackSlot }

// UStackTop returns the top of process slot i's user stack.
func UStackTop(i int) uint32 { return UStackArea + uint32(i+1)*UStackSlot }

// KStackSize returns the per-platform kernel stack size (4 KiB P4 / 8 KiB
// G4), as declared by the platform descriptor.
func KStackSize(p isa.Platform) uint32 {
	return platform.MustGet(p).KernelStackSize()
}

// BuildSystem compiles the kernel for the platform, appends the trap glue,
// boots it on a fresh machine, installs the workload processes, and seals
// memory so every injection run starts from an identical image.
//
// userImage may be nil when procs contains only kernel daemons.
func BuildSystem(platform isa.Platform, userImage *cc.Image, procs []ProcSpec, opts Options) (*System, error) {
	src := ProgramWith(opts.Prog)
	hprog := kir.Harden(src.Prog, opts.Harden)
	kimg, err := cc.Compile(hprog, platform, KernelBases)
	if err != nil {
		return nil, fmt.Errorf("kernel: compile: %w", err)
	}
	if opts.Harden.Enabled() && opts.Watchdog == 0 {
		// A hardened kernel retires several times the instructions per run;
		// give the hardware watchdog matching headroom so the slowdown is
		// not misclassified as a hang. Explicit Watchdog settings win.
		opts.Watchdog = 160_000_000
	}
	glue, err := appendGlue(kimg)
	if err != nil {
		return nil, fmt.Errorf("kernel: glue: %w", err)
	}

	layout := kimg.Layout
	proc := src.Proc
	fieldOff := func(name string) uint32 {
		i := proc.FieldIndex(name)
		if i < 0 {
			panic(fmt.Sprintf("kernel: task_struct has no field %q", name))
		}
		return layout.FieldOffset(proc, i)
	}
	ksize := KStackSize(platform)

	if opts.MemSize == 0 {
		opts.MemSize = MemSize
	}
	m, err := machine.New(machine.Config{
		Platform:       platform,
		Image:          kimg,
		MemSize:        opts.MemSize,
		TimerPeriod:    opts.TimerPeriod,
		Watchdog:       opts.Watchdog,
		SyscallStub:    glue.SyscallStub,
		TimerStub:      glue.TimerStub,
		BootEntry:      kimg.Sym("kstart"),
		BootSP:         KStackTop(0),
		BootStackLo:    KStackTop(0) - ksize,
		BootStackHi:    KStackTop(0),
		CurrentPtr:     kimg.Sym("current"),
		KStackOff:      fieldOff("kstack"),
		StackLoOff:     fieldOff("stack_lo"),
		StackHiOff:     fieldOff("stack_hi"),
		CtxOff:         fieldOff("ctx"),
		FSBase:         PercpuBase,
		SPRG2Value:     PercpuBase + 0x800,
		CrashSender:    opts.CrashSender,
		NoStackWrapper: opts.NoStackWrapper,
	})
	if err != nil {
		return nil, err
	}

	// Per-CPU area (FS segment target / SPRG2 scratch).
	m.Mem.Map(PercpuBase, 0x2000, mem.Present|mem.Writable)
	m.Mem.AddRegion(mem.Region{Name: "percpu", Kind: mem.KindData, Start: PercpuBase, End: PercpuBase + 0x2000})

	// Kernel stacks: the top ksize bytes of each slot, with an unmapped
	// guard gap below (so overflows fault rather than scribble).
	for i := 0; i < NPROC; i++ {
		top := KStackTop(i)
		m.Mem.Map(top-ksize, ksize, mem.Present|mem.Writable)
		m.Mem.AddRegion(mem.Region{
			Name: fmt.Sprintf("kstack%d", i), Kind: mem.KindStack,
			Start: top - ksize, End: top,
		})
	}

	// Workload image and user stacks.
	allProcs := append([]ProcSpec{{Name: "idle", Entry: "kstart"}}, procs...)
	if len(allProcs) > NPROC {
		return nil, fmt.Errorf("kernel: %d processes exceed NPROC=%d", len(allProcs), NPROC)
	}
	if userImage != nil {
		m.Mem.Map(userImage.CodeBase, uint32(len(userImage.Code)), mem.Present|mem.UserOK)
		m.Mem.Map(userImage.DataBase, uint32(len(userImage.Data))+mem.PageSize, mem.Present|mem.Writable|mem.UserOK)
		if userImage.BSSSize > 0 {
			m.Mem.Map(userImage.BSSBase, userImage.BSSSize, mem.Present|mem.Writable|mem.UserOK)
		}
		m.Mem.WriteBytes(userImage.CodeBase, userImage.Code)
		m.Mem.WriteBytes(userImage.DataBase, userImage.Data)
		m.Mem.AddRegion(mem.Region{Name: "utext", Kind: mem.KindUser, Start: userImage.CodeBase, End: userImage.CodeBase + uint32(len(userImage.Code))})
		udataEnd := userImage.DataBase + uint32(len(userImage.Data)) + mem.PageSize
		m.Mem.AddRegion(mem.Region{Name: "udata", Kind: mem.KindUser, Start: userImage.DataBase, End: udataEnd})
		for i := range allProcs {
			if !allProcs[i].User {
				continue
			}
			top := UStackTop(i)
			m.Mem.Map(top-UStackSize, UStackSize, mem.Present|mem.Writable|mem.UserOK)
			m.Mem.AddRegion(mem.Region{
				Name: fmt.Sprintf("ustack%d", i), Kind: mem.KindUser,
				Start: top - UStackSize, End: top,
			})
		}
	}

	// Linear-map the remaining RAM: a 2.4-era kernel maps all of physical
	// memory, so modest pointer corruptions land in mapped (free) RAM and
	// corrupt silently rather than faulting; only wild pointers reach
	// unmapped space. This also removes stack guard gaps — on the P4 an
	// overflowing stack scribbles into adjacent memory undetected, exactly
	// as the paper describes.
	m.Mem.MapFill(0, opts.MemSize, mem.Present|mem.Writable)

	// Run the kernel's one-shot initialization.
	if _, err := m.CallGuest("kmain"); err != nil {
		return nil, fmt.Errorf("kernel: kmain: %w", err)
	}

	// Create the boot-time process table.
	sys := &System{
		Platform:    platform,
		Machine:     m,
		KernelImage: kimg,
		UserImage:   userImage,
		Src:         src,
		Prog:        hprog,
		Procs:       allProcs,
		KStackSize:  ksize,
		Glue:        glue,
	}
	for i, ps := range allProcs {
		pa := sys.ProcAddr(i)
		sys.writeField(pa, "pid", uint32(i+1))
		sys.writeField(pa, "state", TaskRunning)
		sys.writeField(pa, "prio", uint32(i))
		sys.writeField(pa, "ticks", Timeslice)
		flags := uint32(0)
		if ps.User {
			flags = PFUser
		}
		sys.writeField(pa, "flags", flags)
		sys.writeField(pa, "kstack", KStackTop(i))
		// The usable stack floor sits just above the co-located task_struct;
		// a stack pointer below it is an overflow (the G4 wrapper check).
		sys.writeField(pa, "stack_lo", pa+layout.StructSize(proc))
		sys.writeField(pa, "stack_hi", KStackTop(i))
		if i == 0 {
			continue // the idle context is captured at the first switch
		}
		entryImg := kimg
		if ps.InUserImage {
			if userImage == nil {
				return nil, fmt.Errorf("kernel: proc %q needs a user image", ps.Name)
			}
			entryImg = userImage
		}
		sp := KStackTop(i)
		if ps.User {
			sp = UStackTop(i)
		}
		m.Core().InitContext(pa+fieldOff("ctx"), entryImg.Sym(ps.Entry), sp, ps.User)
	}
	// Every stack slot carries a task area (pid 0 marks it unused), so the
	// scheduler and timer can scan all NPROC descriptors unconditionally.
	for i := 0; i < NPROC; i++ {
		m.Mem.RawWrite(kimg.Sym("task_ptrs")+uint32(4*i), 4, sys.ProcAddr(i))
	}
	m.Mem.RawWrite(kimg.Sym("current"), 4, sys.ProcAddr(0))
	m.Mem.RawWrite(kimg.Sym("current_idx"), 4, 0)

	m.Seal()
	return sys, nil
}

// ProcAddr returns the guest address of process slot i's task_struct, which
// lives at the bottom of the process's kernel stack region as on Linux 2.4.
func (s *System) ProcAddr(i int) uint32 {
	return KStackTop(i) - s.KStackSize
}

// FieldOffset returns the platform offset of a task_struct field.
func (s *System) FieldOffset(name string) uint32 {
	return s.KernelImage.Layout.FieldOffset(s.Src.Proc, s.Src.Proc.FieldIndex(name))
}

func (s *System) writeField(procAddr uint32, field string, v uint32) {
	i := s.Src.Proc.FieldIndex(field)
	off := s.KernelImage.Layout.FieldOffset(s.Src.Proc, i)
	w := uint32(s.Src.Proc.Fields[i].Width)
	s.Machine.Mem.RawWrite(procAddr+off, w, v)
}

// ReadProcField reads a task_struct field of process slot i.
func (s *System) ReadProcField(i int, field string) uint32 {
	fi := s.Src.Proc.FieldIndex(field)
	off := s.KernelImage.Layout.FieldOffset(s.Src.Proc, fi)
	w := uint32(s.Src.Proc.Fields[fi].Width)
	return s.Machine.Mem.RawRead(s.ProcAddr(i)+off, w)
}

// LiveKernelSP resolves process slot i's kernel stack pointer right now: the
// CPU's SP when the process is current and in kernel mode, otherwise the
// saved context's SP. Returns 0 when the process is executing in user mode
// (its kernel stack is empty).
func (s *System) LiveKernelSP(i int) uint32 {
	m := s.Machine
	curIdx := int(m.Mem.RawRead(s.KernelImage.Sym("current_idx"), 4))
	core := m.Core()
	if curIdx == i {
		if core.Mode() != isa.KernelMode {
			return 0
		}
		return core.SP()
	}
	ctx := s.ProcAddr(i) + s.FieldOffset("ctx")
	if core.CtxModeUser(ctx) {
		return 0
	}
	return m.Mem.RawRead(ctx+core.CtxSPOffset(), 4)
}

// Run reboots the machine to the sealed image and runs the workload once.
func (s *System) Run() machine.RunResult {
	s.Machine.Reboot()
	return s.Machine.Run()
}

// HostReadGlobals lists kernel globals the host runtime reads directly
// (outside compiled kernel code): the machine's current-task resolution and
// the injectors' stack-address resolution. A static data-liveness analysis
// must treat every byte of these as live even when no compiled instruction
// reads them.
func HostReadGlobals() []string {
	return []string{"current", "current_idx", "task_ptrs"}
}

// HostReadTaskFields lists task_struct fields the host runtime reads
// directly: the machine's stack-overflow checks and context switching, and
// LiveKernelSP's saved-context probe. Like HostReadGlobals, these are live
// regardless of what compiled code does.
func HostReadTaskFields() []string {
	return []string{"kstack", "stack_lo", "stack_hi", "ctx"}
}
