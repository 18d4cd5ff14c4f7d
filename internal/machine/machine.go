package machine

import (
	"fmt"

	"kfi/internal/cc"
	"kfi/internal/cisc"
	"kfi/internal/crashnet"
	"kfi/internal/isa"
	"kfi/internal/mem"
	"kfi/internal/platform"
	"kfi/internal/risc"
)

// Hypercall numbers: syscall numbers at or above HyperBase are intercepted by
// the monitoring harness (they model the instrumented benchmark reporting to
// the NFTAPE control host, not guest functionality).
const (
	HyperBase = 0xF000
	// HyperDone ends the run: the benchmark completed; arg0 carries its
	// result checksum for fail-silence checking.
	HyperDone = 0xF000
	// HyperLog appends arg0's low byte to the run log.
	HyperLog = 0xF001
	// HyperFail ends the run: the instrumented benchmark detected incorrect
	// behavior itself (a fail-silence violation surfaced at the application).
	HyperFail = 0xF002
	// HyperDetect ends the run: a hardened guest's software fault detector
	// (kir.DetectHypercall) caught a consistency or signature mismatch; arg0
	// carries the detection-site identifier.
	HyperDetect = 0xF003
)

// InterruptEntryCost is the vectoring cost for deliverable interrupts. The
// crash-path latency stages (the paper's Figure 3) are per-platform and live
// in each platform's Descriptor.CrashStages.
const InterruptEntryCost = 120

// Config describes a bootable guest system. Symbol addresses come from the
// kernel build (internal/kernel).
type Config struct {
	Platform isa.Platform
	Image    *cc.Image
	MemSize  uint32

	TimerPeriod uint64 // cycles between timer interrupts
	Watchdog    uint64 // hardware-watchdog budget per run, in cycles

	// Kernel ABI addresses.
	SyscallStub uint32 // assembly glue: dispatch syscall, then iret/rfi
	TimerStub   uint32 // assembly glue: save volatiles, timer_tick, iret/rfi
	BootEntry   uint32 // kstart: enables interrupts, schedules, never returns
	BootSP      uint32 // boot/idle kernel stack top
	BootStackLo uint32 // boot kernel stack bounds (for the G4 wrapper)
	BootStackHi uint32
	CurrentPtr  uint32 // address of the `current` process pointer
	KStackOff   uint32 // offset of the kernel-stack-top field in a proc
	StackLoOff  uint32 // offset of the stack lower bound field
	StackHiOff  uint32 // offset of the stack upper bound field
	CtxOff      uint32 // offset of the context save area in a proc

	FSBase     uint32 // CISC: base of the FS per-CPU segment
	SPRG2Value uint32 // RISC: exception scratch area expected in SPRG2

	// NoStackWrapper disables the G4 kernel's exception-entry stack-range
	// check (for the ablation bench); it has no effect on CISC, which never
	// has the check.
	NoStackWrapper bool

	// CrashSender, when set, receives a crash packet for every known crash
	// (the remote crash-data collector path).
	CrashSender crashnet.Sender
}

// Outcome classifies how a run ended.
type Outcome int

// Run outcomes.
const (
	// OutCompleted: the benchmark ran to completion (checksum recorded).
	OutCompleted Outcome = iota + 1
	// OutCrashed: a kernel-mode exception ended the run.
	OutCrashed
	// OutHung: the watchdog expired or the system idled with interrupts
	// masked.
	OutHung
	// OutUserFault: a workload process died on a hardware exception.
	OutUserFault
	// OutFailReported: the instrumented benchmark reported bad data.
	OutFailReported
	// OutPaused: the run reached the requested PauseAt cycle and stopped so
	// the injector can act; call Run again to continue.
	OutPaused
	// OutDetected: a hardened guest's software fault detector caught the
	// error and halted cleanly (Checksum carries the detection site).
	// Appended after OutPaused so earlier encodings stay stable.
	OutDetected
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case OutCompleted:
		return "completed"
	case OutCrashed:
		return "crashed"
	case OutHung:
		return "hung"
	case OutUserFault:
		return "user-fault"
	case OutFailReported:
		return "fail-reported"
	case OutPaused:
		return "paused"
	case OutDetected:
		return "detected"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// CrashRecord captures a kernel crash.
type CrashRecord struct {
	Cause     isa.CrashCause
	PC        uint32
	FaultAddr uint32
	SP        uint32
	Cycles    uint64 // absolute machine cycles at crash
	// Known reports whether the embedded crash handler managed to dump
	// failure data; unknown crashes land in the paper's "Hang/Unknown
	// Crash" column.
	Known bool
	// FramePtrs holds the top stack words at crash time (the return-address
	// patterns of Figure 7).
	FramePtrs [8]uint32
}

// RunResult is the outcome of one benchmark run.
type RunResult struct {
	Outcome  Outcome
	Checksum uint32
	Crash    *CrashRecord
	Cycles   uint64
	Log      []byte
}

// Machine is one bootable guest system.
type Machine struct {
	cfg    Config
	Mem    *mem.Memory
	desc   platform.Descriptor
	core   Core
	engine platform.ExecEngine

	nextTimer uint64
	deadline  uint64
	crashSeq  uint32

	// PauseAt, when nonzero, makes Run return OutPaused once the cycle
	// counter reaches it (the injector's mid-run trigger). It is cleared on
	// firing and on reboot.
	PauseAt uint64

	// OnInstrBreak and OnDataBreak are the injector's hooks; they run with
	// the machine paused at the event and may mutate memory, registers, and
	// breakpoints before execution resumes.
	OnInstrBreak func(ev isa.Event)
	OnDataBreak  func(ev isa.Event)
}

// New builds a machine around a compiled image. The image sections are
// mapped and loaded; further regions (stacks, user space) are mapped by the
// kernel setup code before Seal.
func New(cfg Config) (*Machine, error) {
	if cfg.Image == nil {
		return nil, fmt.Errorf("machine: config needs an image")
	}
	desc, ok := platform.Find(cfg.Platform)
	if !ok {
		return nil, fmt.Errorf("machine: unknown platform %v", cfg.Platform)
	}
	if cfg.MemSize == 0 {
		cfg.MemSize = 8 << 20
	}
	if cfg.TimerPeriod == 0 {
		cfg.TimerPeriod = 50_000
	}
	if cfg.Watchdog == 0 {
		cfg.Watchdog = 40_000_000
	}
	m := mem.New(cfg.MemSize, isa.ByteOrder(cfg.Platform))
	if lo, hi, ok := desc.BusWindow(); ok {
		m.SetBusWindow(lo, hi)
	}
	im := cfg.Image
	m.Map(im.CodeBase, uint32(len(im.Code)), mem.Present)
	m.Map(im.DataBase, uint32(len(im.Data))+mem.PageSize, mem.Present|mem.Writable)
	if im.BSSSize > 0 {
		m.Map(im.BSSBase, im.BSSSize, mem.Present|mem.Writable)
	}
	if im.HeapSize > 0 {
		m.Map(im.HeapBase, im.HeapSize, mem.Present|mem.Writable)
	}
	m.WriteBytes(im.CodeBase, im.Code)
	m.WriteBytes(im.DataBase, im.Data)
	m.AddRegion(mem.Region{Name: "text", Kind: mem.KindCode, Start: im.CodeBase, End: im.CodeBase + uint32(len(im.Code))})
	if len(im.Data) > 0 {
		m.AddRegion(mem.Region{Name: "data", Kind: mem.KindData, Start: im.DataBase, End: im.DataBase + uint32(len(im.Data))})
	}
	if im.BSSSize > 0 {
		m.AddRegion(mem.Region{Name: "bss", Kind: mem.KindBSS, Start: im.BSSBase, End: im.BSSBase + im.BSSSize})
	}
	if im.HeapSize > 0 {
		m.AddRegion(mem.Region{Name: "heap", Kind: mem.KindHeap, Start: im.HeapBase, End: im.HeapBase + im.HeapSize})
	}

	mach := &Machine{cfg: cfg, Mem: m, desc: desc}
	mach.core = desc.NewCore(m)
	mach.engine = desc.NewEngine(mach.core)
	mach.resetCPUState()
	return mach, nil
}

// Core returns the platform-generic CPU view.
func (ma *Machine) Core() Core { return ma.core }

// Engine returns the active execution engine.
func (ma *Machine) Engine() platform.ExecEngine { return ma.engine }

// SetEngine selects the execution engine: the platform's translator for
// EngineTranslate or the zero kind, the reference interpreter
// (Core.RunUntil) for EngineInterp. The reference is reachable only through
// here, for the equivalence tests and benchmarks; both engines are
// observationally equivalent, so switching never changes run outcomes —
// only throughput. Reselecting the current engine keeps it, counters and
// decoded-code cache included.
func (ma *Machine) SetEngine(kind platform.EngineKind) error {
	_, onRef := ma.engine.(reference)
	switch kind {
	case 0, platform.EngineTranslate:
		if onRef {
			ma.engine = ma.desc.NewEngine(ma.core)
		}
	case platform.EngineInterp:
		ma.engine = reference{ma.core}
	default:
		return fmt.Errorf("machine: unknown engine %v", kind)
	}
	return nil
}

// reference is the reference-interpreter engine: the core's own RunUntil,
// which fetches and decodes every step and keeps no counters.
type reference struct{ core Core }

func (r reference) RunUntil(limit uint64) isa.Event { return r.core.RunUntil(limit) }
func (reference) Stats() platform.EngineStats       { return platform.EngineStats{} }
func (reference) ResetStats()                       {}

// Config returns the machine configuration.
func (ma *Machine) Config() Config { return ma.cfg }

// Descriptor returns the platform descriptor the machine was built from.
func (ma *Machine) Descriptor() platform.Descriptor { return ma.desc }

// CISCCPU returns the concrete CISC CPU (nil on other platforms).
func (ma *Machine) CISCCPU() *cisc.CPU { return cisc.CPUOf(ma.core) }

// RISCCPU returns the concrete RISC CPU (nil on other platforms).
func (ma *Machine) RISCCPU() *risc.CPU { return risc.CPUOf(ma.core) }

// SystemRegisters returns the platform's injectable system-register file.
func (ma *Machine) SystemRegisters() []SysReg { return ma.core.SystemRegisters() }

// Seal snapshots memory as the pristine boot image; Reboot restores it.
func (ma *Machine) Seal() { ma.Mem.Seal() }

func (ma *Machine) resetCPUState() {
	ma.core.Reset()
	ma.core.SetPC(ma.cfg.BootEntry)
	ma.core.SetSP(ma.cfg.BootSP)
	ma.core.InstallBootState(platform.BootState{
		FSBase: ma.cfg.FSBase,
		SPRG2:  ma.cfg.SPRG2Value,
	})
	ma.core.SetStackBounds(ma.cfg.BootStackLo, ma.cfg.BootStackHi)
	ma.core.Clock().Reset()
	ma.nextTimer = ma.cfg.TimerPeriod
	ma.deadline = ma.cfg.Watchdog
	ma.PauseAt = 0
}

// Reboot restores the sealed memory image and architectural boot state —
// the watchdog-card auto-reboot between injections.
func (ma *Machine) Reboot() {
	ma.Mem.Reboot()
	ma.resetCPUState()
}

// currentKernelSP reads the current process's kernel stack top from the
// guest's `current` pointer.
func (ma *Machine) currentKernelSP() uint32 {
	cur := ma.Mem.RawRead(ma.cfg.CurrentPtr, 4)
	return ma.Mem.RawRead(cur+ma.cfg.KStackOff, 4)
}

// interrupt delivers an interrupt through the platform trap glue. It returns
// a crash result if the delivery machinery itself faults.
func (ma *Machine) interrupt(stub uint32) *RunResult {
	ma.core.Clock().Advance(InterruptEntryCost)
	// Let the platform vet the architectural state its exception entry path
	// depends on (scratch pointers, translation registers); a corrupted
	// delivery path crashes or hijacks execution before the handler runs
	// (paper §5.2).
	if d := ma.core.VetDelivery(); d.Crash {
		res := ma.crashResult(d.Event)
		return &res
	} else if d.Hijack {
		ma.core.SetPC(d.HijackPC)
		return nil
	}
	ev := ma.core.DeliverInterrupt(stub, ma.currentKernelSP())
	if ev.Kind == isa.EvException {
		res := ma.crashResult(ev)
		return &res
	}
	if _, _, _, ok := ma.core.PendingDataBreak(); ok && ma.OnDataBreak != nil {
		ma.OnDataBreak(isa.Event{Kind: isa.EvDataBreak, Access: isa.AccessWrite})
	}
	return nil
}

// ctxsw performs the context-switch primitive: save into prev, load from
// next, and refresh the stack bounds used by the G4 wrapper.
func (ma *Machine) ctxsw(prev, next uint32) {
	off := ma.cfg.CtxOff
	ma.core.SaveContext(prev + off)
	ma.core.RestoreContext(next + off)
	lo := ma.Mem.RawRead(next+ma.cfg.StackLoOff, 4)
	hi := ma.Mem.RawRead(next+ma.cfg.StackHiOff, 4)
	ma.core.SetStackBounds(lo, hi)
}

// crashResult classifies a kernel-mode exception, applies the Figure 3
// latency stages, captures the dump, and ships the crash packet.
func (ma *Machine) crashResult(ev isa.Event) RunResult {
	cause := ev.Cause
	// The G4 kernel's exception-entry wrapper: an out-of-range kernel stack
	// pointer is reported as an explicit Stack Overflow. The P4 kernel has
	// no such wrapper, so the same condition surfaces as whatever exception
	// the propagating corruption eventually raises (paper §5.1).
	if !ma.cfg.NoStackWrapper && !ma.core.StackPointerInBounds() {
		cause = isa.CauseStackOverflow
	}
	clk := ma.core.Clock()
	hw, sw := ma.desc.CrashStages()
	clk.Advance(hw + sw)
	rec := &CrashRecord{
		Cause:     cause,
		PC:        ma.core.PC(),
		FaultAddr: ev.FaultAddr,
		SP:        ma.core.SP(),
		Cycles:    clk.Cycles(),
		Known:     ma.core.CrashDumpPossible(),
	}
	sp := rec.SP
	for i := range rec.FramePtrs {
		rec.FramePtrs[i] = ma.Mem.RawRead(sp+uint32(i)*4, 4)
	}
	if rec.Known && ma.cfg.CrashSender != nil {
		ma.crashSeq++
		pkt := crashnet.Packet{
			Seq:       ma.crashSeq,
			Platform:  ma.cfg.Platform,
			Cause:     rec.Cause,
			PC:        rec.PC,
			FaultAddr: rec.FaultAddr,
			SP:        rec.SP,
			Cycles:    clk.Since(),
			FramePtrs: rec.FramePtrs,
		}
		// The send path bypasses the guest filesystem entirely; a failure
		// to deliver degrades the crash to unknown, exactly like a lost
		// dump on the real testbed.
		if err := ma.cfg.CrashSender.Send(pkt); err != nil {
			rec.Known = false
		}
	}
	return RunResult{Outcome: OutCrashed, Crash: rec, Cycles: clk.Cycles()}
}

// Run executes the guest from its current state until the benchmark
// completes, the kernel crashes, a workload process faults, or the watchdog
// expires.
func (ma *Machine) Run() RunResult {
	clk := ma.core.Clock()
	var logBytes []byte
	for {
		if clk.Cycles() >= ma.deadline {
			return RunResult{Outcome: OutHung, Cycles: clk.Cycles(), Log: logBytes}
		}
		if ma.PauseAt > 0 && clk.Cycles() >= ma.PauseAt {
			ma.PauseAt = 0
			return RunResult{Outcome: OutPaused, Cycles: clk.Cycles(), Log: logBytes}
		}
		if clk.Cycles() >= ma.nextTimer {
			if ma.core.InterruptsEnabled() {
				ma.nextTimer = clk.Cycles() + ma.cfg.TimerPeriod
				if res := ma.interrupt(ma.cfg.TimerStub); res != nil {
					res.Log = logBytes
					return *res
				}
			} else {
				ma.nextTimer = clk.Cycles() + 64
			}
		}
		// Run to the nearest deadline/pause/timer horizon in one batched
		// call: the core checks only its clock per instruction, and the
		// horizon conditions above are re-evaluated whenever it returns.
		horizon := ma.deadline
		if ma.PauseAt > 0 && ma.PauseAt < horizon {
			horizon = ma.PauseAt
		}
		if ma.nextTimer < horizon {
			horizon = ma.nextTimer
		}
		ev := ma.engine.RunUntil(horizon)
		switch ev.Kind {
		case isa.EvNone:
		case isa.EvSyscall:
			if ev.SysNo >= HyperBase {
				a, _, _ := ma.core.SyscallArgs()
				switch ev.SysNo {
				case HyperDone:
					return RunResult{Outcome: OutCompleted, Checksum: a, Cycles: clk.Cycles(), Log: logBytes}
				case HyperFail:
					return RunResult{Outcome: OutFailReported, Checksum: a, Cycles: clk.Cycles(), Log: logBytes}
				case HyperDetect:
					return RunResult{Outcome: OutDetected, Checksum: a, Cycles: clk.Cycles(), Log: logBytes}
				case HyperLog:
					logBytes = append(logBytes, byte(a))
					ma.core.SetSyscallResult(0)
				default:
					ma.core.SetSyscallResult(^uint32(0))
				}
				continue
			}
			if res := ma.interrupt(ma.cfg.SyscallStub); res != nil {
				res.Log = logBytes
				return *res
			}
		case isa.EvHalt:
			if !ma.core.InterruptsEnabled() {
				// Idle with interrupts masked: the system is dead; the
				// hardware watchdog will reboot it.
				return RunResult{Outcome: OutHung, Cycles: clk.Cycles(), Log: logBytes}
			}
			if ma.nextTimer > clk.Cycles() {
				clk.Advance(ma.nextTimer - clk.Cycles())
			}
		case isa.EvCtxSw:
			ma.ctxsw(ev.Prev, ev.Next)
		case isa.EvInstrBreak:
			if ma.OnInstrBreak != nil {
				ma.OnInstrBreak(ev)
			} else {
				ma.core.Debug().Clear(ev.Slot)
			}
		case isa.EvDataBreak:
			if ma.OnDataBreak != nil {
				ma.OnDataBreak(ev)
			} else {
				ma.core.Debug().Clear(ev.Slot)
			}
		case isa.EvException:
			if ma.core.Mode() == isa.UserMode {
				return RunResult{Outcome: OutUserFault, Cycles: clk.Cycles(), Log: logBytes}
			}
			res := ma.crashResult(ev)
			res.Log = logBytes
			return res
		}
	}
}

// CallGuest runs a guest function to completion with interrupts and
// breakpoints inactive — the path used for boot-time initialization and
// kernel profiling. The function must return normally; any event other than
// plain execution is an error.
func (ma *Machine) CallGuest(fn string, args ...uint32) (uint32, error) {
	entry := ma.cfg.Image.Sym(fn)
	ma.core.BeginCall(entry, args)
	clk := ma.core.Clock()
	for steps := 0; steps < 100_000_000; steps++ {
		if ret, done := ma.core.CallDone(len(args)); done {
			return ret, nil
		}
		// Every instruction costs at least one cycle, so RunUntil(clock+1)
		// executes exactly one instruction on every engine.
		if ev := ma.engine.RunUntil(clk.Cycles() + 1); ev.Kind != isa.EvNone {
			return 0, fmt.Errorf("machine: %s: event %+v at pc=0x%x", fn, ev, ma.core.PC())
		}
	}
	return 0, fmt.Errorf("machine: %s did not return", fn)
}
