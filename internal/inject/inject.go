// Package inject implements the error model and the breakpoint-driven
// injector from the paper's §3: single-bit errors in kernel code, kernel
// data, kernel stacks, and CPU system registers, with activation monitored
// through the processor debug registers exactly as NFTAPE's driver-based
// injector does —
//
//   - code: an instruction breakpoint fires before the target instruction
//     executes; the bit is flipped at that moment (error persists for the
//     rest of the run);
//   - stack/data: the bit is flipped up front and a data breakpoint watches
//     the word; a read access activates the error, a write access overwrites
//     it so the injector re-inserts the flip (and counts it activated);
//   - system registers: the bit is flipped in the register at run start;
//     activation cannot be observed (paper footnote 1).
package inject

import (
	"fmt"

	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/machine"
)

// Campaign selects the injection target class.
type Campaign int

// Campaigns, in the paper's table order.
const (
	CampStack Campaign = iota + 1
	CampSysReg
	CampData
	CampCode
)

// String returns the campaign name used in tables.
func (c Campaign) String() string {
	switch c {
	case CampStack:
		return "Stack"
	case CampSysReg:
		return "System Registers"
	case CampData:
		return "Data"
	case CampCode:
		return "Code"
	default:
		return fmt.Sprintf("Campaign(%d)", int(c))
	}
}

// Target is one pre-generated injection (STEP 1 of the paper's process).
type Target struct {
	Campaign Campaign
	// Addr is the target memory address: the instruction start address for
	// code injections, the byte address for stack/data injections.
	Addr uint32
	// ByteOff selects the byte within the instruction for code injections
	// (variable-length instructions have several).
	ByteOff uint8
	// Bit is the bit to flip: 0-7 within the byte for memory targets, 0-31
	// within the register for system-register targets.
	Bit uint
	// Reg indexes Machine.SystemRegisters() for CampSysReg.
	Reg int
	// RegName is recorded for analysis.
	RegName string
	// Reg indexes into the register file only for CampSysReg targets.
	// ProcSlot records which process stack is targeted (CampStack).
	ProcSlot int
	// StackPos picks the position within the live stack extent (CampStack);
	// the concrete address is resolved at injection time.
	StackPos uint32
	// Delay is the injection trigger time in cycles after boot (CampStack
	// and CampSysReg inject mid-run; 0 injects before the benchmark).
	Delay uint64
	// Func records the targeted kernel function (CampCode).
	Func string
	// Burst widens the error model beyond the paper: 0 or 1 is the paper's
	// single-bit flip; k > 1 flips k adjacent bits starting at Bit (a
	// multi-bit upset), wrapping within the byte for memory targets and
	// within the register width for system-register targets.
	Burst uint8
}

// burstWidth normalizes Burst to an iteration count.
func (t Target) burstWidth() uint {
	if t.Burst <= 1 {
		return 1
	}
	return uint(t.Burst)
}

// flipMemory applies the target's (possibly multi-bit) error to the byte at
// addr.
func flipMemory(m *machine.Machine, addr uint32, t Target) {
	for i := uint(0); i < t.burstWidth(); i++ {
		m.Mem.FlipBit(addr, (t.Bit+i)%8)
	}
}

// Outcome is the classification of one injection run (the paper's Table 2).
type Outcome int

// Outcomes.
const (
	// ONotActivated: the corrupted state was never executed/used.
	ONotActivated Outcome = iota + 1
	// ONotManifested: activated, but no visible abnormal impact.
	ONotManifested
	// OFailSilence: the OS or the instrumented benchmark let incorrect
	// data/responses out, or erroneously detected an error.
	OFailSilence
	// OCrash: the OS stopped with a known crash cause (dump collected).
	OCrash
	// OHangUnknown: watchdog-detected hang or a crash whose dump could not
	// be collected (the paper's combined "Hang/Unknown Crash" column).
	OHangUnknown
	// OQuarantined: the harness, not the guest, failed — the injection run
	// panicked or exceeded its wall-clock watchdog on every supervised
	// attempt, so its outcome is unknowable and the experiment is set aside
	// with diagnostics (Result.Diag) instead of aborting the campaign. It is
	// a property of the measurement apparatus and is excluded from the
	// paper's failure-distribution columns.
	OQuarantined
	// ODetected: a hardened guest's software fault detector (the kir
	// duplication/signature checks) caught the error and halted cleanly
	// before it could propagate — the coverage the hardened-study campaigns
	// measure. Appended after OQuarantined so journal and protocol
	// encodings of the earlier outcomes stay stable.
	ODetected
)

// String returns the outcome label.
func (o Outcome) String() string {
	switch o {
	case ONotActivated:
		return "not-activated"
	case ONotManifested:
		return "not-manifested"
	case OFailSilence:
		return "fail-silence-violation"
	case OCrash:
		return "crash"
	case OHangUnknown:
		return "hang/unknown"
	case OQuarantined:
		return "quarantined"
	case ODetected:
		return "detected"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Result records one injection run (STEP 3 of the paper's process).
type Result struct {
	Target    Target
	Activated bool
	// ActivationKnown is false for system-register injections, where kernel
	// register usage cannot be monitored.
	ActivationKnown bool
	Outcome         Outcome
	Cause           isa.CrashCause
	// Latency is the cycles-to-crash: activation (or injection, for system
	// registers) to the crash, including the Figure 3 exception stages.
	Latency uint64
	// RunCycles is the total run length.
	RunCycles uint64
	// CrashPC/CrashFunc locate the crash for diagnosis.
	CrashPC   uint32
	CrashFunc string
	Checksum  uint32
	// Diag carries harness-side diagnostics for OQuarantined results: the
	// captured panic value (with the failing frame) or the watchdog timeout,
	// plus the attempt count. Empty for every guest-classified outcome, so
	// existing journals and tables are unchanged.
	Diag string `json:"Diag,omitempty"`

	// PredClass/PredInert carry the static pre-pass verdict
	// (internal/staticsense) when a campaign runs with sensing enabled:
	// the flip's classification-lattice class and whether the analyzer
	// predicted it inert. Both stay zero when sensing is off, so existing
	// journals are unchanged.
	PredClass string `json:"PredClass,omitempty"`
	PredInert bool   `json:"PredInert,omitempty"`
	// PredSkipped marks results that journals from earlier builds
	// synthesized from the golden run instead of executing, on the
	// strength of an inert prediction. No campaign sets it now; it is kept
	// so those files still decode, and stats.Confuse keeps such rows out
	// of its soundness count.
	PredSkipped bool `json:"PredSkipped,omitempty"`
	// PredCached marks results an incremental campaign may satisfy from the
	// per-section outcome cache (campaign.ExecOptions.SectionCache). It is
	// stamped on cold runs too — the marker records cache *membership*, not
	// a hit — so a warm re-run's table and journal stay byte-identical to
	// the cold run that populated the cache.
	PredCached bool `json:"PredCached,omitempty"`
	// DetectSite identifies the hardening check that fired for ODetected
	// results (the site id compiled into the failed consistency/signature
	// check). Zero otherwise, so unhardened journals are unchanged.
	DetectSite uint32 `json:"DetectSite,omitempty"`
}

// RunOne reboots the system, installs the target, runs the benchmark, and
// classifies the outcome against the golden checksum.
func RunOne(sys *kernel.System, t Target, golden uint32) Result {
	m := sys.Machine
	m.Reboot()

	// Mid-run triggers: run uninstrumented until the injection time. If the
	// benchmark finishes first, the pre-generated error was never injected
	// (the paper: "some of the pre-generated errors are never injected
	// because a corresponding breakpoint is never reached").
	if t.Delay > 0 {
		m.PauseAt = t.Delay
		pre := m.Run()
		if pre.Outcome != machine.OutPaused {
			return Result{Target: t, ActivationKnown: t.Campaign != CampSysReg,
				Outcome: ONotActivated, RunCycles: pre.Cycles, Checksum: pre.Checksum}
		}
	}

	return RunFrom(sys, t, golden)
}

// RunFrom installs the target into the machine's current state, runs to an
// outcome, and classifies it against the golden checksum. The machine must
// already sit at the injection point: freshly rebooted for immediate targets,
// or paused at the target's Delay cycle — either by RunOne's uninstrumented
// advance or by a snapshot restore of that same golden prefix
// (fork-from-golden injection).
func RunFrom(sys *kernel.System, t Target, golden uint32) Result {
	m := sys.Machine

	res := Result{Target: t, ActivationKnown: t.Campaign != CampSysReg}
	var activationCycle uint64
	clock := m.Core().Clock()
	activate := func() {
		if !res.Activated {
			res.Activated = true
			activationCycle = clock.Cycles()
			clock.Mark()
		}
	}

	const slot = 0
	armMemory := func(addr uint32) {
		watch := addr &^ 3 // the containing data word
		m.Core().Debug().Set(slot, isa.Breakpoint{Kind: isa.BreakData, Addr: watch, Len: 4})
		m.OnDataBreak = func(ev isa.Event) {
			if ev.Access == isa.AccessWrite {
				// The write overwrote the error; re-inject it.
				flipMemory(m, addr, t)
			}
			m.Core().Debug().Clear(slot)
			activate()
		}
	}
	switch t.Campaign {
	case CampCode:
		m.Core().Debug().Set(slot, isa.Breakpoint{Kind: isa.BreakInstruction, Addr: t.Addr})
		m.OnInstrBreak = func(ev isa.Event) {
			// The breakpoint reports before execution: flip the bit in the
			// instruction image, then let the corrupted instruction run.
			flipMemory(m, t.Addr+uint32(t.ByteOff), t)
			m.Core().Debug().Clear(slot)
			activate()
		}
		defer func() { m.OnInstrBreak = nil }()
	case CampData:
		flipMemory(m, t.Addr, t)
		armMemory(t.Addr)
		defer func() { m.OnDataBreak = nil }()
	case CampStack:
		// Resolve the target against the live stack extent of the chosen
		// process at injection time.
		addr := resolveStackAddr(sys, t)
		res.Target.Addr = addr
		flipMemory(m, addr, t)
		armMemory(addr)
		defer func() { m.OnDataBreak = nil }()
	case CampSysReg:
		regs := m.SystemRegisters()
		r := regs[t.Reg]
		var mask uint32
		for i := uint(0); i < t.burstWidth(); i++ {
			mask |= 1 << ((t.Bit + i) % r.Bits)
		}
		r.Set(r.Get() ^ mask)
		activationCycle = clock.Cycles()
		clock.Mark()
	}

	run := m.Run()
	res.RunCycles = run.Cycles
	res.Checksum = run.Checksum

	switch run.Outcome {
	case machine.OutCompleted:
		switch {
		case t.Campaign != CampSysReg && !res.Activated:
			res.Outcome = ONotActivated
		case run.Checksum == golden:
			res.Outcome = ONotManifested
		default:
			res.Outcome = OFailSilence
		}
	case machine.OutFailReported, machine.OutUserFault:
		// The application detected or exhibited erroneous behavior while
		// the OS kept running: a fail-silence violation.
		res.Outcome = OFailSilence
		markActivatedByManifestation(&res, t)
	case machine.OutHung:
		res.Outcome = OHangUnknown
		markActivatedByManifestation(&res, t)
	case machine.OutDetected:
		res.Outcome = ODetected
		res.DetectSite = run.Checksum
		res.Checksum = 0 // the hypercall argument is a site id, not a checksum
		markActivatedByManifestation(&res, t)
		res.Latency = run.Cycles - activationCycle
	case machine.OutCrashed:
		res.Cause = run.Crash.Cause
		res.CrashPC = run.Crash.PC
		if fr, ok := sys.KernelImage.FuncAt(run.Crash.PC); ok {
			res.CrashFunc = fr.Name
		}
		markActivatedByManifestation(&res, t)
		if run.Crash.Known {
			res.Outcome = OCrash
		} else {
			res.Outcome = OHangUnknown
		}
		res.Latency = run.Crash.Cycles - activationCycle
	}
	return res
}

// resolveStackAddr maps a target's StackPos onto the chosen process's live
// kernel stack extent: [SP, stack top) when the process is executing in the
// kernel, or the co-located task_struct area when its kernel stack is empty
// (the process is in user mode).
func resolveStackAddr(sys *kernel.System, t Target) uint32 {
	region, ok := sys.Machine.Mem.RegionByName(fmt.Sprintf("kstack%d", t.ProcSlot))
	if !ok {
		panic(fmt.Sprintf("inject: no stack region for slot %d", t.ProcSlot))
	}
	lo, hi := region.Start, region.End
	taskSize := sys.KernelImage.Layout.StructSize(sys.Src.Proc)
	sp := sys.LiveKernelSP(t.ProcSlot)
	switch {
	case sp > lo && sp < hi:
		lo = sp
	default:
		// Kernel stack empty: only the task_struct is live.
		hi = lo + taskSize
	}
	return lo + t.StackPos%(hi-lo)
}

// markActivatedByManifestation upgrades a manifested run to activated even
// when the breakpoint did not report (e.g. an instruction-fetch consumed the
// corrupted stack word through a path the data breakpoint cannot see).
func markActivatedByManifestation(res *Result, t Target) {
	if t.Campaign != CampSysReg {
		res.Activated = true
	}
}
