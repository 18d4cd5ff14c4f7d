// Package platform makes the ISA boundary first-class: a Descriptor
// interface plus a registry that owns everything the rest of the laboratory
// used to key off the isa.Platform enum — core construction (decoder and
// debug unit), boot/exception-delivery semantics, crash staging and
// kernel-style crash messages, instruction boundaries for code-campaign
// target generation, snapshot CPU-state codecs, kernel stack geometry, and
// report labels.
//
// internal/cisc and internal/risc each register one Descriptor from their
// package init; consuming layers (machine, campaign, snapshot, kernel, the
// CLIs) resolve behavior through Find/MustGet/ByName instead of switching on
// the enum. Adding an ISA means registering one descriptor (plus its
// isa.PlatformInfo data) from one package — no consuming layer changes.
//
// The package is a leaf: it imports only isa and mem, so every layer can
// depend on it. Capabilities whose types live in higher layers (the cc
// compiler backend, the kernel trap glue, the staticsense classifier) are
// registered through per-layer registries in those packages for the same
// one-package-per-ISA property; see DESIGN.md §14.
package platform

import (
	"kfi/internal/isa"
	"kfi/internal/mem"
)

// InstrRef locates one instruction inside a code image (used by the code
// campaign to pick instruction-boundary injection targets).
type InstrRef struct {
	Addr uint32
	Size uint8
}

// SysReg is one injectable system register: name, architectural width, and
// accessors bound to a live core.
type SysReg struct {
	Name string
	Bits uint
	Get  func() uint32
	Set  func(uint32)
}

// BootState carries the platform-specific boot values the machine installs
// after a reset, alongside the generic PC/SP/stack-bounds setup it performs
// itself.
type BootState struct {
	// FSBase is the per-CPU segment base (CISC).
	FSBase uint32
	// SPRG2 is the exception scratch-area pointer (RISC); the core also
	// remembers it as the expected value for delivery vetting.
	SPRG2 uint32
}

// Delivery is a core's verdict on whether interrupt delivery can proceed:
// proceed (zero value), crash with the given event, or hijack execution to
// an arbitrary PC (a wild-but-mapped scratch pointer, paper §5.2).
type Delivery struct {
	Crash bool
	Event isa.Event
	// Hijack diverts execution to HijackPC instead of delivering.
	Hijack   bool
	HijackPC uint32
}

// CallSentinel is the return address installed by BeginCall; CallDone
// reports completion when the program counter reaches it.
const CallSentinel = 0xDEAD0000

// CPUState is an opaque, platform-owned CPU checkpoint: the snapshot layer
// holds it without knowing its shape, and only the Core that saved it can
// restore it.
type CPUState any

// Core is the platform-generic view of a processor used by the machine
// layer. Adapters are thin; everything architectural stays in the ISA
// packages.
type Core interface {
	// RunUntil is the reference interpreter: it fetches, decodes and
	// executes one instruction at a time until the clock reaches limit or an
	// instruction produces an event, with the ExecEngine.RunUntil contract.
	// The machine reaches it only as the engine Machine.SetEngine selects
	// for the equivalence tests.
	RunUntil(limit uint64) isa.Event
	Reset()

	PC() uint32
	SetPC(uint32)
	SP() uint32
	SetSP(uint32)
	Mode() isa.Mode
	InterruptsEnabled() bool

	// InstallBootState applies the platform-specific architectural boot
	// values (per-CPU bases, firmware translation state).
	InstallBootState(BootState)

	// VetDelivery checks the architectural state the platform's exception
	// entry path depends on, before DeliverInterrupt runs. The zero
	// Delivery means delivery may proceed.
	VetDelivery() Delivery

	// DeliverInterrupt vectors to handler, switching to the given kernel
	// stack when interrupted in user mode.
	DeliverInterrupt(handler, kernelSP uint32) isa.Event

	// SetSyscallResult places a value in the syscall return register.
	SetSyscallResult(v uint32)
	// SyscallArgs returns the three syscall argument registers.
	SyscallArgs() (a, b, c uint32)

	// SystemRegisters returns the injectable system-register file, bound to
	// this core.
	SystemRegisters() []SysReg

	// Context save/restore for the ctxsw primitive. The context area is
	// CtxWords() 32-bit words at addr, written with raw (glue) access.
	CtxWords() int
	SaveContext(addr uint32)
	RestoreContext(addr uint32)
	// InitContext crafts a fresh context that starts executing at entry
	// with the given stack pointer and mode.
	InitContext(addr, entry, sp uint32, user bool)
	// CtxSPOffset is the byte offset of the saved stack pointer within a
	// context area (used to resolve a sleeping process's stack extent).
	CtxSPOffset() uint32
	// CtxModeUser reports whether a saved context at addr was in user mode.
	CtxModeUser(addr uint32) bool

	// SetStackBounds tells the core the current kernel stack range (used by
	// the RISC exception-entry wrapper; a no-op on CISC, which has no such
	// check — a paper finding).
	SetStackBounds(lo, hi uint32)
	// StackPointerInBounds reports whether SP is inside the current kernel
	// stack range (the RISC wrapper check).
	StackPointerInBounds() bool

	// CrashDumpPossible reports whether the embedded crash handler can run
	// and ship a dump: when it cannot, the crash counts in the paper's
	// "Hang/Unknown Crash" column.
	CrashDumpPossible() bool

	// BeginCall arranges a host-driven call to entry with the given
	// arguments and CallSentinel as the return address; CallDone reports
	// the return value once the sentinel is reached, unwinding any
	// stack-passed arguments.
	BeginCall(entry uint32, args []uint32)
	CallDone(nargs int) (ret uint32, done bool)

	// SaveCPUState captures the full CPU for a checkpoint; RestoreCPUState
	// reapplies one, failing on a state captured by a different platform.
	SaveCPUState() CPUState
	RestoreCPUState(CPUState) error

	// DisasmAt renders the instruction at pc against the current memory
	// image (best effort; raw bytes on failure, "<unmapped>" off the map).
	DisasmAt(pc uint32) string

	Clock() *isa.CycleCounter
	Debug() *isa.DebugUnit
	SetTrace(fn func(pc uint32, cost uint8))
	// SetAccessTrace installs fn (nil removes it) to observe every data
	// access the machine makes to guest memory: the core's completed loads
	// and stores, interrupt-frame pushes included, and every raw host-glue
	// access to the core's memory (context save/restore, stack lookups),
	// which the debug unit's data breakpoints cannot see. Like SetTrace it
	// makes the translator take single steps while installed.
	SetAccessTrace(fn func(addr, size uint32))
	PendingDataBreak() (slot int, access isa.DataAccess, addr uint32, ok bool)
}

// Descriptor is everything one platform contributes to the laboratory.
// Report labels (String/Short) and the crash-cause vocabulary live in the
// isa registry under the same Platform value; a Descriptor must be
// registered only after its isa.PlatformInfo.
type Descriptor interface {
	// ID is the platform's isa enum value.
	ID() isa.Platform
	// Aliases lists the names ByName resolves, in addition to the isa
	// Short tag (e.g. "cisc", "ppc").
	Aliases() []string

	// NewCore builds the platform's CPU (decoder, debug unit) bound to the
	// given memory.
	NewCore(m *mem.Memory) Core

	// NewEngine builds the platform's translator bound to a core this
	// descriptor built.
	NewEngine(c Core) ExecEngine

	// BusWindow returns the platform's unclaimed processor-local bus
	// window, in which accesses machine-check rather than page-fault
	// (ok=false when the platform has none).
	BusWindow() (lo, hi uint32, ok bool)
	// KernelStackSize is the per-process kernel stack size.
	KernelStackSize() uint32
	// CrashStages returns the Figure 3 exception-latency stages: hardware
	// exception entry and the software handler (including any wrapper).
	CrashStages() (hw, sw uint64)
	// CrashMessage renders a crash the way the platform's kernel would
	// print it.
	CrashMessage(cause isa.CrashCause, pc, faultAddr, sp uint32) string
	// RegisterLabels returns the program-counter and stack-pointer labels
	// used in crash dumps ("EIP"/"ESP", "NIP"/"R1 ").
	RegisterLabels() (pc, sp string)

	// InstructionBoundaries decodes a function's code bytes into
	// instruction start addresses and sizes (the code campaign's bit-flip
	// target space). base is the guest address of code[0].
	InstructionBoundaries(code []byte, base uint32) []InstrRef
}
