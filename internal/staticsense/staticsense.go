// Package staticsense statically classifies single-bit flips in a built
// kernel's code image without executing them — the decoder-aware pre-pass
// the FastFlip/BEC line of work applies to fault-injection campaigns.
//
// The analyzer walks every compiled kernel function, recovers instruction
// boundaries exactly the way the campaign generator does, and places each
// candidate (address, byte, bit) flip in a classification lattice:
//
//	invalid > length > opcode > reg-field > immediate > dead-value > inert-encoding
//
// ordered by how directly the flip threatens execution. The two bottom
// classes are *predicted inert*: the flip provably cannot change any
// architecturally visible outcome of a run (workload checksum, cycle count,
// crash/hang state), so a campaign may skip them and journal the golden
// outcome instead. See DESIGN.md §13 for the full soundness argument; the
// campaign-side confusion matrix (internal/stats) measures it per run.
package staticsense

import (
	"encoding/json"
	"fmt"
	"sort"

	"kfi/internal/cc"
	"kfi/internal/isa"
	"kfi/internal/kir"
)

// Class places one candidate flip in the classification lattice.
type Class uint8

const (
	// ClassUnknown marks flips the analyzer cannot reason about: the
	// address is not a statically decoded instruction boundary, the byte
	// offset lies outside the instruction, or the original word does not
	// decode. Never predicted inert.
	ClassUnknown Class = iota
	// ClassInvalid flips decode to no instruction at all: reaching them
	// raises the ISA's invalid-opcode exception (#UD / program check).
	ClassInvalid
	// ClassLength flips change the decoded instruction length (CISC only),
	// resynchronizing the downstream instruction stream.
	ClassLength
	// ClassOpcode flips keep the length but change the operation.
	ClassOpcode
	// ClassRegField flips keep the operation but change a register or
	// addressing operand field.
	ClassRegField
	// ClassImmediate flips keep operation and registers but change an
	// immediate, displacement, or condition field.
	ClassImmediate
	// ClassDeadValue flips change only the value written to destination
	// registers that a conservative linear liveness scan proves dead
	// (overwritten before any read, barrier, or control transfer), by an
	// instruction pair proven pure and cost-equal. Predicted inert.
	ClassDeadValue
	// ClassInertEncoding flips land on don't-care encoding bits: the
	// flipped word decodes to an instruction the executor cannot
	// distinguish from the original. Predicted inert.
	ClassInertEncoding
	// ClassDeadStore flips land in a data or stack byte the whole-program
	// access analysis proves is possibly written but never read (by compiled
	// code, the glue paths, or the host runtime). Predicted inert — the
	// flipped value is never consumed — though neighboring bytes of the
	// same word may be read, so activation is statically unknown.
	ClassDeadStore
	// ClassUnreferenced flips land in an aligned 4-byte word no kernel
	// instruction, glue path, or host access ever touches (padding holes,
	// never-referenced globals or fields). Predicted inert: a data flip
	// here is never activated.
	ClassUnreferenced
	// ClassMaskedReg flips land on a system-register bit outside the
	// platform's statically derived consulted mask: no implicit processor
	// path and no decoded instruction in the image ever reads the bit.
	// Predicted inert.
	ClassMaskedReg

	numClasses
)

var classNames = [numClasses]string{
	ClassUnknown:       "unknown",
	ClassInvalid:       "invalid",
	ClassLength:        "length",
	ClassOpcode:        "opcode",
	ClassRegField:      "reg-field",
	ClassImmediate:     "immediate",
	ClassDeadValue:     "dead-value",
	ClassInertEncoding: "inert-encoding",
	ClassDeadStore:     "dead-store",
	ClassUnreferenced:  "unreferenced",
	ClassMaskedReg:     "masked-reg",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Inert reports whether the class as a whole is predicted inert: every
// prediction the analyzer emits with this class carries Inert set.
func (c Class) Inert() bool {
	switch c {
	case ClassDeadValue, ClassInertEncoding, ClassDeadStore, ClassUnreferenced, ClassMaskedReg:
		return true
	}
	return false
}

// Classes lists every class in lattice order (most to least threatening),
// for stable rendering of per-class tallies.
func Classes() []Class {
	out := make([]Class, 0, numClasses)
	for c := Class(0); c < numClasses; c++ {
		out = append(out, c)
	}
	return out
}

// Prediction is the analyzer's verdict on one candidate flip.
type Prediction struct {
	Class Class
	// Inert predicts that injecting the flip cannot change any
	// architecturally visible outcome: if the campaign executes it anyway,
	// the run must end with the golden checksum and cycle count.
	Inert bool
	// Detail is a one-line human explanation of the verdict.
	Detail string
}

// Site is one statically decoded instruction boundary: the unit of the
// code-campaign injection space.
type Site struct {
	Addr uint32
	Size uint8
}

// Classifier is one platform's static classification strategy: it owns the
// platform's decoded-instruction tables and the decoder-aware reasoning.
// Implementations are registered per platform with RegisterClassifier; the
// Analyzer provides the platform-independent driving (function walk, sweep,
// reporting).
type Classifier interface {
	// AddFunc statically decodes one function's code bytes (base is the
	// guest address of code[0]), recording instruction boundaries for
	// Classify and the liveness scan. It must mirror the campaign
	// generator's boundary recovery exactly.
	AddFunc(code []byte, base uint32)
	// Sites returns every decoded instruction boundary, in any order.
	Sites() []Site
	// Classify classifies the flip of bit `bit` (0–7, already masked) in
	// the byte at addr+byteOff; addr is a boundary previously recorded by
	// AddFunc and byteOff is within the instruction.
	Classify(addr uint32, byteOff uint8, bit uint) Prediction
}

var classifiers = map[isa.Platform]func(img *cc.Image) Classifier{}

// RegisterClassifier registers a platform's classifier factory. The built-in
// platforms register theirs in this package's init; extension platforms
// (which sit above cc in the import graph) call this from their own setup
// code before building an Analyzer.
func RegisterClassifier(p isa.Platform, mk func(img *cc.Image) Classifier) {
	if mk == nil {
		panic("staticsense: RegisterClassifier with nil factory")
	}
	if _, dup := classifiers[p]; dup {
		panic(fmt.Sprintf("staticsense: classifier already registered for %v", p))
	}
	classifiers[p] = mk
}

func init() {
	RegisterClassifier(isa.CISC, newCISCClassifier)
	RegisterClassifier(isa.RISC, newRISCClassifier)
}

// Analyzer classifies flips against one built kernel image. Building it
// decodes every function once; ClassifyFlip is then O(window) per query.
type Analyzer struct {
	platform isa.Platform
	cl       Classifier
	// hardened records whether the image carries the kir.Harden detector —
	// sweeps over hardened images label their reports, since the hardening
	// checks themselves enlarge the code-injection space being classified.
	hardened bool
	// addrs lists decoded instruction addresses in ascending order, for
	// deterministic sweeps; sizes maps each to its instruction length.
	addrs []uint32
	sizes map[uint32]uint8

	// Whole-target state, nil/zero for code-only analyzers built with New.
	img        *cc.Image
	acc        *accessMap
	extents    []extent
	stack      *stackModel
	sysregs    map[string]SysRegInfo
	sysOrder   []string
	kstackSize uint32
}

// Config describes one built system to NewAnalyzer. Image is required;
// every other field unlocks one additional target class, so partial
// configurations degrade to ClassUnknown rather than failing.
type Config struct {
	// Image is the compiled kernel image (with glue appended), exactly what
	// the campaign injects into.
	Image *cc.Image
	// Prog is the KIR program Image was compiled from, with hardening
	// passes already applied — the access model for data and stack flips.
	Prog *kir.Program
	// Proc is the task_struct type co-located at the base of each kernel
	// stack slot; enables stack-byte classification.
	Proc *kir.Struct
	// KStackSize is the per-slot kernel stack size in bytes (the stack
	// sweep span).
	KStackSize uint32
	// HostReadGlobals names globals the host runtime reads outside compiled
	// code (current-task resolution, injector address resolution). Every
	// byte of these is conservatively live.
	HostReadGlobals []string
	// HostReadTaskFields names Proc fields the host runtime reads directly
	// (stack checks, context switch, saved-SP probes).
	HostReadTaskFields []string
}

// NewAnalyzer builds a whole-target analyzer: code flips classify exactly as
// with New, and the Config's program/layout information additionally
// classifies data, stack, and system-register flips.
func NewAnalyzer(cfg Config) (*Analyzer, error) {
	a, err := New(cfg.Image)
	if err != nil {
		return nil, err
	}
	a.img = cfg.Image
	if cfg.Prog != nil {
		a.acc = analyzeProgram(cfg.Prog, cfg.Image.Layout, cfg.Proc, cfg.HostReadGlobals, cfg.HostReadTaskFields)
		a.extents = buildExtents(cfg.Prog, cfg.Image)
		if cfg.Proc != nil {
			a.stack = newStackModel(cfg.Proc, cfg.Image.Layout, a.acc)
		}
		a.kstackSize = cfg.KStackSize
	}
	if mk := sysregModels[a.platform]; mk != nil {
		a.sysregs = map[string]SysRegInfo{}
		for _, info := range mk(cfg.Image) {
			a.sysregs[info.Name] = info
			a.sysOrder = append(a.sysOrder, info.Name)
		}
	}
	return a, nil
}

// New builds an analyzer over a compiled kernel image.
func New(img *cc.Image) (*Analyzer, error) {
	mk, ok := classifiers[img.Platform]
	if !ok {
		return nil, fmt.Errorf("staticsense: no classifier registered for %v", img.Platform)
	}
	_, hardened := img.Syms[kir.DetectFunc]
	a := &Analyzer{platform: img.Platform, cl: mk(img), hardened: hardened}
	for _, fn := range img.Funcs {
		if fn.Start < img.CodeBase || uint64(fn.End-img.CodeBase) > uint64(len(img.Code)) || fn.End < fn.Start {
			return nil, fmt.Errorf("staticsense: function %s [%#x,%#x) outside code image", fn.Name, fn.Start, fn.End)
		}
		a.cl.AddFunc(img.Code[fn.Start-img.CodeBase:fn.End-img.CodeBase], fn.Start)
	}
	sites := a.cl.Sites()
	a.addrs = make([]uint32, 0, len(sites))
	a.sizes = make(map[uint32]uint8, len(sites))
	for _, s := range sites {
		a.addrs = append(a.addrs, s.Addr)
		a.sizes[s.Addr] = s.Size
	}
	sort.Slice(a.addrs, func(i, j int) bool { return a.addrs[i] < a.addrs[j] })
	return a, nil
}

// ClassifyFlip classifies the single-bit flip of bit `bit` (0–7) in the
// byte at addr+byteOff, where addr must be an instruction boundary — the
// exact shape of a CampCode injection target. Unknown addresses and
// out-of-range offsets yield ClassUnknown, never a panic.
func (a *Analyzer) ClassifyFlip(addr uint32, byteOff uint8, bit uint) Prediction {
	size, ok := a.sizes[addr]
	if !ok {
		return Prediction{Class: ClassUnknown, Detail: "address is not a decoded instruction boundary"}
	}
	if byteOff >= size {
		return Prediction{Class: ClassUnknown, Detail: "byte offset beyond the instruction"}
	}
	return a.cl.Classify(addr, byteOff, bit&7)
}

// TargetReport tallies the sweep of one target class (code, data, stack,
// sysreg): its injection-space size and per-class split.
type TargetReport struct {
	Target  string         `json:"target"`
	Sites   int            `json:"sites"`
	ByClass map[string]int `json:"by_class"`
	Inert   int            `json:"inert"`
}

// InertFrac is the fraction of this target's injection space predicted inert.
func (t *TargetReport) InertFrac() float64 {
	if t.Sites == 0 {
		return 0
	}
	return float64(t.Inert) / float64(t.Sites)
}

// Report tallies a whole-image sweep of every candidate flip. Its JSON
// form names the platform by its short name (p4, g4); see MarshalJSON.
type Report struct {
	Platform isa.Platform `json:"platform"`
	// Sites is the size of the swept injection space: one per (instruction,
	// byte, bit) triple for code-only analyzers, summed across every swept
	// target class for whole-target analyzers.
	Sites   int            `json:"sites"`
	ByClass map[string]int `json:"by_class"`
	// Inert counts sites predicted inert.
	Inert int `json:"inert"`
	// Hardened labels sweeps over images built with the kir.Harden passes
	// (detected via the synthesized detector symbol); omitted for ordinary
	// images, so pre-hardening reports serialize byte-identically.
	Hardened bool `json:"hardened,omitempty"`
	// Targets breaks the sweep down per target class, in the fixed order
	// code, data, stack, sysreg. Only whole-target analyzers (NewAnalyzer)
	// emit it; code-only reports keep their original shape.
	Targets []*TargetReport `json:"targets,omitempty"`
}

// reportFields is Report without its JSON methods.
type reportFields Report

// reportJSON is Report's wire form. Its Platform, the shallower field,
// replaces the embedded numeric one.
type reportJSON struct {
	Platform string `json:"platform"`
	*reportFields
}

// MarshalJSON writes the report with the platform's short name (p4, g4),
// the name the flags use, instead of the isa.Platform number.
func (r Report) MarshalJSON() ([]byte, error) {
	return json.Marshal(reportJSON{Platform: r.Platform.Short(), reportFields: (*reportFields)(&r)})
}

// UnmarshalJSON reads what MarshalJSON writes.
func (r *Report) UnmarshalJSON(b []byte) error {
	w := reportJSON{reportFields: (*reportFields)(r)}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	for _, p := range isa.Platforms() {
		if p.Short() == w.Platform {
			r.Platform = p
			return nil
		}
	}
	return fmt.Errorf("staticsense: report for unknown platform %q", w.Platform)
}

// InertFrac is the fraction of the injection space predicted inert.
func (r *Report) InertFrac() float64 {
	if r.Sites == 0 {
		return 0
	}
	return float64(r.Inert) / float64(r.Sites)
}

// Sweep classifies every candidate flip the analyzer can reason about: the
// code image always, plus the data, stack, and sysreg spaces when built with
// NewAnalyzer and the Config unlocked them.
func (a *Analyzer) Sweep() *Report {
	r := &Report{Platform: a.platform, ByClass: map[string]int{}, Hardened: a.hardened}
	tgts := []*TargetReport{a.sweepCode()}
	if a.acc != nil {
		tgts = append(tgts, a.sweepData())
		if a.stack != nil && a.kstackSize > 0 {
			tgts = append(tgts, a.sweepStack())
		}
	}
	if a.img != nil && len(a.sysOrder) > 0 {
		tgts = append(tgts, a.sweepSysReg())
	}
	if len(tgts) > 1 {
		r.Targets = tgts
	}
	for _, t := range tgts {
		r.Sites += t.Sites
		r.Inert += t.Inert
		for k, v := range t.ByClass {
			r.ByClass[k] += v
		}
	}
	return r
}

func newTargetReport(name string) *TargetReport {
	return &TargetReport{Target: name, ByClass: map[string]int{}}
}

func (t *TargetReport) tally(p Prediction, n int) {
	t.Sites += n
	t.ByClass[p.Class.String()] += n
	if p.Inert {
		t.Inert += n
	}
}

func (a *Analyzer) sweepCode() *TargetReport {
	t := newTargetReport("code")
	for _, addr := range a.addrs {
		size := a.sizes[addr]
		for off := uint8(0); off < size; off++ {
			for bit := uint(0); bit < 8; bit++ {
				t.tally(a.ClassifyFlip(addr, off, bit), 1)
			}
		}
	}
	return t
}

func (a *Analyzer) sweepData() *TargetReport {
	t := newTargetReport("data")
	sweep := func(base, size uint32) {
		for addr := base; addr < base+size; addr++ {
			// Data classification is byte-granular: all 8 bits share a class.
			t.tally(a.ClassifyData(addr, 0), 8)
		}
	}
	sweep(a.img.DataBase, uint32(len(a.img.Data)))
	sweep(a.img.BSSBase, a.img.BSSSize)
	return t
}

func (a *Analyzer) sweepStack() *TargetReport {
	t := newTargetReport("stack")
	for off := uint32(0); off < a.kstackSize; off++ {
		t.tally(a.ClassifyStackByte(off), 8)
	}
	return t
}

func (a *Analyzer) sweepSysReg() *TargetReport {
	t := newTargetReport("sysreg")
	for _, name := range a.sysOrder {
		for bit := uint(0); bit < a.sysregs[name].Bits; bit++ {
			t.tally(a.ClassifySysReg(name, bit), 1)
		}
	}
	return t
}

// Render formats a sweep as an aligned per-class table, with one section per
// swept target class for whole-target reports.
func (r *Report) Render() string {
	label := ""
	if r.Hardened {
		label = " (hardened image)"
	}
	if len(r.Targets) == 0 {
		out := fmt.Sprintf("%-10s %9d candidate (instruction, byte, bit) flips%s\n", r.Platform, r.Sites, label)
		out += renderClasses(r.ByClass, r.Sites, r.Inert)
		return out
	}
	out := fmt.Sprintf("%-10s %9d candidate flips across %d target classes%s\n",
		r.Platform, r.Sites, len(r.Targets), label)
	for _, t := range r.Targets {
		out += fmt.Sprintf(" %s: %d sites\n", t.Target, t.Sites)
		out += renderClasses(t.ByClass, t.Sites, t.Inert)
	}
	return out
}

func renderClasses(byClass map[string]int, sites, inert int) string {
	out := ""
	for _, c := range Classes() {
		n := byClass[c.String()]
		if n == 0 {
			continue
		}
		out += fmt.Sprintf("  %-16s %9d  (%5.1f%%)\n", c, n, 100*float64(n)/float64(sites))
	}
	frac := 0.0
	if sites > 0 {
		frac = float64(inert) / float64(sites)
	}
	out += fmt.Sprintf("  %-16s %9d  (%5.1f%%)\n", "predicted inert", inert, 100*frac)
	return out
}

// beWord reads a big-endian 32-bit instruction word (the RISC memory
// layout: asm.go emits big-endian, and the core fetches the same way).
func beWord(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
