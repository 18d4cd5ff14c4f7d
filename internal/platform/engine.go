package platform

import "kfi/internal/isa"

// EngineKind selects one of a platform's execution engines. All engines
// execute the guest bit-identically — same architectural state, cycle
// counts, and events for every instruction — and differ only in wall-clock
// throughput. The interpreter is the reference; every platform must provide
// it.
type EngineKind uint8

// Engine kinds. The zero value is reserved to mean "platform default" in
// configuration structs, so journal headers and specs can omit it.
const (
	// EngineInterp is the reference interpreter: fetch + decode + execute
	// every step, no caching of decoded instructions.
	EngineInterp EngineKind = iota + 1
	// EnginePredecode is the interpreter with the per-page decoded-
	// instruction cache (PR 2), invalidated by memory write-generation
	// counters.
	EnginePredecode
	// EngineTranslate is the basic-block translator: straight-line guest
	// code becomes arrays of fused Go closures, keyed per page and
	// invalidated by the same write-generation counters; anything it cannot
	// (or must not) run falls back to the interpreter.
	EngineTranslate

	numEngineKinds
)

// String returns the engine name used by flags, journal headers, and specs.
func (k EngineKind) String() string {
	switch k {
	case EngineInterp:
		return "interp"
	case EnginePredecode:
		return "predecode"
	case EngineTranslate:
		return "translate"
	default:
		return "engine?"
	}
}

// EngineKinds returns every defined engine kind, in enum order.
func EngineKinds() []EngineKind {
	return []EngineKind{EngineInterp, EnginePredecode, EngineTranslate}
}

// EngineByName resolves an engine kind from its String name.
func EngineByName(name string) (EngineKind, bool) {
	for _, k := range EngineKinds() {
		if name == k.String() {
			return k, true
		}
	}
	return 0, false
}

// DefaultEngine returns the engine a descriptor runs when none is requested:
// the predecoded interpreter when supported, otherwise the reference
// interpreter. The default is deliberately NOT the translator — the default
// engine is the behavior every golden journal in the repo pins.
func DefaultEngine(d Descriptor) EngineKind {
	for _, k := range d.Engines() {
		if k == EnginePredecode {
			return EnginePredecode
		}
	}
	return EngineInterp
}

// SupportsEngine reports whether kind appears in d.Engines().
func SupportsEngine(d Descriptor, kind EngineKind) bool {
	for _, k := range d.Engines() {
		if k == kind {
			return true
		}
	}
	return false
}

// EngineStats are the observability counters an engine maintains. The
// interpreter engines report all zeros; the translator counts its cache
// behavior and how often it had to fall back to stepping.
type EngineStats struct {
	// Translated counts basic blocks decoded into closure arrays.
	Translated uint64
	// Hits counts dispatches served from the closure cache.
	Hits uint64
	// Invalidations counts blocks dropped because a page's write generation
	// moved (stores or injected flips into translated code).
	Invalidations uint64
	// Fallbacks counts dispatches delegated to the interpreter (tracing or
	// debug hardware armed, untranslatable code).
	Fallbacks uint64
}

// Add accumulates other into s.
func (s *EngineStats) Add(other EngineStats) {
	s.Translated += other.Translated
	s.Hits += other.Hits
	s.Invalidations += other.Invalidations
	s.Fallbacks += other.Fallbacks
}

// Zero reports whether no counter has fired.
func (s EngineStats) Zero() bool { return s == EngineStats{} }

// ExecEngine executes guest instructions on behalf of the machine layer.
// Engines own the batching loop that used to be Core.RunUntil; the machine
// never steps a core directly. Every engine must be observationally
// equivalent to calling Core.Step in a loop: same architectural state, cycle
// counts, and events, instruction for instruction.
type ExecEngine interface {
	// Kind identifies the engine.
	Kind() EngineKind
	// RunUntil executes until the core clock reaches limit or an instruction
	// produces a non-EvNone event, which it returns; EvNone means the limit
	// was reached. Because every instruction costs at least one cycle,
	// RunUntil(clock+1) executes exactly one instruction.
	RunUntil(limit uint64) isa.Event
	// Stats returns the engine's counters since construction or the last
	// ResetStats.
	Stats() EngineStats
	// ResetStats zeroes the counters.
	ResetStats()
}
