package platform

import "kfi/internal/isa"

// EngineKind names the two engines machine.Machine.SetEngine chooses
// between. Every guest runs on its ISA's basic-block translator; the
// reference interpreter (Core.RunUntil) is what the equivalence tests and
// translate fuzzers compare it against. Both execute the guest
// bit-identically — same architectural state, cycle counts, and events for
// every instruction — and differ only in wall-clock throughput.
type EngineKind uint8

// Engine kinds. The zero value selects the translator.
const (
	// EngineInterp is the reference interpreter: fetch + decode + execute
	// every step, no caching of decoded instructions.
	EngineInterp EngineKind = iota + 1
	// EngineTranslate is the basic-block translator: it caches decoded
	// instructions per page in a CodeCache and builds straight-line guest
	// code from them into arrays of fused Go closures, all invalidated by
	// memory write-generation counters; anything it cannot (or must not)
	// run as a block it steps through the cached instructions.
	EngineTranslate
)

// String returns the engine name used in reports and test names.
func (k EngineKind) String() string {
	switch k {
	case EngineInterp:
		return "interp"
	case EngineTranslate:
		return "translate"
	default:
		return "engine?"
	}
}

// EngineStats are the observability counters an engine maintains. The
// interpreter reports all zeros; the translator counts its cache
// behavior and how often it had to fall back to stepping.
type EngineStats struct {
	// Translated counts basic blocks decoded into closure arrays.
	Translated uint64
	// Hits counts dispatches served from the closure cache.
	Hits uint64
	// Invalidations counts blocks dropped because a page's write generation
	// moved (stores or injected flips into translated code).
	Invalidations uint64
	// Fallbacks counts dispatches that took single steps instead of a block
	// (tracing or debug hardware armed, untranslatable code).
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

// ExecEngine executes guest instructions on behalf of the machine layer,
// which never steps a core itself. The engine is the descriptor's
// translator (Descriptor.NewEngine) or, for the equivalence tests, the
// reference interpreter Core.RunUntil; the translator must be
// observationally equivalent to it: same architectural state, cycle counts,
// and events, instruction for instruction.
type ExecEngine interface {
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
