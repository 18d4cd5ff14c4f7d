package risc

import (
	"fmt"

	"kfi/internal/isa"
	"kfi/internal/platform"
)

// Execution engines for the G4-class core. The step engines wrap the
// existing interpreter (with or without the predecode cache); the block
// translator lives in translate.go. All engines are observationally
// equivalent — same architectural state, cycle counts, and events for every
// instruction — so campaign outcomes and journals are byte-identical across
// them.

// Engines lists the engines the G4 platform supports.
func (descriptor) Engines() []platform.EngineKind {
	return []platform.EngineKind{platform.EngineInterp, platform.EnginePredecode, platform.EngineTranslate}
}

// NewEngine builds an execution engine bound to a RISC core.
func (descriptor) NewEngine(kind platform.EngineKind, c platform.Core) (platform.ExecEngine, error) {
	cpu := CPUOf(c)
	if cpu == nil {
		return nil, fmt.Errorf("risc: engine %v requires a RISC core, got %T", kind, c)
	}
	switch kind {
	case platform.EngineInterp, platform.EnginePredecode:
		return newStepEngine(kind, cpu), nil
	case platform.EngineTranslate:
		return newTranslator(cpu), nil
	default:
		return nil, fmt.Errorf("risc: unsupported engine %v", kind)
	}
}

// stepEngine is the per-instruction interpreter: EngineInterp is the
// reference fetch+decode-every-step sequence, EnginePredecode adds the
// per-page decoded-instruction cache (icache.go).
type stepEngine struct {
	kind platform.EngineKind
	cpu  *CPU
}

func newStepEngine(kind platform.EngineKind, cpu *CPU) *stepEngine {
	cpu.SetPredecode(kind == platform.EnginePredecode)
	return &stepEngine{kind: kind, cpu: cpu}
}

func (e *stepEngine) Kind() platform.EngineKind { return e.kind }

func (e *stepEngine) RunUntil(limit uint64) isa.Event { return e.cpu.RunUntil(limit) }

func (e *stepEngine) Stats() platform.EngineStats { return platform.EngineStats{} }

func (e *stepEngine) ResetStats() {}
