package cisc

import (
	"fmt"

	"kfi/internal/isa"
	"kfi/internal/platform"
)

// Execution engines for the P4-class core: the block translator
// (translate.go) that runs every guest, and the step interpreter it is
// tested against. Both are observationally equivalent — same architectural
// state, cycle counts, and events for every instruction — so campaign
// outcomes and journals are byte-identical across them.

// Engines lists the engines the P4 platform supports.
func (descriptor) Engines() []platform.EngineKind {
	return []platform.EngineKind{platform.EngineInterp, platform.EngineTranslate}
}

// NewEngine builds an execution engine bound to a CISC core.
func (descriptor) NewEngine(kind platform.EngineKind, c platform.Core) (platform.ExecEngine, error) {
	cpu := CPUOf(c)
	if cpu == nil {
		return nil, fmt.Errorf("cisc: engine %v requires a CISC core, got %T", kind, c)
	}
	switch kind {
	case platform.EngineInterp:
		return newStepEngine(cpu), nil
	case platform.EngineTranslate:
		return newTranslator(cpu), nil
	default:
		return nil, fmt.Errorf("cisc: unsupported engine %v", kind)
	}
}

// stepEngine is the reference interpreter: CPU.RunUntil, fetch and decode
// on every step.
type stepEngine struct{ cpu *CPU }

func newStepEngine(cpu *CPU) *stepEngine { return &stepEngine{cpu: cpu} }

func (e *stepEngine) Kind() platform.EngineKind { return platform.EngineInterp }

func (e *stepEngine) RunUntil(limit uint64) isa.Event { return e.cpu.RunUntil(limit) }

func (e *stepEngine) Stats() platform.EngineStats { return platform.EngineStats{} }

func (e *stepEngine) ResetStats() {}
