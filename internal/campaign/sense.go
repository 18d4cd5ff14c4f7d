package campaign

import (
	"kfi/internal/inject"
	"kfi/internal/kernel"
	"kfi/internal/staticsense"
)

// sensePass holds the static pre-pass verdicts for one campaign's target
// list: per-index predictions for every classifiable target, plus the
// subset a pruned run may skip. A nil *sensePass (sensing off) is valid and
// inert everywhere it is used.
type sensePass struct {
	an    *staticsense.Analyzer
	sys   *kernel.System
	preds map[int]staticsense.Prediction
	prune map[int]bool
}

// buildSense runs the static analyzer over the campaign's targets when
// ExecOptions ask for it. Every single-bit target is classified: code flips
// against the decoded image, data flips against the whole-program access
// analysis, system-register flips against the platform read model. Stack
// targets resolve their address only at injection time, so they are
// classified lazily in annotate. Burst targets stay unannotated and are
// never pruned — the lattice is defined per single-bit flip.
func buildSense(sys *kernel.System, targets []inject.Target, opts ExecOptions) (*sensePass, error) {
	if !opts.Sense && !opts.Prune {
		return nil, nil
	}
	cfg := staticsense.Config{
		Image:      sys.KernelImage,
		Prog:       sys.Prog,
		KStackSize: sys.KStackSize,
	}
	if sys.Prog != nil {
		cfg.HostReadGlobals = kernel.HostReadGlobals()
		cfg.HostReadTaskFields = kernel.HostReadTaskFields()
	}
	if sys.Src != nil {
		cfg.Proc = sys.Src.Proc
	}
	an, err := staticsense.NewAnalyzer(cfg)
	if err != nil {
		return nil, err
	}
	sp := &sensePass{an: an, sys: sys, preds: map[int]staticsense.Prediction{}, prune: map[int]bool{}}
	for i, t := range targets {
		if t.Burst > 1 {
			continue
		}
		var p staticsense.Prediction
		switch t.Campaign {
		case inject.CampCode:
			p = an.ClassifyFlip(t.Addr, t.ByteOff, t.Bit)
		case inject.CampData:
			p = an.ClassifyData(t.Addr, t.Bit)
		case inject.CampSysReg:
			p = an.ClassifySysReg(t.RegName, t.Bit)
		case inject.CampStack:
			continue // classified lazily once the address resolves
		default:
			continue
		}
		sp.preds[i] = p
		if opts.Prune && p.Inert && pruneEligible(p.Class, t.Campaign) {
			sp.prune[i] = true
		}
	}
	return sp, nil
}

// pruneEligible reports whether an inert prediction of the given class may
// skip an injection of the given campaign. Dead stores are inert but never
// skippable: activation (a read of a neighboring byte in the watched word)
// is statically unknown, and a synthesized row must state it exactly. Stack
// predictions are likewise never skippable — the injected address depends
// on the run's dynamic stack depth.
func pruneEligible(c staticsense.Class, camp inject.Campaign) bool {
	switch c {
	case staticsense.ClassUnknown, staticsense.ClassInvalid, staticsense.ClassLength,
		staticsense.ClassOpcode, staticsense.ClassRegField, staticsense.ClassImmediate:
		return false
	case staticsense.ClassDeadValue, staticsense.ClassInertEncoding:
		return camp == inject.CampCode
	case staticsense.ClassDeadStore:
		return false
	case staticsense.ClassUnreferenced:
		return camp == inject.CampData
	case staticsense.ClassMaskedReg:
		return camp == inject.CampSysReg
	}
	return false
}

// annotate stamps the static verdict onto a completed result. Callers hold
// the recorder lock; a nil pass or an unclassified index is a no-op. Stack
// targets are classified here, from the address RunFrom resolved into the
// result — rows whose injection never happened (not-activated short
// circuits) keep an unresolved address and stay unannotated.
func (sp *sensePass) annotate(idx int, r *inject.Result) {
	if sp == nil {
		return
	}
	p, ok := sp.preds[idx]
	if !ok {
		t := r.Target
		if t.Campaign != inject.CampStack || t.Burst > 1 || sp.sys == nil {
			return
		}
		base := kernel.KStackTop(t.ProcSlot) - sp.sys.KStackSize
		if t.Addr < base || t.Addr-base >= sp.sys.KStackSize {
			return
		}
		p = sp.an.ClassifyStackByte(t.Addr - base)
	}
	r.PredClass = p.Class.String()
	r.PredInert = p.Inert
}

// prunePre moves every predicted-inert skippable entry out of the trigger
// order and into the plan's synthesized rows. Only entries that made it
// into the order are prunable — a code target the golden run never reaches
// is already a synthesized not-activated result, which is more precise than
// the analyzer's activated-but-inert verdict.
func prunePre(p *Plan, sp *sensePass, opts ExecOptions) {
	if sp == nil || !opts.Prune || p.golden == nil {
		return
	}
	kept := p.order[:0]
	for _, o := range p.order {
		t := p.Targets[o.idx]
		// A sysreg trigger landing exactly on the golden end cycle sits on
		// the pause-versus-complete boundary; leave it to the runner.
		boundary := t.Campaign == inject.CampSysReg && t.Delay == p.golden.cycles
		if sp.prune[o.idx] && !boundary {
			p.Pre[o.idx] = synthPruned(t, p.golden)
			continue
		}
		kept = append(kept, o)
	}
	p.order = kept
}

// synthPruned synthesizes the outcome the soundness argument (DESIGN.md
// §13/§17) guarantees for a skippable inert flip, mirroring exactly what
// executing it would record.
func synthPruned(t inject.Target, tr *goldenTrace) inject.Result {
	switch t.Campaign {
	case inject.CampData:
		// The watched word is never accessed: the breakpoint cannot fire,
		// the run is the golden run, and the error never activates.
		r := notActivatedResult(t, tr.cycles, tr.checksum)
		r.PredSkipped = true
		return r
	case inject.CampSysReg:
		if t.Delay > tr.cycles {
			// The benchmark finishes before the trigger: never injected.
			r := notActivatedResult(t, tr.cycles, tr.checksum)
			r.PredSkipped = true
			return r
		}
		// Injected, but the bit is never consulted: the run completes with
		// the golden checksum; sysreg activation is never known.
		return inject.Result{Target: t, Outcome: inject.ONotManifested,
			RunCycles: tr.cycles, Checksum: tr.checksum, PredSkipped: true}
	default:
		return prunedResult(t, tr)
	}
}

// prunedResult synthesizes the outcome for an inert code flip the golden
// run activates: the run completes with the golden checksum and cycle
// count, so the error activated but did not manifest.
func prunedResult(t inject.Target, tr *goldenTrace) inject.Result {
	return inject.Result{
		Target:          t,
		Activated:       true,
		ActivationKnown: true,
		Outcome:         inject.ONotManifested,
		RunCycles:       tr.cycles,
		Checksum:        tr.checksum,
		PredSkipped:     true,
	}
}
