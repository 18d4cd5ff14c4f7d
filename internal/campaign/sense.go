package campaign

import (
	"kfi/internal/inject"
	"kfi/internal/kernel"
	"kfi/internal/staticsense"
)

// sensePass holds the static pre-pass verdicts for one campaign's target
// list: per-index predictions for every classifiable target. A nil
// *sensePass (sensing off) is valid and inert everywhere it is used.
type sensePass struct {
	an    *staticsense.Analyzer
	sys   *kernel.System
	preds map[int]staticsense.Prediction
}

// buildSense runs the static analyzer over the campaign's targets when
// ExecOptions ask for it. Every single-bit target is classified: code flips
// against the decoded image, data flips against the whole-program access
// analysis, system-register flips against the platform read model. Stack
// targets resolve their address only at injection time, so they are
// classified lazily in annotate. Burst targets stay unannotated — the
// lattice is defined per single-bit flip.
func buildSense(sys *kernel.System, targets []inject.Target, opts ExecOptions) (*sensePass, error) {
	if !opts.Sense {
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
	sp := &sensePass{an: an, sys: sys, preds: map[int]staticsense.Prediction{}}
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
	}
	return sp, nil
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
